import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from hilb2 import (
    BasisSymbol,
    GradedClass,
    InvalidIndex,
    InvalidInput,
    ParseError,
    ValidationError,
    emit_class,
    enumerate_basis,
    parse_class,
    parse_symbol,
)
from hilb2.cli import EXIT_VALIDATION, run_command

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "hilb2" / "schemas"
CLASS_SCHEMA = json.loads((SCHEMA_DIR / "class_document.schema.json").read_text())
SYMBOL_SCHEMA = json.loads((SCHEMA_DIR / "cli_output.schema.json").read_text())["$defs"]["symbol"]


def test_emit_class_example():
    X = GradedClass(2, [(BasisSymbol("B'", 1, 1, 2), 2), (BasisSymbol("C", 1, 1, 2), -4)])
    assert emit_class(X) == {
        "n": 2,
        "basis": "MS",
        "terms": [
            {"family": "B'", "i": 1, "j": 1, "coeff": "2"},
            {"family": "C", "i": 1, "j": 1, "coeff": "-4"},
        ],
    }
    assert str(X) == "2*B'_{1,1} - 4*C_{1,1}"


def test_basis_tag():
    assert emit_class(GradedClass.from_symbol(BasisSymbol("B", 1, 1, 2)))["basis"] == "ES"
    mixed = GradedClass(3, [(BasisSymbol("B", 1, 1, 3), 1), (BasisSymbol("B'", 1, 1, 3), 1)])
    assert emit_class(mixed)["basis"] == "mixed"
    assert emit_class(GradedClass(2))["basis"] == "MS"


def random_class(rng, n):
    pool = enumerate_basis(n, "MS") + enumerate_basis(n, "ES")
    terms = []
    for sym in rng.sample(pool, k=min(len(pool), rng.randint(0, 6))):
        num = rng.randint(-20, 20)
        den = rng.randint(1, 12)
        terms.append((sym, Fraction(num, den)))
    return GradedClass(n, terms)


def test_roundtrip_random_classes():
    rng = random.Random(2024)
    for _ in range(1000):
        X = random_class(rng, rng.randint(1, 6))
        assert parse_class(json.dumps(emit_class(X))) == X


def test_emitted_documents_validate_against_schema():
    rng = random.Random(5)
    for _ in range(50):
        doc = emit_class(random_class(rng, rng.randint(1, 5)))
        jsonschema.validate(doc, CLASS_SCHEMA)


def test_emit_is_deterministic():
    a = BasisSymbol("A", 0, 2, 2)
    c = BasisSymbol("C", 1, 1, 2)
    X = GradedClass(2, [(c, 3), (a, 1)])
    Y = GradedClass(2, [(a, 1), (c, 3)])
    assert json.dumps(emit_class(X)) == json.dumps(emit_class(Y))


def test_parse_symbol():
    sym = parse_symbol('{"family":"B\'","i":1,"j":1}', 2)
    assert str(sym) == "B'_{1,1}"
    with pytest.raises(InvalidIndex):
        parse_symbol('{"family":"C","i":0,"j":1}', 2)
    with pytest.raises(ParseError):
        parse_symbol('{"family":"Q","i":0,"j":1}', 2)
    with pytest.raises(ParseError):
        parse_symbol('{"family":"A","i":0}', 2)
    x = '{"family":"A","i":0,"j":1,"n":5}'  # the schema's symbol has no other key
    with pytest.raises(ParseError, match="^symbol document has unknown field 'n'$"):
        parse_symbol(x, 2)
    argv = ["pair", "--n", "2", "--x", x, "--y", '{"family":"A","i":1,"j":2}']
    assert run_command(argv) == (EXIT_VALIDATION, "error: symbol document has unknown field 'n'")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError, match="position"):
        parse_class('{"n": 2, "terms": [')


def test_parse_class_structural_errors():
    with pytest.raises(ParseError):
        parse_class("[1, 2]")
    with pytest.raises(ParseError):
        parse_class('{"terms": []}')
    with pytest.raises(ParseError):
        parse_class('{"n": 2}')
    with pytest.raises(ParseError):
        parse_class('{"n": 2, "terms": [{"family": "A", "i": 0, "j": 1}]}')
    with pytest.raises(ParseError):
        parse_class('{"n": 2, "terms": [{"family": "A", "i": 0, "j": 1, "coeff": 0.5}]}')
    with pytest.raises(ParseError):
        parse_class('{"n": 2, "terms": [{"family": "A", "i": 0, "j": 1, "coeff": "1/0"}]}')


def test_parse_class_merges_repeated_terms():
    X = parse_class(
        '{"n": 2, "terms": ['
        '{"family": "A", "i": 0, "j": 1, "coeff": "1/2"},'
        '{"family": "A", "i": 0, "j": 1, "coeff": "1/2"}]}'
    )
    assert X == GradedClass.from_symbol(BasisSymbol("A", 0, 1, 2))


def test_parse_class_propagates_invalid_index():
    with pytest.raises(InvalidIndex):
        parse_class('{"n": 2, "terms": [{"family": "C", "i": 0, "j": 1, "coeff": "1"}]}')


def one_term_document(coeff):
    return {"n": 2, "terms": [{"family": "A", "i": 0, "j": 1, "coeff": coeff}]}


REFUSED_COEFFICIENTS = [" 1.50 ", "1e2", "+3", "1_000", "1/02", "1/0", "\u0663", "3\n", "1/-2", ""]


@pytest.mark.parametrize("coeff", REFUSED_COEFFICIENTS)
def test_coefficients_outside_the_schema_grammar_are_refused(coeff):
    with pytest.raises(ParseError, match="bad rational string"):
        parse_class(one_term_document(coeff))
    code, _ = run_command(
        ["cone", "--class", json.dumps(one_term_document(coeff)), "--test", "nef"]
    )
    assert code == EXIT_VALIDATION


# Coefficient text -> its value where a class document may hold it; the rest is refused.
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
COEFFICIENT_TEXT = {
    "1/2": Fraction(1, 2), "-0": 0, "007": 7, " 1.50 ": None, "1e2": None, "+3": None,
    "1_0": None, "3/-4": None, "1/0": None, "\u0663": None, "2\n": None,
    **({"7" * (_LIMIT + 1): None} if _LIMIT else {}),
}


@pytest.mark.parametrize("text", COEFFICIENT_TEXT, ids=[repr(t)[:12] for t in COEFFICIENT_TEXT])
def test_a_class_reads_coefficient_text_as_a_class_document_does(text):
    # GradedClass and scalar * read text with parse_class's one reader: the same
    # strings, the same values, and the same message under InvalidInput.
    sym = BasisSymbol("A", 0, 1, 2)
    by_text = (lambda: GradedClass(2, [(sym, text)]), lambda: GradedClass.from_symbol(sym) * text)
    value = COEFFICIENT_TEXT[text]
    if value is not None:
        expected = GradedClass(2, [(sym, value)])
        assert parse_class(one_term_document(text)) == expected
        assert [make() for make in by_text] == [expected, expected]
        return
    with pytest.raises(ParseError) as parsed:
        parse_class(one_term_document(text))
    for make in by_text:
        with pytest.raises(InvalidInput) as built:
            make()
        assert str(built.value) == str(parsed.value)


def test_coefficient_grammar_matches_the_schema():
    # "3\n" is left out: Python's ``re.search`` lets ``$`` match before a
    # final newline, so jsonschema accepts it, while the schema's ECMA-262
    # pattern and the parser both refuse it (tested above).
    corpus = [c for c in REFUSED_COEFFICIENTS if c != "3\n"]
    corpus += ["0", "-0", "03", "-7/2", "1/2", "12/35", "-1", "00/10", "-", "/2", "1/", "1//2"]
    # non-string JSON values: the schema types the coefficient as a string
    corpus += [3, -1, 0, 10**30, 1.5, 2.0, True, False, None, ["1"], {"p": 1}]
    for coeff in corpus:
        doc = one_term_document(coeff)
        schema_ok = jsonschema.Draft202012Validator(CLASS_SCHEMA).is_valid(doc)
        try:
            parse_class(doc)
            parsed = True
        except ParseError:
            parsed = False
        assert parsed == schema_ok, coeff


A01 = {"family": "A", "i": 0, "j": 1, "coeff": "1"}

# Documents the class-document schema refuses for an unknown key or a basis
# that is not a tag.
SCHEMA_REFUSED_DOCUMENTS = [
    {"n": 2, "basis": "XX", "terms": []},
    {"n": 2, "basis": None, "terms": []},
    {"n": 2, "terms": [], "comment": "an unknown top-level key"},
    {"n": 2, "terms": [{**A01, "weight": 1}]},
]


@pytest.mark.parametrize("doc", SCHEMA_REFUSED_DOCUMENTS)
def test_documents_outside_the_schema_are_refused(doc):
    with pytest.raises(ParseError):
        parse_class(doc)
    code, out = run_command(["cone", "--class", json.dumps(doc), "--test", "nef",
                             "--format", "json"])
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("terms", [[], [A01]])
@pytest.mark.parametrize("n", [0, -1])
def test_ambient_below_one_is_a_parse_error(n, terms):
    # The schema's minimum is 1: the parser refuses before reading a term.
    doc = {"n": n, "terms": terms}
    message = f"class document field 'n' must be an integer >= 1, got {n}"
    for source in (doc, json.dumps(doc)):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_class(source)
    code, out = run_command(["cone", "--class", json.dumps(doc), "--test", "nef",
                             "--format", "json"])
    assert code == EXIT_VALIDATION
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_class_documents_parse_exactly_when_the_schema_validates():
    # In-range indices only: the schema cannot see a family's index range,
    # which the parser checks (InvalidIndex).  Integral floats are the one
    # deliberate difference, tested below.
    corpus = [{"n": 2, "terms": []}, {"n": 2, "terms": [A01]}]
    corpus += [{"n": 2, "basis": b, "terms": [A01]} for b in ("BB", "ES", "MS", "mixed")]
    corpus += [{"n": 2, "basis": "ES", "terms": [{**A01, "family": "B'", "i": 1}]}]
    corpus += SCHEMA_REFUSED_DOCUMENTS
    corpus += [{"n": 2, "basis": b, "terms": []} for b in ("", "ms", 3, ["MS"], {"MS": 1})]
    corpus += [{"n": n, "terms": []} for n in (0, -1, "2", True, None, [2])]
    corpus += [{"terms": []}, {"n": 2}, {"n": 2, "terms": {}}, {"n": 2, "terms": None}]
    corpus += [{"n": 2, "terms": [A01], "": 1}, {"basis": "MS", "n": 2, "terms": [], "x": None}]
    corpus += [{"n": 2, "terms": [{k: v for k, v in A01.items() if k != key}]} for key in A01]
    corpus += [{"n": 2, "terms": [{**A01, key: value}]}
               for key, value in (("family", "Q"), ("family", None), ("i", "0"), ("j", True),
                                  ("i", -1), ("extra", "1"), ("Coeff", "1"))]
    corpus += [{"n": 2, "terms": [record]} for record in (None, [], "A", 1)]
    corpus += [[], "doc", None, 2]
    validator = jsonschema.Draft202012Validator(CLASS_SCHEMA)
    for doc in corpus:
        try:
            parse_class(doc)
            parsed = True
        except ValidationError:
            parsed = False
        assert parsed == validator.is_valid(doc), doc


def test_symbol_documents_parse_exactly_when_the_schema_validates():
    # In-range indices only, as for class documents; integral floats are the
    # one deliberate difference.
    a01 = {"family": "A", "i": 0, "j": 1}
    corpus = [a01, {"family": "B'", "i": 1, "j": 1}, {"j": 1, "i": 1, "family": "C"}]
    corpus += [{**a01, key: value} for key, value in (
        ("n", 5), ("coeff", "1"), ("", 1), ("I", 0), ("family", "Q"), ("family", "a"),
        ("family", None), ("i", "0"), ("i", True), ("j", None), ("j", [1]))]
    corpus += [{k: v for k, v in a01.items() if k != key} for key in a01]
    corpus += [{}, [], "A", None, 2, [a01]]
    validator = jsonschema.Draft202012Validator(SYMBOL_SCHEMA)
    for doc in corpus:
        try:
            parse_symbol(doc, 2)
            parsed = True
        except ValidationError:
            parsed = False
        assert parsed == validator.is_valid(doc), doc
    float_doc = {**a01, "j": 1.0}
    assert validator.is_valid(float_doc)
    with pytest.raises(ParseError, match="must be an integer"):
        parse_symbol(float_doc, 2)


@pytest.mark.parametrize("doc", [
    {"n": 2.0, "terms": []},
    {"n": 2, "terms": [{**A01, "i": 0.0}]},
    {"n": 2, "terms": [{**A01, "j": 1.0}]},
])
def test_integral_floats_are_refused_though_the_schema_accepts_them(doc):
    # JSON cannot tell 2.0 from 2.0000000000000001 once decoded, so the
    # parser keeps integers exact by refusing every float.
    assert jsonschema.Draft202012Validator(CLASS_SCHEMA).is_valid(doc)
    with pytest.raises(ParseError, match="must be an integer"):
        parse_class(doc)
    with pytest.raises(ParseError, match="must be an integer"):
        parse_class(json.dumps(doc))


@pytest.mark.parametrize("coeff", [3, -1, 0])
def test_json_integer_coefficients_are_refused(coeff):
    # The schema asks for strings, so a JSON integer is not a coefficient.
    with pytest.raises(ParseError, match="not an exact rational string"):
        parse_class(one_term_document(coeff))
    with pytest.raises(ParseError, match="not an exact rational string"):
        parse_class(json.dumps(one_term_document(coeff)))
    code, _ = run_command(
        ["cone", "--class", json.dumps(one_term_document(coeff)), "--test", "nef"]
    )
    assert code == EXIT_VALIDATION
    assert parse_class(one_term_document(str(coeff))).items() == (
        () if coeff == 0 else ((BasisSymbol("A", 0, 1, 2), Fraction(coeff)),)
    )


def test_overlong_coefficient_names_digit_count_and_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("integer string conversion is unlimited in this interpreter")
    too_long = "7" * (limit + 1)
    for coeff in (too_long, "-" + too_long, "1/" + too_long):
        with pytest.raises(ParseError, match=f"{limit + 1}-digit.*limit of {limit}"):
            parse_class(one_term_document(coeff))
    assert parse_class(one_term_document("7" * limit)).items()[0][1] == int("7" * limit)


def test_a_json_integer_over_the_digit_limit_is_a_parse_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("integer string conversion is unlimited in this interpreter")
    big = "9" * (limit + 1)
    message = (f"invalid JSON: a number has more digits than Python's limit of {limit}"
               " for converting a string to int")
    symbol = f'{{"family": "A", "i": {big}, "j": 1}}'
    for parse in (lambda: parse_class(f'{{"n": {big}, "terms": []}}'),
                  lambda: parse_class(f'{{"n": 2, "terms": [{symbol[:-1]}, "coeff": "1"}}]}}'),
                  lambda: parse_symbol(symbol, 2)):
        with pytest.raises(ParseError) as refused:
            parse()
        assert str(refused.value) == message
    # run_command reads with its caller's limit, and leaves it as it was.
    argv = ["pair", "--n", "2", "--x", symbol, "--y", '{"family": "A", "i": 0, "j": 1}']
    assert run_command(argv) == (EXIT_VALIDATION, f"error: {message}")
    assert sys.get_int_max_str_digits() == limit
