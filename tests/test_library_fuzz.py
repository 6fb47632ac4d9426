"""Every public call refuses bad input with a ``ValidationError`` or an
``UnsupportedError``, never with a bare Python error.

Each callable of ``hilb2.__all__`` runs on seeded argument lists, except the
exception classes and the three enums, whose call is Python's own protocol.
A list starts from valid arguments; then none, one or two of its slots take
a shape from a fixed pool: ``None``, a ``bool``, a ``float``, a ``str``, a
negative int, a plain tuple of a value's fields, nested tuples, a value of
another type, a symbol with an index over the digit limit below, a class or
symbol on another ambient, a class whose coefficients are over that limit, or
the slot's own list or document with one entry replaced.  A call may return
anything or raise one of the two error families; any other exception fails
the test.

Two more tests require a refusal where the fuzz would pass a misread: a
float, ``bool``, ``None``, text or bytes in an integer slot, and text or bytes
as a degree list.

Large ints go only into the slots that ``BIG`` lists: slots that refuse them,
or whose cost does not grow with them.  Two of them are past Python's
default limit of 4,300 digits for int <-> str conversion, and the fuzz runs
at that limit, so a message that echoes one must not convert it.  Secant
degree lists stay at 16 or fewer entries, because the closed route visits
all ``2^r`` subsets of the ``r`` degrees (ROADMAP item 2).
"""

import json
import random
import sys
from enum import Enum
from fractions import Fraction

import pytest

import hilb2
from hilb2 import (
    BasisId,
    BasisSymbol,
    Family,
    GradedClass,
    Hilb2Error,
    IdealKind,
    InvalidGrading,
    InvalidIndex,
    InvalidInput,
    MixedAmbient,
    MonomialIdealDescriptor,
    MonomialSpec,
    NotHomogeneous,
    SecantProblem,
    UnsupportedError,
    UnsupportedFamilyPair,
    ValidationError,
    chow_rank,
    dual_generator,
    emit_class,
    enumerate_basis,
    enumerate_fixed_points,
    eval_monomial,
    intersection_matrix,
    is_nef,
    mul_bprime_top,
    mul_c_top,
    pair_classes,
    parse_class,
    secant_degree_mu_closed,
    to_ms,
)
from hilb2.chow import shown
from hilb2.serialize import symbol_to_doc

TRIALS = 80
MAX_DEGREES = 16  # the closed secant route is exponential in the degree count


def _n(rng, lo=1, hi=6):
    return rng.randint(lo, hi)


def _symbol(rng, n, basis=None):
    return rng.choice(enumerate_basis(n, basis or rng.choice(("BB", "ES", "MS"))))


def _coefficient(rng):
    return rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                       f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"])


def _homogeneous(rng, n, basis, dim):
    symbols = enumerate_basis(n, basis, dim=dim)
    chosen = rng.sample(symbols, rng.randint(1, len(symbols)))
    return GradedClass(n, [(s, _coefficient(rng)) for s in chosen])


def _any_class(rng, n):
    return GradedClass(n, [(_symbol(rng, n), _coefficient(rng)) for _ in range(rng.randint(0, 4))])


def _secant_problem(rng):
    n = _n(rng, 3, 10)
    m = rng.randint(0, (n - 2) // 2)  # 2m + 1 < n
    return SecantProblem(n, [rng.randint(1, 5) for _ in range(min(n - m, MAX_DEGREES))])


def _cone_args(rng):
    n = _n(rng)
    X = _homogeneous(rng, n, "MS", rng.randint(0, 2 * n))
    return [X, rng.choice([None, X.dimension(), X.codimension()])]


def _pair_args(rng):
    n = _n(rng)
    k = rng.randint(0, 2 * n)
    X = _homogeneous(rng, n, rng.choice(("ES", "MS")), k)
    return [X, _homogeneous(rng, n, "MS", 2 * n - k)]


def _grading_kwargs(rng, n):
    return rng.choice([{}, {"dim": rng.randint(0, 2 * n)}, {"codim": rng.randint(0, 2 * n)}])


def _class_source(rng):
    doc = emit_class(_any_class(rng, _n(rng)))
    return [rng.choice([doc, json.dumps(doc)])]


def _symbol_source(rng):
    n = _n(rng)
    doc = symbol_to_doc(_symbol(rng, n))
    return [rng.choice([doc, json.dumps(doc)]), n]


def _monomial_spec(rng):
    n = _n(rng)
    a = rng.randint(1, n)
    return [n, a, rng.randint(0, n - a)]


def _pair_symbols_args(rng):
    x = _symbol(rng, _n(rng), "ES")
    return [x, rng.choice(enumerate_basis(x.n, "MS", codim=x.dimension))]


def _enumerate_basis(rng):
    n = _n(rng)
    return [n, rng.choice(("BB", "ES", "MS"))], _grading_kwargs(rng, n)


def _at_n(make):
    """Valid arguments built by ``make(rng, n)`` at a seeded ambient ``n``."""
    return lambda rng: make(rng, _n(rng))


# Public callable -> seeded valid arguments, as a list or (list, keyword dict).
VALID = {
    "BasisSymbol": lambda rng: list(_symbol(rng, _n(rng))),
    "GradedClass": lambda rng: list(_fields(_any_class(rng, _n(rng)))),
    "IntersectionMatrix": lambda rng: list(intersection_matrix(2, rng.randint(0, 4))),
    "MonomialIdealDescriptor": lambda rng: list(rng.choice(enumerate_fixed_points(_n(rng)))),
    "MonomialSpec": _monomial_spec,
    "SecantProblem": lambda rng: list(_secant_problem(rng)),
    "bb_cell_of": lambda rng: [rng.choice(enumerate_fixed_points(_n(rng)))],
    "bprime_top_power": _at_n(lambda rng, n: [n, rng.randint(1, n)]),
    "chern_taut": lambda rng: [_n(rng), rng.randint(1, 5)],
    "chow_rank": _at_n(lambda rng, n: [n, rng.randint(0, 2 * n)]),
    "dual_generator": lambda rng: [_symbol(rng, _n(rng), "ES")],
    "effectivity_pairings": lambda rng: _cone_args(rng)[:1],
    "emit_class": lambda rng: [_any_class(rng, _n(rng))],
    "enumerate_basis": _enumerate_basis,
    "enumerate_fixed_points": lambda rng: [_n(rng)],
    "eval_monomial": lambda rng: [MonomialSpec(*_monomial_spec(rng))],
    "intersection_matrix": _at_n(lambda rng, n: [n, rng.randint(0, 2 * n), "ES", "MS"]),
    "is_effective": _cone_args,
    "is_nef": _cone_args,
    "mul_bprime_top": lambda rng: [_any_class(rng, _n(rng))],
    "mul_c_top": lambda rng: [_any_class(rng, _n(rng))],
    "pair_classes": _pair_args,
    "pair_symbols": _pair_symbols_args,
    "parse_class": _class_source,
    "parse_symbol": _symbol_source,
    "secant_degree_mu_closed": lambda rng: [_secant_problem(rng)],
    "secant_degree_mu_intersection": lambda rng: [_secant_problem(rng)],
    "secant_oracle": lambda rng: list(_secant_problem(rng)),
    "to_ms": lambda rng: [_symbol(rng, _n(rng))],
}

# Callable -> the slots (positions or keywords) that may take a large int.
BIG = {
    "BasisSymbol": {1, 2, 3},
    "GradedClass": {0},
    "IntersectionMatrix": set(range(3)),
    "MonomialIdealDescriptor": {1, 2, 3},
    "MonomialSpec": {0, 1, 2},
    "SecantProblem": {0},
    "bprime_top_power": {1},  # n stays small: the closed form has about k terms
    "chern_taut": {0, 1},
    "chow_rank": {0, 1},
    "enumerate_basis": {"dim", "codim"},
    "intersection_matrix": {1},
    "is_effective": {1},
    "is_nef": {1},
    "parse_symbol": {1},
    "secant_oracle": {0},
}
LARGE = (10 ** 30, 2 ** 64, 10 ** 5000, -(10 ** 5000))

OTHER_TYPES = (
    BasisSymbol("A", 0, 1, 2), GradedClass.from_symbol(BasisSymbol("C", 1, 1, 3)),
    MonomialSpec(3, 1, 1), SecantProblem(5, (2, 2, 2, 2)), MonomialIdealDescriptor("J", 0, 2, 2),
    Family.A, BasisId.MS, IdealKind.K, {"n": 2, "terms": []}, [], {},
)
SHAPES = (
    None, True, False, 1.5, 2.0, float("nan"), "x", "2", "", "222", b"222", "MS", "A'",
    -1, -3, 0, -(10 ** 40), (), (1, (2, (3,))), ((), ((),)), *OTHER_TYPES,
    BasisSymbol("A", 0, 10 ** 5000, 10 ** 5000),  # a symbol no message may write in full
)


def _fields(value):
    """A plain tuple of a value's fields: what a value class holds, or a class's ``n``
    and terms; None for anything else."""
    if isinstance(value, GradedClass):
        return (value.n, value.items())
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        return tuple(value)
    return None


def _shape(rng, value, big):
    """A replacement for a slot holding ``value``."""
    if type(value) in (list, tuple, dict) and value and rng.random() < 0.4:
        return _inner(rng, value)
    pool = list(SHAPES) + (list(LARGE) if big else [])
    fields = _fields(value)
    if fields is not None:
        pool += [fields, (fields,)]
    if isinstance(value, (GradedClass, BasisSymbol)):  # the same kind of value, another ambient
        pool.append(rng.choice([_any_class, _symbol])(rng, value.n + rng.randint(1, 3)))
    if isinstance(value, GradedClass) and not value.is_zero:  # coefficients over the digit limit
        pool.append(10 ** 5000 * value)
    return rng.choice(pool)


def _inner(rng, value):
    """``value``, a list or document, with one entry (or a pair's half) replaced."""
    if type(value) is dict:
        key = rng.choice(sorted(value, key=str))
        replaced = _inner(rng, value[key]) if rng.random() < 0.5 else _shape(rng, None, False)
        return {**value, key: replaced}
    if type(value) in (list, tuple) and value:
        out = list(value)
        pos = rng.randrange(len(out))
        out[pos] = _inner(rng, out[pos]) if rng.random() < 0.5 else _shape(rng, out[pos], False)
        return type(value)(out)
    return _shape(rng, value, False)


def _calls(name):
    """Seeded ``(args, kwargs)`` for one callable: valid first, then with slots replaced."""
    rng = random.Random(name)
    for trial in range(TRIALS):
        made = VALID[name](rng)
        args, kwargs = made if isinstance(made, tuple) else (made, {})
        slots = list(range(len(args))) + list(kwargs)
        for slot in rng.sample(slots, min(len(slots), 0 if trial == 0 else rng.choice((1, 1, 2)))):
            big = slot in BIG.get(name, ())
            if isinstance(slot, int):
                args[slot] = _shape(rng, args[slot], big)
            else:
                kwargs[slot] = _shape(rng, kwargs[slot], big)
        yield args, kwargs


def _public_callables():
    for name in hilb2.__all__:
        value = getattr(hilb2, name)
        if isinstance(value, type) and issubclass(value, (Hilb2Error, Enum)):
            continue
        yield name


def test_the_fuzz_covers_every_public_callable():
    assert sorted(VALID) == sorted(_public_callables())
    assert len(VALID) == 29


@pytest.fixture
def default_digit_limit():
    """Python's default cap on int <-> str conversion, whatever the process had."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(getattr(sys.int_info, "default_max_str_digits", 0))
    yield
    set_limit(limit)


def test_every_public_call_raises_only_the_package_errors(default_digit_limit):
    escaped = []
    for name in VALID:
        call = getattr(hilb2, name)
        for args, kwargs in _calls(name):
            try:
                call(*args, **kwargs)
            except (ValidationError, UnsupportedError):
                pass
            except Exception as exc:  # any other error is a finding
                written = [*map(shown, args), *(f"{k}={shown(v)}" for k, v in kwargs.items())]
                escaped.append(f"{name}({', '.join(written)}): {type(exc).__name__}: {exc}")
    assert escaped == [], "\n".join(escaped[:10])


def test_a_message_names_an_int_over_the_digit_limit(default_digit_limit):
    # Written in full, such an int would make the message writer raise ValueError.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("integer string conversion is unlimited in this interpreter")
    big, over = 10 ** 5000, f"<int over {limit} digits>"
    X = GradedClass.from_symbol(BasisSymbol("A", 0, big, big))
    X_shown = f"GradedClass(n={over}, A_{{0,{over}}})"
    cases = [
        (lambda: chow_rank(2, big), InvalidGrading, f"codimension {over} outside [0, 4]"),
        (lambda: chow_rank(-big, 0), InvalidInput,
         f"ambient dimension must be an integer >= 1, got <negative int over {limit} digits>"),
        (lambda: BasisSymbol("A", big, 1, 2), InvalidIndex,
         f"A_{{{over},1}} is not a valid class on P^2[2]: family requires 0 <= i < j <= n"),
        (lambda: secant_degree_mu_closed(SecantProblem(big, [2])), InvalidInput,
         f"need 2m+1 < n for the secant degree; got m={over}, n={over}"),
        (lambda: GradedClass(big, [(BasisSymbol("A", 0, 1, 2), 1)]), MixedAmbient,
         f"symbol A_{{0,1}} lives on P^2[2], class on P^{over}[2]"),
        (lambda: dual_generator(BasisSymbol("A", 0, big, big)), UnsupportedFamilyPair,
         f"A_{{0,{over}}} is not an ES basis symbol"),
        (lambda: GradedClass(big, [(BasisSymbol("A", 0, big, big), 1),
                                   (BasisSymbol("A", 1, big, big), 1)]).dimension(),
         NotHomogeneous, f"class mixes dimensions [{over}, {over}]"),
        (lambda: GradedClass(2, [(BasisSymbol("A", 0, big, big), 1)]), MixedAmbient,
         f"symbol A_{{0,{over}}} lives on P^{over}[2], class on P^2[2]"),
        # the int inside a class, a tuple, a list, a dict or a Fraction that a message writes
        (lambda: to_ms(X), InvalidInput, f"to_ms takes a BasisSymbol, got {X_shown}"),
        (lambda: eval_monomial(X), InvalidInput,
         f"eval_monomial takes a MonomialSpec, got {X_shown}"),
        (lambda: pair_classes(X, 3), InvalidInput,
         f"pair_classes takes two GradedClass operands, got {X_shown} and 3"),
        (lambda: BasisSymbol("A", 0, 1, X), InvalidIndex,
         f"ambient dimension must be an integer >= 1, got {X_shown}"),
        (lambda: is_nef((big,)), InvalidInput, f"is_nef takes a GradedClass, got ({over},)"),
        (lambda: SecantProblem(4, [Fraction(big, 7)]), InvalidInput,
         f"hypersurface degree must be an integer >= 1, got Fraction({over}, 7)"),
        (lambda: GradedClass(2, [(X, 1)]), InvalidInput,
         f"term key {X_shown} is not a BasisSymbol"),
        (lambda: emit_class(GradedClass(2, [(BasisSymbol("A", 0, 1, 2), Fraction(1, big))])),
         InvalidInput, f"emit_class cannot write Fraction(1, {over}) of A_{{0,1}}: over Python's "
         f"limit of {limit} digits for int to text"),
        (lambda: GradedClass(2, [(BasisSymbol("A", 0, 1, 2), [big])]), InvalidInput,
         f"list coefficient [{over}] rejected; use Fraction, int or 'p/q'"),
        (lambda: GradedClass(2, [(BasisSymbol("A", 0, 1, 2), {"c": (big, -big)})]), InvalidInput,
         f"dict coefficient {{'c': ({over}, <negative int over {limit} digits>)}} rejected; "
         "use Fraction, int or 'p/q'"),
    ]
    for call, error, message in cases:
        with pytest.raises(error) as refused:
            call()
        assert str(refused.value) == message
    # A symbol with an index over the limit, and an A' term at such an n: each has a rule.
    def one(family, i, j, n):
        return GradedClass.from_symbol(BasisSymbol(family, i, j, n))

    returned = [
        (lambda: to_ms(BasisSymbol("A'", 1, big, big)),
         one("A", 1, big, big) - one("C", 1, big, big)),
        (lambda: mul_c_top(one("A'", 1, 2, big)), one("A'", 0, 1, big)),
        (lambda: mul_bprime_top(one("A'", 1, 3, big)),
         one("B'", 0, 2, big) - one("A", 0, 2, big) - 2 * one("C", 1, 1, big)),
    ]
    for call, value in returned:
        assert call() == value
    # The same int where another type belongs: each message that echoes it names it.
    term = {"family": "A", "i": 0, "j": 1, "coeff": big}
    wrong_typed = [
        lambda: SecantProblem(4, big), lambda: BasisSymbol(big, 0, 1, 2),
        lambda: BasisSymbol("A", big, 1.5, 2), lambda: GradedClass(2, [(big, 1)]),
        lambda: enumerate_basis(2, big), lambda: eval_monomial(big),
        lambda: pair_classes(big, big), lambda: parse_class(big),
        lambda: parse_class({"n": 2, "basis": big, "terms": []}),
        lambda: parse_class({"n": 2, "terms": [term]}),
    ]
    for call in wrong_typed:
        with pytest.raises(ValidationError, match=over):
            call()


# Callable -> its integer slots, positions or keywords.  The fuzz above passes a call
# that accepts a malformed value, so it cannot see a silent misread; the two tests
# below require each of these shapes, never valid there, to be refused.
INTEGER_SLOTS = {
    "BasisSymbol": {1, 2, 3},
    "GradedClass": {0},
    "MonomialIdealDescriptor": {1, 2, 3},
    "MonomialSpec": {0, 1, 2},
    "SecantProblem": {0},
    "bprime_top_power": {0, 1},
    "chern_taut": {0, 1},
    "chow_rank": {0, 1},
    "enumerate_basis": {0, "dim", "codim"},
    "enumerate_fixed_points": {0},
    "intersection_matrix": {0, 1},
    "is_effective": {1},
    "is_nef": {1},
    "parse_symbol": {1},
    "secant_oracle": {0},
}
OPTIONAL = {("enumerate_basis", "dim"), ("enumerate_basis", "codim"), ("is_effective", 1),
            ("is_nef", 1)}  # None is the default there
NOT_INTEGERS = (1.5, 2.0, "2", b"2", True, None)
NOT_DEGREE_LISTS = ("222", b"222", bytearray(b"222"))


def _misreads(name, slots, shapes):
    """The calls of ``name`` that accept a shape in a slot, from valid arguments
    (a keyword slot alone among the keywords)."""
    call = getattr(hilb2, name)
    made = VALID[name](random.Random(name))
    args, kwargs = made if isinstance(made, tuple) else (made, {})
    call(*args, **kwargs)  # the arguments around each shape are valid
    for slot in slots:
        for shape in shapes:
            if shape is None and (name, slot) in OPTIONAL:
                continue
            if isinstance(slot, int):
                bad = (args[:slot] + [shape] + args[slot + 1:], kwargs)
            else:
                bad = (args, {slot: shape})
            try:
                call(*bad[0], **bad[1])
            except ValidationError:
                continue
            yield f"{name}(*{bad[0]!r}, **{bad[1]!r})"


def test_a_non_integer_in_an_integer_slot_is_refused():
    assert all(BIG[name] <= INTEGER_SLOTS[name] for name in BIG if name != "IntersectionMatrix")
    accepted = [call for name, slots in INTEGER_SLOTS.items()
                for call in _misreads(name, slots, NOT_INTEGERS)]
    assert accepted == [], accepted


def test_text_or_bytes_as_a_degree_list_is_refused():
    accepted = [call for name in ("SecantProblem", "secant_oracle")
                for call in _misreads(name, {1}, NOT_DEGREE_LISTS)]
    assert accepted == [], accepted
