"""Each piece of class work is done once.

Two kinds of tests.  Equivalence tests run the one-pass code against the
code it replaced, kept here as the oracle: candidate filtering for
``enumerate_basis``, ``Fraction(str)`` for coefficient parsing, and the
dual generator (a family swap, stated here) and ``pair_symbols`` for the
ES x MS matrix.  Work-count
tests count calls, and time nothing: each fails on the code they replaced.
"""

import json
import random
import sys
from fractions import Fraction
from types import MappingProxyType

import pytest

import hilb2.chow as chow
import hilb2.pairing as pairing
from hilb2 import (
    BasisId,
    BasisSymbol,
    GradedClass,
    InvalidIndex,
    InvalidInput,
    ParseError,
    enumerate_basis,
    intersection_matrix,
    pair_symbols,
    parse_class,
)
from hilb2.chow import as_rational, in_range


def candidate_filter_enumeration(n, basis, dim=None, codim=None):
    """The enumeration that tests every candidate ``(i, k - i)`` with ``in_range``."""
    if dim is None and codim is None:
        pairs = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]
    else:
        k = dim if dim is not None else 2 * n - codim
        pairs = [(i, k - i) for i in range(k // 2 + 1)]
        if dim is None:
            pairs.reverse()
    return [
        BasisSymbol(family, i, j, n)
        for family in BasisId(basis).families
        for i, j in pairs
        if in_range(family, i, j, n)
    ]


def every_enumeration(n):
    """``(basis, kwargs)`` for every basis and every dim, every codim and all."""
    for basis in ("BB", "ES", "MS"):
        yield basis, {}
        for k in range(2 * n + 1):
            yield basis, {"dim": k}
            yield basis, {"codim": k}


def test_enumerate_basis_matches_the_candidate_filter():
    for n in range(1, 13):
        for basis, kwargs in every_enumeration(n):
            got = enumerate_basis(n, basis, **kwargs)
            assert got == candidate_filter_enumeration(n, basis, **kwargs), (n, basis, kwargs)
            assert all(type(s) is BasisSymbol for s in got)


def test_enumerate_basis_builds_only_in_range_symbols(monkeypatch):
    calls = []

    def counting(family, i, j, n):
        calls.append((family, i, j, n))
        return in_range(family, i, j, n)

    monkeypatch.setattr(chow, "in_range", counting)
    for n in (1, 2, 7):
        for basis, kwargs in every_enumeration(n):
            calls.clear()
            got = enumerate_basis(n, basis, **kwargs)
            assert len(calls) == len(got), (n, basis, kwargs)  # one test per symbol built


ACCEPTED_COEFFICIENTS = ["0", "-0", "03", "-7/2", "1/2", "12/35", "-1", "00/10", "-000/7", "6/4"]


def test_parse_rational_matches_fraction_of_the_string():
    rng = random.Random(11)
    corpus = list(ACCEPTED_COEFFICIENTS)
    for _ in range(300):
        p = str(rng.randint(0, 10 ** rng.randint(1, 40))).zfill(rng.randint(1, 3))
        q = str(rng.randint(1, 10 ** rng.randint(1, 40)))
        corpus.append(rng.choice(["", "-"]) + p + rng.choice(["", "/" + q]))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:  # parts of exactly the digit limit
        part = "7" * limit
        corpus += [part, "-" + part, "1/" + part, part + "/" + part, "-" + part + "/3"]
    for text in corpus:
        got = as_rational(text, ParseError)
        assert type(got) is Fraction
        assert got == Fraction(text), text


def test_parse_class_passes_no_string_to_fraction(monkeypatch):
    seen = []
    real = Fraction.__new__

    def spy(cls, *args, **kwargs):
        seen.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", spy)
    doc = {"n": 4, "terms": [
        {"family": "A", "i": 0, "j": 4, "coeff": "-7/2"},
        {"family": "B'", "i": 1, "j": 3, "coeff": "12"},
        {"family": "B'", "i": 2, "j": 2, "coeff": "0"},
        {"family": "C", "i": 1, "j": 3, "coeff": "00/10"},
    ]}
    X = parse_class(json.dumps(doc))
    assert [str(c) for _, c in X.items()] == ["-7/2", "12"]
    assert len(seen) == 4
    assert not any(isinstance(arg, str) for args in seen for arg in args)


def dual_generator(sym):
    """The MS symbol an ES symbol pairs with: the family swap A' -> A, B -> C,
    C -> B' at the complementary indices ``(n - j, n - i)``."""
    family = {"A'": "A", "B": "C", "C": "B'"}[sym.family.value]
    return BasisSymbol(family, sym.n - sym.j, sym.n - sym.i, sym.n)


def test_es_ms_matrix_matches_dual_generator_and_pair_symbols():
    for n in range(1, 9):
        for k in range(2 * n + 1):
            M = intersection_matrix(n, k, "ES", "MS")
            assert M.col_symbols == tuple(dual_generator(r) for r in M.row_symbols)
            assert all(type(c) is BasisSymbol for c in M.col_symbols)
            for r, (x, row) in enumerate(zip(M.row_symbols, M.entries)):
                assert row[r] == pair_symbols(x, M.col_symbols[r])
                assert all(v == 0 for c, v in enumerate(row) if c != r)


def test_es_ms_matrix_applies_the_rule_once_per_row(monkeypatch):
    calls = []
    real = pairing._duals

    def counting(x, *diagonal):
        calls.append(x)
        return real(x, *diagonal)

    monkeypatch.setattr(pairing, "_duals", counting)
    for k in range(2 * 5 + 1):
        calls.clear()
        M = intersection_matrix(5, k, "ES", "MS")
        assert calls == list(M.row_symbols)


# GradedClass inputs where an exact-class fast path could behave differently
# from the isinstance tests: each keeps its result, stored type and message.

class Int(int):
    pass


class Rational(Fraction):
    pass


A01 = BasisSymbol("A", 0, 1, 2)
A02 = BasisSymbol("A", 0, 2, 2)


def test_graded_class_int_subclass_coefficient_is_stored_as_a_fraction():
    X = GradedClass(2, [(A01, Int(3)), (A02, Int(2)), (A02, Int(5))])
    assert X.items() == ((A01, Fraction(3)), (A02, Fraction(7)))
    assert [type(c) for _, c in X.items()] == [Fraction, Fraction]


def test_graded_class_fraction_subclass_coefficient_keeps_its_type():
    X = GradedClass(2, [(A01, Rational(1, 3))])
    assert X.items() == ((A01, Fraction(1, 3)),)
    assert type(X.items()[0][1]) is Rational
    Y = GradedClass(2, [(A01, Rational(1, 3)), (A01, Fraction(1, 3))])  # a sum is a Fraction
    assert Y.items() == ((A01, Fraction(2, 3)),) and type(Y.items()[0][1]) is Fraction


def test_graded_class_reads_any_mapping():
    terms = {A02: Fraction(1, 2), A01: 3}
    X = GradedClass(2, MappingProxyType(terms))
    assert X == GradedClass(2, terms) == GradedClass(2, list(terms.items()))
    assert X.items() == ((A01, Fraction(3)), (A02, Fraction(1, 2)))


@pytest.mark.parametrize("terms, message", [
    ([(A01, True)], "bool coefficient True rejected; use Fraction, int or 'p/q'"),
    ([(A01, False)], "bool coefficient False rejected; use Fraction, int or 'p/q'"),
    ([(A01, 0.5)], "float coefficient 0.5 rejected; use Fraction, int or 'p/q'"),
    ([(("A", 0, 1, 2), 1)], "term key ('A', 0, 1, 2) is not a BasisSymbol"),
    ([(A01, 1), ("A_{0,1}", 1)], "term key 'A_{0,1}' is not a BasisSymbol"),
])
def test_graded_class_refusals_keep_type_and_message(terms, message):
    with pytest.raises(InvalidInput) as info:
        GradedClass(2, terms)
    assert type(info.value) is InvalidInput
    assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    (("A", "x", 1, 0), "ambient dimension must be an integer >= 1, got 0"),
    (("A", 0, 1, True), "ambient dimension must be an integer >= 1, got True"),
    (("A", 0, 1, 2.0), "ambient dimension must be an integer >= 1, got 2.0"),
    (("A", 0.0, 1, 2), "indices must be integers, got (0.0, 1)"),
    (("A", 0, True, 2), "indices must be integers, got (0, True)"),
    (("A", 1, 1, 2), "A_{1,1} is not a valid class on P^2[2]: family requires 0 <= i < j <= n"),
    (("A", 0, 1, -3), "ambient dimension must be an integer >= 1, got -3"),
])
def test_symbol_checks_keep_their_order_and_messages(args, message):
    with pytest.raises(InvalidIndex) as info:
        BasisSymbol(*args)
    assert str(info.value) == message


def test_symbol_accepts_int_subclass_arguments():
    assert BasisSymbol("A", Int(0), Int(1), Int(2)) == BasisSymbol("A", 0, 1, 2)
