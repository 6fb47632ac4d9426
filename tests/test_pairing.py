import csv
import random
from fractions import Fraction

import pytest

from hilb2 import (
    BasisSymbol,
    Family,
    GradedClass,
    Hilb2Error,
    InvalidGrading,
    InvalidInput,
    MixedAmbient,
    NotComplementary,
    NotHomogeneous,
    UnsupportedFamilyPair,
    effectivity_pairings,
    enumerate_basis,
    intersection_matrix,
    is_effective,
    is_nef,
    pair_classes,
    pair_symbols,
    to_ms,
)
from hilb2.cli import run_command

S = BasisSymbol


def cls(*pairs):
    return GradedClass(pairs[0][1].n, [(sym, c) for c, sym in pairs])


# Independent encoding of the complementary-codimension value tables, used
# as the oracle for the pattern checks below.
NONZERO_VALUE = {
    ("A", "A"): 1,
    ("A", "B'"): 1,
    ("B'", "A"): 1,
    ("B'", "C"): 1,
    ("C", "B'"): 1,
    ("A'", "A"): 1,
    ("B", "C"): 2,
}
ZERO_BLOCKS = {
    ("A", "C"),
    ("C", "A"),
    ("C", "C"),
    ("A'", "B'"),
    ("A'", "C"),
    ("B", "A"),
    ("B", "B'"),
}


# Independent encoding of the basis change to MS coordinates, for a second
# factor of the other two families: A'_{i,j} = A_{i,j} - C_{i,j} (no C term at
# i = 0), and B_{i,j} = 2B'_{i,j} - 2A_{i,j}, B_{i,i} = 2B'_{i,i} - 4C_{i,i},
# B_{0,0} = B'_{0,0} (the point class).
def own_ms(y):
    """``[(MS symbol, coefficient)]`` for a symbol of any family, from this table."""
    f, i, j, n = y.family.value, y.i, y.j, y.n
    if f == "A'":
        return [(S("A", i, j, n), 1)] + ([(S("C", i, j, n), -1)] if i > 0 else [])
    if f != "B":
        return [(y, 1)]
    if i == j == 0:
        return [(S("B'", 0, 0, n), 1)]
    if i == j:
        return [(S("B'", i, i, n), 2), (S("C", i, i, n), -4)]
    return [(S("B'", i, j, n), 2), (S("A", i, j, n), -2)]


def expected_pair(x, y):
    """The table's value for any two symbols: y read in MS coordinates by :func:`own_ms`."""
    return sum(c * expected_value(x, m) for m, c in own_ms(y))


def expected_value(x, y):
    if (y.i, y.j) != (x.n - x.j, x.n - x.i):
        return 0
    key = (x.family.value, y.family.value)
    if key == ("B'", "B'"):
        return 2 if x.i == x.j else 1
    if key == ("B", "C") and (x.i, x.j) == (0, 0):
        return 1  # the point class B_{0,0} against the fundamental class C_{n,n}
    if key in ZERO_BLOCKS:
        return 0
    return NONZERO_VALUE[key]


def test_pair_symbols_examples():
    for n in (2, 3, 5):
        assert pair_symbols(S("A", 0, 1, n), S("A", n - 1, n, n)) == 1
        assert pair_symbols(S("B'", 1, 1, n), S("B'", n - 1, n - 1, n)) == 2
    for n in (3, 4, 6):
        assert pair_symbols(S("B", 1, 2, n), S("C", n - 2, n - 1, n)) == 2
    # A'.B' vanishes in every complementary-codimension instance
    for n in (2, 3, 4):
        for x in enumerate_basis(n, "ES"):
            if x.family.value != "A'":
                continue
            for y in enumerate_basis(n, "MS", codim=2 * n - x.codimension):
                if y.family.value == "B'":
                    assert pair_symbols(x, y) == 0
    # An A' or B second factor is read in MS coordinates: B_{1,1} = 2B'_{1,1} - 4C_{1,1}
    # and A'_{0,2} = A_{0,2}, in either order.
    assert pair_symbols(S("B", 1, 1, 2), S("B", 1, 1, 2)) == -8  # 2 * -4, from B.C = 2
    assert pair_symbols(S("A'", 0, 2, 2), S("B", 1, 1, 2)) == 0
    assert pair_symbols(S("B", 1, 1, 2), S("A'", 0, 2, 2)) == 0
    assert pair_symbols(S("A", 0, 2, 2), S("A'", 0, 2, 2)) == 1 == pair_symbols(
        S("A'", 0, 2, 2), S("A", 0, 2, 2))


def test_pair_symbols_configurable_diagonal():
    # The library states A'.A = 1; the diagonal is configurable only through the
    # CLI's --dprime-diag foil, which scales that value and leaves MS pairs alone.
    assert pair_symbols(S("A'", 0, 2, 2), S("A", 0, 2, 2)) == 1
    assert pair_symbols(S("A", 0, 2, 2), S("A", 0, 2, 2)) == 1
    ap, a = '{"family":"A\'","i":0,"j":2}', '{"family":"A","i":0,"j":2}'
    for d in (1, 5):
        flag = ["--dprime-diag", str(d), "pair", "--n", "2"]
        assert run_command(flag + ["--x", ap, "--y", a]) == (0, str(d))
        assert run_command(flag + ["--x", a, "--y", a]) == (0, "1")


def test_a_non_class_operand_is_refused_before_the_ambient():
    # the type check comes first, before the ambient
    with pytest.raises(InvalidInput, match=r"^term key \('A', 0, 1, 2\) is not a BasisSymbol$"):
        pair_symbols(("A", 0, 1, 2), S("A", 1, 2, 2))
    with pytest.raises(InvalidInput, match=r"^term key \('A', 0, 1, 3\) is not a BasisSymbol$"):
        pair_symbols(S("A", 0, 1, 2), ("A", 0, 1, 3))  # not MixedAmbient
    with pytest.raises(InvalidInput, match="^pair_classes takes two GradedClass operands"):
        pair_classes(None, None)
    with pytest.raises(InvalidInput, match="^pair_classes takes two GradedClass operands"):
        pair_classes(GradedClass(2), GradedClass.from_symbol(S("A", 0, 1, 2)).items())
    with pytest.raises(InvalidInput, match=r"^term key \('A', 0, 1, 2\) is not a BasisSymbol$"):
        GradedClass.from_symbol(("A", 0, 1, 2))


def test_pair_symbols_errors():
    with pytest.raises(NotComplementary):
        pair_symbols(S("A", 0, 1, 2), S("A", 0, 1, 2))
    with pytest.raises(MixedAmbient):
        pair_symbols(S("A", 0, 2, 2), S("A", 1, 3, 4))


def outcome(call):
    """A call's value with its type, or the type and text of the error it raises."""
    try:
        value = call()
    except Hilb2Error as exc:
        return type(exc), str(exc)
    return type(value), value


def every_symbol(n):
    return sorted(set(enumerate_basis(n, "ES") + enumerate_basis(n, "MS")))


def test_pair_symbols_is_pair_classes_on_one_term_classes():
    # Every ordered pair of symbols of the five families, on one ambient and
    # on two: the same value or the same error, in pair_symbols' check order
    # (ambient, complementarity); every family has a value as a second factor.
    for n in range(1, 5):
        for x in every_symbol(n):
            for y in every_symbol(n) + every_symbol(n + 1):
                got = outcome(lambda: pair_symbols(x, y))
                assert got == outcome(lambda: pair_classes(
                    GradedClass.from_symbol(x), GradedClass.from_symbol(y))), (x, y)
                if x.n != y.n:
                    assert got[0] is MixedAmbient, (x, y)
                elif x.codimension + y.codimension != 2 * n:
                    assert got[0] is NotComplementary, (x, y)
                else:
                    assert got == (Fraction, expected_pair(x, y)), (x, y)


def all_supported_pairs(n):
    ms = enumerate_basis(n, "MS")
    es_extra = [s for s in enumerate_basis(n, "ES") if s.family.value in ("A'", "B")]
    for x in ms + es_extra:
        for y in ms:
            if x.codimension + y.codimension == 2 * n:
                yield x, y


def test_zero_pattern_and_values_small_n():
    for n in range(1, 7):
        for x, y in all_supported_pairs(n):
            v = pair_symbols(x, y)
            assert type(v) is Fraction, (str(x), str(y))
            assert v == expected_value(x, y), (str(x), str(y))


def test_pair_symbols_symmetric_where_both_orders_supported():
    # Both orders are supported for every pair of the five families, and the pairing
    # reads both factors in MS coordinates: this ties _duals' stated A' and B rows to
    # the basis change of to_ms.
    checked = nonzero = 0
    for n in range(1, 9):
        symbols = sorted(set(enumerate_basis(n, "BB") + enumerate_basis(n, "ES")
                             + enumerate_basis(n, "MS")))
        for x in symbols:
            for y in symbols:
                if x.codimension + y.codimension == 2 * n:
                    v = pair_symbols(x, y)
                    assert v == pair_symbols(y, x) == pair_classes(to_ms(x), to_ms(y)), (x, y)
                    checked, nonzero = checked + 1, nonzero + (v != 0)
    assert (checked, nonzero) == (6580, 1408)


def test_pair_classes_examples():
    X = cls((2, S("B'", 1, 1, 2)), (-4, S("C", 1, 1, 2)))
    assert pair_classes(X, GradedClass.from_symbol(S("B'", 1, 1, 2))) == 0
    assert pair_classes(GradedClass(2), X) == 0
    assert pair_classes(X, GradedClass(2)) == 0


def test_pair_classes_checks_the_ambient_of_the_zero_class():
    a = GradedClass.from_symbol(S("A", 0, 1, 3))
    for X, Y in ((GradedClass(2), a), (a, GradedClass(2)),
                 (GradedClass(2), GradedClass(3))):
        with pytest.raises(MixedAmbient):
            pair_classes(X, Y)
    assert pair_classes(GradedClass(3), a) == 0


def test_pair_classes_errors():
    a = GradedClass.from_symbol(S("A", 0, 1, 3))
    mixed = cls((1, S("A", 0, 1, 3)), (1, S("A", 0, 3, 3)))
    with pytest.raises(NotComplementary):
        pair_classes(a, a)
    with pytest.raises(NotHomogeneous):
        pair_classes(mixed, a)
    with pytest.raises(MixedAmbient):
        pair_classes(a, GradedClass.from_symbol(S("A", 0, 1, 2)))


def test_intersection_matrix_es_ms_frozen_example():
    M = intersection_matrix(2, 2)
    assert [str(s) for s in M.row_symbols] == ["A'_{0,2}", "B_{1,1}", "C_{1,1}"]
    assert [str(s) for s in M.col_symbols] == ["A_{0,2}", "C_{1,1}", "B'_{1,1}"]
    assert M.entries == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


def test_intersection_matrix_ms_ms_frozen_examples():
    M = intersection_matrix(1, 1, "MS", "MS")
    assert [str(s) for s in M.row_symbols] == ["A_{0,1}"]
    assert [str(s) for s in M.col_symbols] == ["A_{0,1}"]
    assert M.entries == ((Fraction(1),),)

    M = intersection_matrix(2, 2, "MS", "MS")
    assert [str(s) for s in M.row_symbols] == ["A_{0,2}", "B'_{1,1}", "C_{1,1}"]
    assert [str(s) for s in M.col_symbols] == ["A_{0,2}", "B'_{1,1}", "C_{1,1}"]
    assert M.entries == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )


def test_intersection_matrix_rejects_other_basis_pairs():
    # a non-MS column basis, as pair_classes refuses a non-MS second factor
    with pytest.raises(UnsupportedFamilyPair, match=r"^no intersection matrix for \(ES, ES\)$"):
        intersection_matrix(2, 2, "ES", "ES")
    with pytest.raises(UnsupportedFamilyPair, match=r"^no intersection matrix for \(MS, BB\)$"):
        intersection_matrix(2, 2, "MS", "BB")
    with pytest.raises(UnsupportedFamilyPair):
        intersection_matrix(2, 2, "MS", "ES")


def test_intersection_matrix_takes_bb_rows():
    # canonical rows and columns, as for MS rows, and every entry is pair_symbols
    checked = 0
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            M = intersection_matrix(n, k, "BB", "MS")
            assert list(M.row_symbols) == enumerate_basis(n, "BB", dim=k)
            assert list(M.col_symbols) == enumerate_basis(n, "MS", codim=k)
            for x, row in zip(M.row_symbols, M.entries):
                for y, v in zip(M.col_symbols, row):
                    assert v == pair_symbols(x, y), (x, y)
                    checked += 1
    assert checked == 846


def test_intersection_matrix_validates_like_enumerate_basis():
    with pytest.raises(InvalidInput, match="unknown basis 'XX'"):
        intersection_matrix(2, 2, rows="XX")
    with pytest.raises(InvalidInput, match="unknown basis 'XX'"):
        intersection_matrix(2, 2, cols="XX")
    for n in ("x", 0, 2.5):  # the ambient is checked before the grading
        with pytest.raises(InvalidInput, match="ambient dimension"):
            intersection_matrix(n, 1)
    with pytest.raises(InvalidGrading, match=r"^grading 5 outside \[0, 4\]$"):
        intersection_matrix(2, 5)


def test_es_ms_duality_small_n():
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            M = intersection_matrix(n, k)
            assert len(M.row_symbols) == len(M.col_symbols)
            for r, row in enumerate(M.entries):
                assert row[r] > 0 and all(v == 0 for c, v in enumerate(row) if c != r)
            # columns are a permutation of the canonical enumeration
            assert sorted(map(str, M.col_symbols)) == sorted(
                map(str, enumerate_basis(n, "MS", codim=k))
            )


def test_es_ms_diagonal_uses_config():
    # The library's A' diagonal is 1; --dprime-diag 7 makes it 7 in the CLI matrix,
    # while B rows pair to 2 and C rows to 1 regardless of the configurable block.
    M = intersection_matrix(3, 2)
    assert {str(r): M.entries[i][i] for i, r in enumerate(M.row_symbols)}["A'_{0,2}"] == 1
    code, text = run_command(["--dprime-diag", "7", "matrix", "--n", "3", "--k", "2",
                              "--rows", "ES", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(text.splitlines()))[1:]
    diag = {row[0]: int(row[1 + i]) for i, row in enumerate(rows)}
    assert diag["A'_{0,2}"] == 7
    for r in M.row_symbols:
        if r.family.value == "B":
            assert diag[str(r)] == 2
        if r.family.value == "C":
            assert diag[str(r)] == 1


def test_ms_ms_matrix_matches_block_pattern():
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            M = intersection_matrix(n, k, "MS", "MS")
            for r, x in enumerate(M.row_symbols):
                for c, y in enumerate(M.col_symbols):
                    assert M.entries[r][c] == expected_value(x, y), (str(x), str(y))


SWAP = {"A'": "A", "B": "C", "C": "B'"}  # an ES family -> the family of its dual generator


def test_dual_generator_bijection():
    # The ES x MS matrix labels each row's column with the row's dual generator: the
    # family swap at the complementary indices, a bijection onto the MS symbols.
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            M = intersection_matrix(n, k)
            for x, g in zip(M.row_symbols, M.col_symbols):
                assert g == S(SWAP[x.family.value], n - x.j, n - x.i, n), (x, g)
            assert len(set(M.col_symbols)) == len(M.row_symbols)
            assert set(M.col_symbols) == set(enumerate_basis(n, "MS", codim=k))


def test_dual_basis_expansion_recovers_coefficients():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(0, 2 * n)
        gens = enumerate_basis(n, "MS", dim=k)
        X = GradedClass(
            n, [(s, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for s in gens]
        )
        if X.is_zero:
            continue
        recovered = {}
        M = intersection_matrix(n, 2 * n - k)  # ES rows of codimension k, dual columns
        for r, (e, g) in enumerate(zip(M.row_symbols, M.col_symbols)):
            diag = pair_symbols(e, g)
            assert diag == M.entries[r][r] > 0
            recovered[g] = pair_classes(GradedClass.from_symbol(e), X) / diag
        assert {s: c for s, c in X.items()} == {
            s: c for s, c in recovered.items() if c
        }


def test_is_nef_examples():
    assert is_nef(GradedClass.from_symbol(S("B'", 1, 1, 2)))
    assert not is_nef(cls((1, S("A", 0, 2, 2)), (-1, S("C", 1, 1, 2))))
    assert is_nef(GradedClass(3))
    # ES terms are read in MS coordinates: B_{1,1} = 2B'_{1,1} - 4C_{1,1} is not nef,
    # B_{1,1} + 4C_{1,1} = 2B'_{1,1} is, and A'_{1,2} = A_{1,2} - C_{1,2} is not.
    B11 = GradedClass.from_symbol(S("B", 1, 1, 2))
    assert not is_nef(B11) and is_nef(B11 + 4 * GradedClass.from_symbol(S("C", 1, 1, 2)))
    assert not is_nef(GradedClass.from_symbol(S("A'", 1, 2, 3)))
    assert is_nef(GradedClass.from_symbol(S("A'", 0, 2, 3)))  # = A_{0,2}


def test_is_nef_errors():
    with pytest.raises(NotHomogeneous):
        is_nef(cls((1, S("A", 0, 1, 2)), (1, S("C", 1, 1, 2))))
    with pytest.raises(InvalidInput):
        is_nef(GradedClass.from_symbol(S("B'", 1, 1, 2)), 3)


def test_is_effective_examples():
    X = cls((2, S("B'", 1, 1, 2)), (-4, S("C", 1, 1, 2)))  # to_ms(B_{1,1})
    assert is_effective(X)
    vec = effectivity_pairings(X)
    assert [str(s) for s, _ in vec] == ["A_{0,2}", "B'_{1,1}", "C_{1,1}"]
    assert [v for _, v in vec] == [0, 0, 2]
    assert not is_effective(GradedClass.from_symbol(S("A", 0, 2, 2)) * -1)
    for sym in enumerate_basis(3, "MS"):
        assert is_effective(GradedClass.from_symbol(sym))
    # B_{1,1} itself, with the pairing vector of its MS image
    assert is_effective(GradedClass.from_symbol(S("B", 1, 1, 2)))
    assert effectivity_pairings(GradedClass.from_symbol(S("B", 1, 1, 2))) == vec


def test_cone_tests_check_the_grading_of_the_zero_class():
    zero = GradedClass(2)
    for test in (is_nef, is_effective):
        assert test(zero, 0) and test(zero, 4)
        for k in (-3, 5):
            with pytest.raises(InvalidGrading):
                test(zero, k)
    with pytest.raises(InvalidGrading):
        is_effective(GradedClass.from_symbol(S("A", 0, 2, 2)), 5)


# The cone routines and the grading each one's k names; effectivity_pairings takes no k.
CONE_ROUTINES = {is_nef: "codimension", is_effective: "dimension", effectivity_pairings: None}


@pytest.mark.parametrize("routine", CONE_ROUTINES, ids=[r.__name__ for r in CONE_ROUTINES])
def test_cone_routines_check_in_one_order(routine):
    # Each bad input also fails every later check, so the error shows which check comes first.
    name, grading = routine.__name__, CONE_ROUTINES[routine]
    mixed = cls((1, S("A'", 0, 1, 2)), (1, S("C", 1, 1, 2)))  # an ES family, two dimensions
    with pytest.raises(InvalidInput, match=f"^{name} takes a GradedClass, got None$"):
        routine(None)
    with pytest.raises(NotHomogeneous):
        routine(mixed)
    if grading is None:
        return
    with pytest.raises(InvalidInput, match=f"^{name} takes a GradedClass, got None$"):
        routine(None, 5)
    with pytest.raises(InvalidGrading):
        routine(mixed, 5)
    with pytest.raises(NotHomogeneous):
        routine(cls((1, S("A", 0, 1, 2)), (1, S("C", 1, 1, 2))), 1)
    with pytest.raises(InvalidInput, match=f"^class has {grading} 2, not 1$"):
        routine(GradedClass.from_symbol(S("B'", 1, 1, 2)), 1)


def test_cone_sanity():
    for n in range(1, 6):
        for sym in enumerate_basis(n, "MS"):
            assert is_nef(GradedClass.from_symbol(sym))
        for sym in enumerate_basis(n, "ES"):
            assert is_effective(GradedClass.from_symbol(sym))
            if sym.family.value == "B":
                assert is_effective(to_ms(sym))


def in_ms(X):
    """The class X rewritten term by term through ``to_ms``."""
    return sum((c * to_ms(s) for s, c in X.items()), GradedClass(X.n))


def test_cone_tests_read_any_family_as_its_ms_image():
    # Seeded nonzero classes in ES coordinates: each cone test answers as on the to_ms image.
    rng = random.Random(606)
    answers = []
    for _ in range(1600):
        n = rng.randint(1, 6)
        k = rng.randint(0, 2 * n)
        X = GradedClass(n)
        while X.is_zero:
            X = random_combination(rng, enumerate_basis(n, "ES", dim=k))
        image = in_ms(X)
        assert image.families() <= {Family.A, Family.BP, Family.C}
        nef, effective = is_nef(X), is_effective(X)
        assert (nef, effective) == (is_nef(image), is_effective(image)), str(X)
        assert effectivity_pairings(X) == effectivity_pairings(image), str(X)
        answers.append((nef, effective))
    assert {nef for nef, _ in answers} == {effective for _, effective in answers} == {True, False}


# Dense oracles: the double loops over pair_symbols that the sparse routes
# replace.  They visit every term pair, so they need no partner lookup.


def dense_pair_classes(X, Y):
    """Every term pair, Y's terms read in MS coordinates from this file's table."""
    total = Fraction(0)
    for sx, a in X.items():
        for sy, b in Y.items():
            for m, c in own_ms(sy):
                total += a * b * c * pair_symbols(sx, m)
    return total


def dense_effectivity(X):
    return [
        (y, sum((a * pair_symbols(x, y) for x, a in X.items()), Fraction(0)))
        for y in enumerate_basis(X.n, "MS", codim=X.dimension())
    ]


def dense_entries(M):
    return tuple(tuple(pair_symbols(r, c) for c in M.col_symbols) for r in M.row_symbols)


def random_combination(rng, symbols):
    """A seeded class on a random subset of ``symbols``; possibly zero."""
    chosen = [s for s in symbols if rng.random() < 0.6]
    return GradedClass(
        symbols[0].n, [(s, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for s in chosen]
    )




def test_sparse_pair_classes_matches_dense_oracle():
    rng = random.Random(303)
    for n in range(1, 8):
        for k in range(0, 2 * n + 1):
            for first, second in (("MS", "MS"), ("ES", "MS"), ("MS", "ES"), ("ES", "BB")):
                dim_k = enumerate_basis(n, first, dim=k)
                codim_k = enumerate_basis(n, second, codim=k)
                for _ in range(3):
                    X = random_combination(rng, dim_k)
                    Y = random_combination(rng, codim_k)
                    assert pair_classes(X, Y) == dense_pair_classes(X, Y), (n, k, str(X), str(Y))


def test_pair_classes_is_bilinear():
    # seeded classes: X1, X2 of dimension k (ES or MS), Y1, Y2 of codimension k
    rng = random.Random(505)
    for _ in range(200):
        n = rng.randint(1, 6)
        k = rng.randint(0, 2 * n)
        dim_k = enumerate_basis(n, rng.choice(("ES", "MS")), dim=k)
        codim_k = enumerate_basis(n, "MS", codim=k)
        X1, X2 = random_combination(rng, dim_k), random_combination(rng, dim_k)
        Y1, Y2 = random_combination(rng, codim_k), random_combination(rng, codim_k)
        a, b = Fraction(rng.randint(-5, 5), rng.randint(1, 5)), Fraction(rng.randint(-5, 5), 3)
        pair = pair_classes
        assert pair(a * X1 + b * X2, Y1) == a * pair(X1, Y1) + b * pair(X2, Y1), (n, k)
        assert pair(X1, a * Y1 + b * Y2) == a * pair(X1, Y1) + b * pair(X1, Y2), (n, k)


def test_sparse_pair_classes_matches_the_dense_loop_on_every_family():
    # Classes mixing all five families on both sides: both routes give the same value.
    rng = random.Random(17)
    for n in range(1, 6):
        symbols = sorted(
            set(enumerate_basis(n, "BB") + enumerate_basis(n, "ES") + enumerate_basis(n, "MS"))
        )
        for k in range(0, 2 * n + 1):
            dim_k = [s for s in symbols if s.dimension == k]
            codim_k = [s for s in symbols if s.codimension == k]
            for _ in range(4):
                X = random_combination(rng, dim_k)
                Y = random_combination(rng, codim_k)
                assert pair_classes(X, Y) == dense_pair_classes(X, Y), (str(X), str(Y))


def test_pair_classes_answers_a_second_factor_of_any_family():
    B11 = GradedClass.from_symbol(S("B", 1, 1, 2))
    AP02 = GradedClass.from_symbol(S("A'", 0, 2, 2))
    assert pair_classes(B11, AP02) == 0 and pair_classes(B11, B11) == -8
    # An A' second factor meets the checks an MS one does, in the same order:
    # B_{0,0} . A'_{n-1,n} has codimensions 2n + 1, and A'_{n-1,n} + C_{n,n}
    # is not homogeneous either.
    for n in (2, 3, 5):
        B00 = GradedClass.from_symbol(S("B", 0, 0, n))
        AP = S("A'", n - 1, n, n)
        with pytest.raises(NotComplementary, match=rf"^codim {2 * n} \+ codim 1 != {2 * n}$"):
            pair_classes(B00, GradedClass.from_symbol(AP))
        with pytest.raises(NotHomogeneous):
            pair_classes(B00, cls((1, AP), (1, S("C", n, n, n))))
        # A'_{0,n} = A_{0,n} in MS coordinates, and A_{0,n} . A_{0,n} = 1
        A0n, AP0n = (GradedClass.from_symbol(S(f, 0, n, n)) for f in ("A", "A'"))
        assert pair_classes(A0n, AP0n) == pair_classes(AP0n, A0n) == 1


def test_sparse_effectivity_pairings_matches_dense_oracle():
    rng = random.Random(404)
    for n in range(1, 8):
        for k in range(0, 2 * n + 1):
            gens = enumerate_basis(n, "MS", dim=k)
            samples = [GradedClass(n, [(s, 1) for s in gens])]
            samples += [random_combination(rng, gens) for _ in range(4)]
            for X in samples:
                if X.is_zero:
                    continue
                want = dense_effectivity(X)
                assert effectivity_pairings(X) == want, (n, k, str(X))
                assert is_effective(X, k) == all(v >= 0 for _, v in want)


def test_sparse_intersection_matrix_matches_dense_oracle():
    for n in range(1, 8):
        for k in range(0, 2 * n + 1):
            for rows in ("ES", "MS"):
                M = intersection_matrix(n, k, rows, "MS")
                assert M.entries == dense_entries(M), (n, k, rows)


def count_rule_terms(monkeypatch):
    """Route every application of the pairing rule inside hilb2.pairing
    through a counter that records the size of each image.  The bulk
    routines apply the rule after their block-level checks, so the sum of
    the recorded sizes counts the pairings they evaluate."""
    import hilb2.pairing as pairing

    sizes = []
    real = pairing._duals

    def counting(x):
        image = real(x)
        assert len(image) <= 3, (str(x), image)
        sizes.append(len(image))
        return image

    monkeypatch.setattr(pairing, "_duals", counting)
    return sizes


def test_intersection_matrix_pairs_only_partner_columns(monkeypatch):
    sizes = count_rule_terms(monkeypatch)
    M = intersection_matrix(40, 40, "MS", "MS")
    rows = len(M.row_symbols)
    assert rows > 3
    assert len(sizes) == rows
    assert 0 < sum(sizes) <= 3 * rows < rows * len(M.col_symbols)


def test_class_routes_pair_only_partner_terms(monkeypatch):
    sizes = count_rule_terms(monkeypatch)
    X = GradedClass(40, [(s, 1) for s in enumerate_basis(40, "MS", dim=40)])
    Y = GradedClass(40, [(s, 1) for s in enumerate_basis(40, "MS", codim=40)])
    terms = len(X.items())
    assert len(effectivity_pairings(X)) == terms
    assert len(sizes) == terms and 0 < sum(sizes) <= 3 * terms
    sizes.clear()
    assert is_effective(X)
    assert len(sizes) == terms and 0 < sum(sizes) <= 3 * terms
    sizes.clear()
    pair_classes(X, Y)
    assert len(sizes) == terms and 0 < sum(sizes) <= 3 * terms


def test_every_pairing_routine_reaches_the_one_rule(monkeypatch):
    import hilb2.pairing as pairing

    calls = []
    real = pairing._duals

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(pairing, "_duals", counting)
    n = 4
    X = GradedClass(n, [(s, 1) for s in enumerate_basis(n, "MS", dim=n)])
    Y = GradedClass(n, [(s, 1) for s in enumerate_basis(n, "MS", codim=n)])
    routes = {
        "pair_symbols": lambda: pair_symbols(S("B'", 1, 1, n), S("B'", 3, 3, n)),
        "pair_classes": lambda: pair_classes(X, Y),
        "is_effective": lambda: is_effective(X),
        "effectivity_pairings": lambda: effectivity_pairings(X),
        "intersection_matrix ES rows": lambda: intersection_matrix(n, n, "ES", "MS"),
        "intersection_matrix MS rows": lambda: intersection_matrix(n, n, "MS", "MS"),
    }
    for name, route in routes.items():
        calls.clear()
        route()
        assert calls, name


def test_is_effective_enumerates_no_basis(monkeypatch):
    # is_effective reads only the partners of X's terms, never the whole
    # codimension-k generator list
    import hilb2.pairing as pairing

    calls = []
    real = pairing.enumerate_basis

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pairing, "enumerate_basis", counting)
    X = GradedClass(40, [(s, 1) for s in enumerate_basis(40, "MS", dim=40)])
    assert is_effective(X) and is_effective(X, 40)
    assert not is_effective(-X)
    assert calls == []
    effectivity_pairings(X)  # the reporting vector lists every generator
    assert len(calls) == 1


# Common denominators: coprime and very large denominators in one class,
# numerators far beyond machine words, against the dense Fraction loops.

DENOMINATORS = (1, 2, 3, 7, 97, 2**61 - 1)


def wide_combination(rng, symbols):
    """A seeded class whose coefficients mix the denominators above with
    numerators of either sign up to 10^30; possibly zero."""
    return GradedClass(symbols[0].n, [
        (s, Fraction(rng.randint(-10**30, 10**30), rng.choice(DENOMINATORS)))
        for s in symbols if rng.random() < 0.6
    ])


def absolute(X):
    return GradedClass(X.n, [(s, abs(c)) for s, c in X.items()])


def test_common_denominator_pairings_match_dense_oracles():
    rng = random.Random(808)
    for n in range(1, 8):
        for k in range(0, 2 * n + 1):
            ms_dim_k = enumerate_basis(n, "MS", dim=k)
            ms_codim_k = enumerate_basis(n, "MS", codim=k)
            es_dim_k = enumerate_basis(n, "ES", dim=k)
            for _ in range(4):
                X = wide_combination(rng, ms_dim_k)
                Y = wide_combination(rng, ms_codim_k)
                E = wide_combination(rng, es_dim_k)
                for first in (X, E):
                    assert pair_classes(first, Y) == dense_pair_classes(first, Y), (n, k)
                assert type(pair_classes(X, Y)) is Fraction
                for Z in (X, absolute(X)):
                    if Z.is_zero:
                        continue
                    got, member = effectivity_pairings(Z), is_effective(Z, k)
                    assert all(type(v) is Fraction for _, v in got)
                    want = dense_effectivity(Z)
                    assert got == want, (n, k, str(Z))
                    assert member == all(v >= 0 for _, v in want)


def test_positive_classes_are_effective_and_negative_terms_are_not():
    # every MS x MS table value is >= 0, so a class with positive
    # coefficients is effective; a single negative term always meets a
    # partner with a positive table value, so it is not
    rng = random.Random(909)
    for n in range(1, 8):
        for k in range(0, 2 * n + 1):
            gens = enumerate_basis(n, "MS", dim=k)
            X = absolute(wide_combination(rng, gens))
            assert X.is_zero or is_effective(X, k)
            for s in gens:
                q = Fraction(rng.randint(1, 10**30), rng.choice(DENOMINATORS))
                T = -q * GradedClass.from_symbol(s)
                assert not is_effective(T, k)
                assert min(v for _, v in dense_effectivity(T)) < 0
