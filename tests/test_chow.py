import random
import re
from fractions import Fraction
from math import comb

import pytest

from hilb2 import (
    BasisId,
    BasisSymbol,
    Family,
    GradedClass,
    InvalidGrading,
    InvalidIndex,
    InvalidInput,
    MixedAmbient,
    NotHomogeneous,
    ValidationError,
    chow_rank,
    enumerate_basis,
)
from hilb2.chow import require_int, shown

ALL_FAMILIES = ("A", "A'", "B", "B'", "C")


def brute_index_pairs(family, n):
    """Independent enumeration oracle: scan the full square of index pairs."""
    pairs = []
    for i in range(0, n + 1):
        for j in range(0, n + 1):
            if family in ("A", "A'") and 0 <= i < j <= n:
                pairs.append((i, j))
            elif family in ("B", "B'") and 0 <= i <= j <= n - 1:
                pairs.append((i, j))
            elif family == "C" and 0 < i <= j <= n:
                pairs.append((i, j))
    return pairs


def brute_basis(n, basis_families, dim):
    return [
        (fam, i, j)
        for fam in basis_families
        for (i, j) in brute_index_pairs(fam, n)
        if i + j == dim
    ]


def test_validate_symbol_examples():
    sym = BasisSymbol("C", 1, 1, 2)
    assert (sym.family, sym.i, sym.j, sym.n) == (Family.C, 1, 1, 2)
    with pytest.raises(InvalidIndex):
        BasisSymbol("C", 0, 1, 2)
    with pytest.raises(InvalidIndex):
        BasisSymbol("B'", 1, 2, 2)


def test_validate_symbol_rejects_bad_ambient():
    with pytest.raises(InvalidIndex):
        BasisSymbol("A", 0, 1, 0)


@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_symbol_from_a_name_is_the_symbol_from_its_family(family):
    by_name, by_member = BasisSymbol(family.value, 1, 2, 3), BasisSymbol(family, 1, 2, 3)
    assert by_name.family is family
    assert by_name == by_member and hash(by_name) == hash(by_member)
    assert (str(by_name), repr(by_name)) == (str(by_member), repr(by_member))


@pytest.mark.parametrize("family", ["X", "a", "", None, 3, ["A"], BasisId.MS], ids=repr)
def test_unknown_family_is_invalid_index(family):
    with pytest.raises(InvalidIndex, match=re.escape(f"unknown family {family!r}")):
        BasisSymbol(family, 0, 1, 2)


def test_unknown_family_is_reported_before_the_ambient_dimension():
    with pytest.raises(InvalidIndex, match="unknown family 'X'"):
        BasisSymbol("X", 0, 1, 0)


def test_family_values_sort_in_declaration_order():
    """The canonical term order is the symbols' own tuple order."""
    assert list(Family) == sorted(Family)
    symbols = list({*enumerate_basis(3, "BB"), *enumerate_basis(3, "ES"), *enumerate_basis(3, "MS")})
    random.Random(7).shuffle(symbols)
    declared = list(Family)
    canonical = sorted(symbols, key=lambda s: (declared.index(s.family), s.i, s.j))
    assert sorted(symbols) == canonical
    assert [s for s, _ in GradedClass(3, [(s, 1) for s in symbols]).items()] == canonical


def test_symbol_grading():
    sym = BasisSymbol("A", 1, 3, 4)
    assert sym.dimension == 4
    assert sym.codimension == 4
    assert str(sym) == "A_{1,3}"


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", range(1, 9))
def test_each_family_has_binomial_count(family, n):
    pairs = brute_index_pairs(family, n)
    assert len(pairs) == comb(n + 1, 2)
    for i, j in pairs:
        BasisSymbol(family, i, j, n)


def test_enumerate_basis_examples():
    assert [str(s) for s in enumerate_basis(3, "MS", dim=3)] == [
        "A_{0,3}",
        "A_{1,2}",
        "B'_{1,2}",
        "C_{1,2}",
    ]
    assert [str(s) for s in enumerate_basis(2, "BB", dim=0)] == ["B_{0,0}"]
    assert [str(s) for s in enumerate_basis(1, "MS")] == ["A_{0,1}", "B'_{0,0}", "C_{1,1}"]


def test_enumerate_basis_matches_brute_force():
    """Every mode of every basis, order included, against a per-(i, j) filter:
    lexicographic for all, increasing i for dim=k, decreasing i for codim=k."""
    for n in range(1, 13):
        for basis in BasisId:
            families = tuple(f.value for f in basis.families)

            def listed(**grading):
                return [(s.family.value, s.i, s.j) for s in enumerate_basis(n, basis, **grading)]

            assert listed() == [
                (fam, i, j) for fam in families for (i, j) in brute_index_pairs(fam, n)
            ]
            for k in range(0, 2 * n + 1):
                assert listed(dim=k) == brute_basis(n, families, k)
                assert listed(codim=k) == [
                    (fam, i, j)
                    for fam in families
                    for (i, j) in reversed(brute_index_pairs(fam, n))
                    if i + j == 2 * n - k
                ]


def test_enumerate_basis_ordering_conventions():
    # dimension-k: increasing first index; codimension-k: decreasing.
    for n in (3, 5):
        for k in range(0, 2 * n + 1):
            for basis in BasisId:
                dim_list = enumerate_basis(n, basis, dim=k)
                codim_list = enumerate_basis(n, basis, codim=k)
                for fam in basis.families:
                    block = [s.i for s in dim_list if s.family is fam]
                    assert block == sorted(block)
                    block = [s.i for s in codim_list if s.family is fam]
                    assert block == sorted(block, reverse=True)
                # families appear in basis order
                fams = [s.family for s in dim_list]
                order = {f: pos for pos, f in enumerate(basis.families)}
                assert [order[f] for f in fams] == sorted(order[f] for f in fams)


def test_enumerate_basis_dim_codim_consistency():
    for n in range(1, 6):
        for k in range(0, 2 * n + 1):
            dim_set = {str(s) for s in enumerate_basis(n, "ES", dim=k)}
            codim_set = {str(s) for s in enumerate_basis(n, "ES", codim=2 * n - k)}
            assert dim_set == codim_set


def test_enumerate_basis_bad_grading():
    with pytest.raises(InvalidGrading):
        enumerate_basis(2, "MS", dim=5)
    with pytest.raises(InvalidGrading):
        enumerate_basis(2, "MS", codim=-1)
    with pytest.raises(InvalidInput):
        enumerate_basis(2, "MS", dim=1, codim=1)


def test_chow_rank_examples():
    assert chow_rank(2, 2) == 3
    for n in (1, 2, 5, 9):
        assert chow_rank(n, 0) == 1
        assert chow_rank(n, 2 * n) == 1
    assert chow_rank(3, 3) == 4  # enumeration oracle below pins this too


def test_chow_rank_against_enumeration():
    for n in range(1, 13):
        for k in range(0, 2 * n + 1):
            rank = chow_rank(n, k)
            for basis in BasisId:
                assert len(enumerate_basis(n, basis, codim=k)) == rank


def test_chow_rank_total_is_three_binomials():
    for n in range(1, 31):
        assert sum(chow_rank(n, k) for k in range(0, 2 * n + 1)) == 3 * comb(n + 1, 2)


def test_chow_rank_bad_grading():
    with pytest.raises(InvalidGrading):
        chow_rank(2, 5)
    with pytest.raises(InvalidGrading):
        chow_rank(2, -1)


def test_require_grading_messages():
    from hilb2.chow import require_grading

    require_grading(0, 2)
    require_grading(4, 2)
    for k in (-1, 5, 1.0, "1", None):
        with pytest.raises(InvalidGrading, match=rf"^grading {re.escape(repr(k))} outside \[0, 4\]$"):
            require_grading(k, 2)
    with pytest.raises(InvalidGrading, match=r"^codimension 9 outside \[0, 4\]$"):
        chow_rank(2, 9)
    with pytest.raises(InvalidGrading, match=r"^grading 9 outside \[0, 4\]$"):
        enumerate_basis(2, "MS", codim=9)


def test_unknown_basis_name_is_invalid_input():
    for basis in ("XX", "ms", "", None, 3, ["MS"], Family.A):
        with pytest.raises(InvalidInput, match=re.escape(f"unknown basis {basis!r}")):
            enumerate_basis(2, basis)


def test_linear_combine_examples():
    a01 = BasisSymbol("A", 0, 1, 2)
    bp11 = BasisSymbol("B'", 1, 1, 2)
    c11 = BasisSymbol("C", 1, 1, 2)
    assert GradedClass(2, [(a01, 1), (a01, -1)]).is_zero
    half = Fraction(1, 2)
    assert GradedClass(2, [(bp11, half), (bp11, half)]) == GradedClass.from_symbol(bp11)
    X = 2 * GradedClass.from_symbol(bp11) - 4 * GradedClass.from_symbol(c11)
    assert X == GradedClass(2, {c11: -4, bp11: 2})
    assert X.items() == ((bp11, Fraction(2)), (c11, Fraction(-4)))


def test_linear_combine_mixed_ambient():
    with pytest.raises(MixedAmbient):
        GradedClass(2, [(BasisSymbol("A", 0, 1, 2), 1), (BasisSymbol("A", 0, 1, 3), 1)])


# Ring laws of GradedClass as seeded properties: random classes over every
# family, mixed gradings, signed rational coefficients, possibly zero.

def random_class(rng, n):
    syms = sorted({*enumerate_basis(n, "MS"), *enumerate_basis(n, "ES")})
    chosen = rng.sample(syms, rng.randint(0, min(len(syms), 6)))
    return GradedClass(n, [(s, Fraction(rng.randint(-6, 6), rng.randint(1, 4))) for s in chosen])


def random_scalar(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 5))


def random_triples(seed, count=200):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        yield rng, random_class(rng, n), random_class(rng, n), random_class(rng, n)


def test_addition_is_commutative_and_associative():
    for _, X, Y, Z in random_triples(7):
        assert X + Y == Y + X
        assert (X + Y) + Z == X + (Y + Z)
        assert X + GradedClass(X.n) == X


def test_scalar_multiplication_distributes_over_addition():
    for rng, X, Y, _ in random_triples(8):
        p, q = random_scalar(rng), random_scalar(rng)
        assert q * (X + Y) == q * X + q * Y
        assert (p + q) * X == p * X + q * X
        assert (p * q) * X == p * (q * X)
        assert X * q == q * X and 1 * X == X and (0 * X).is_zero


def test_negation_and_subtraction():
    for _, X, Y, _ in random_triples(9):
        assert (X - X).is_zero and X - X == GradedClass(X.n)
        assert -(-X) == X
        assert X - Y == X + (-1) * Y == -(Y - X)


def test_graded_class_canonical_form():
    bp11 = BasisSymbol("B'", 1, 1, 2)
    c11 = BasisSymbol("C", 1, 1, 2)
    X = GradedClass(2, [(c11, 1), (bp11, 2), (c11, -1)])
    assert X.items() == ((bp11, Fraction(2)),)  # zero pruned, sorted
    assert str(X) == "2*B'_{1,1}"


def test_graded_class_rejects_floats():
    sym = BasisSymbol("A", 0, 1, 2)
    with pytest.raises(InvalidInput):
        GradedClass(2, [(sym, 0.5)])
    with pytest.raises(InvalidInput):
        GradedClass.from_symbol(sym) * 0.5


def test_graded_class_accepts_rational_strings():
    sym = BasisSymbol("A", 0, 1, 2)
    assert GradedClass(2, [(sym, "1/2")]).items() == ((sym, Fraction(1, 2)),)


def test_graded_class_homogeneity():
    a01 = BasisSymbol("A", 0, 1, 2)
    c12 = BasisSymbol("C", 1, 2, 2)
    point = BasisSymbol("B'", 0, 0, 2)
    X = GradedClass(2, [(a01, 1), (c12, 1)])
    with pytest.raises(NotHomogeneous):
        X.dimension()
    Y = GradedClass(2, [(a01, 1)])
    assert Y.dimension() == 1 and Y.codimension() == 3
    assert GradedClass(2).dimension() is None
    assert GradedClass(2, [(point, 5)]).dimension() == 0


def test_graded_class_arithmetic_mixed_ambient():
    with pytest.raises(MixedAmbient):
        GradedClass.from_symbol(BasisSymbol("A", 0, 1, 2)) + GradedClass.from_symbol(
            BasisSymbol("A", 0, 1, 3)
        )


def test_graded_class_immutable():
    X = GradedClass.from_symbol(BasisSymbol("A", 0, 1, 2))
    with pytest.raises(AttributeError):
        X.n = 3


def test_the_zero_class_is_false_and_prints_as_0():
    assert not GradedClass(2)
    assert GradedClass.from_symbol(BasisSymbol("A", 0, 1, 2))
    assert str(GradedClass(2)) == "0"


def test_equal_classes_hash_equal():
    a01, c11 = BasisSymbol("A", 0, 1, 2), BasisSymbol("C", 1, 1, 2)
    X = GradedClass(2, [(a01, 1), (c11, "-1/2")])
    Y = GradedClass(2, {c11: Fraction(-1, 2), a01: 1})
    assert X == Y and hash(X) == hash(Y)
    assert len({X, Y, GradedClass(2, [(a01, 1)])}) == 2


def test_a_class_adds_and_subtracts_only_classes():
    X = GradedClass.from_symbol(BasisSymbol("A", 0, 1, 2))
    with pytest.raises(TypeError):
        X + 1
    with pytest.raises(TypeError):
        X - 1


def test_class_text_and_repr():
    a01, c11 = BasisSymbol("A", 0, 1, 2), BasisSymbol("C", 1, 1, 2)
    X = GradedClass(2, [(a01, -1), (c11, Fraction(3, 2))])
    assert str(X) == "-A_{0,1} + 3/2*C_{1,1}"
    assert str(-X) == "A_{0,1} - 3/2*C_{1,1}"
    assert repr(X) == "GradedClass(n=2, -A_{0,1} + 3/2*C_{1,1})"
    assert repr(GradedClass(3)) == "GradedClass(n=3, 0)"


def test_shown_writes_what_repr_writes_within_the_digit_limit():
    # a value made of parts is written part by part, the way repr writes it
    from hilb2 import MonomialIdealDescriptor, MonomialSpec, SecantProblem

    a01, c11 = BasisSymbol("A", 0, 1, 2), BasisSymbol("C", 1, 1, 2)
    X = GradedClass(2, [(a01, -1), (c11, Fraction(3, 2))])
    values = [
        X, GradedClass(3), -X, Fraction(-3, 7), Fraction(4), (), (1,), (1, (2, (3,))), [],
        [1, [2.5]], {}, {"n": 2, "terms": [{"coeff": Fraction(1, 2)}]}, (X, "x", None, True),
        [Family.A, BasisId.MS], MonomialSpec(3, 1, 0), SecantProblem(5, [2, 2, 2, 2]),
        MonomialIdealDescriptor("J", 0, 2, 2),
    ]
    for value in values:
        assert shown(value) == repr(value)
    assert shown(a01) == str(a01) == "A_{0,1}"


def test_an_uninterpretable_coefficient_is_refused():
    sym = BasisSymbol("A", 0, 1, 2)
    with pytest.raises(InvalidInput, match=r"^bad rational string 'x'$"):
        GradedClass(2, [(sym, "x")])


@pytest.mark.parametrize("value", [0, -3, 1.0, 2.5, True, False, "2", None])
def test_require_int_without_an_upper_bound(value):
    with pytest.raises(InvalidInput) as info:
        require_int(value, "widget count", 1)
    assert str(info.value) == f"widget count must be an integer >= 1, got {value!r}"


@pytest.mark.parametrize("value", [-1, 5, 2.0, True, "3"])
def test_require_int_with_an_upper_bound(value):
    with pytest.raises(InvalidInput) as info:
        require_int(value, "slot", 0, 4)
    assert str(info.value) == f"slot {value!r} outside [0, 4]"


def test_require_int_passes_integers_in_range_and_raises_the_error_given():
    for value, lo, hi in [(1, 1, None), (10**30, 1, None), (0, 0, 4), (4, 0, 4), (-2, -2, -2)]:
        assert require_int(value, "x", lo, hi) is None
    with pytest.raises(InvalidGrading, match=r"^grading 7 outside \[0, 6\]$"):
        require_int(7, "grading", 0, 6, InvalidGrading)
    with pytest.raises(InvalidIndex, match=r"^n must be an integer >= 1, got True$"):
        require_int(True, "n", 1, error=InvalidIndex)
    with pytest.raises(ValidationError):
        require_int(False, "n", 0)  # a bool is refused even where its value is in range
