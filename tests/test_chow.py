import random
import re
from fractions import Fraction
from math import comb

import pytest

import hilb2
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
    chow_rank,
    enumerate_basis,
    linear_combine,
    validate_symbol,
)

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
    sym = validate_symbol("C", 1, 1, 2)
    assert (sym.family, sym.i, sym.j, sym.n) == (Family.C, 1, 1, 2)
    with pytest.raises(InvalidIndex):
        validate_symbol("C", 0, 1, 2)
    with pytest.raises(InvalidIndex):
        validate_symbol("B'", 1, 2, 2)


def test_validate_symbol_rejects_bad_ambient():
    with pytest.raises(InvalidIndex):
        validate_symbol("A", 0, 1, 0)


def test_validate_symbol_is_the_symbol_constructor():
    assert hilb2.validate_symbol is hilb2.BasisSymbol


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
        validate_symbol("X", 0, 1, 0)


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
    sym = validate_symbol("A", 1, 3, 4)
    assert sym.dimension == 4
    assert sym.codimension == 4
    assert str(sym) == "A_{1,3}"


@pytest.mark.parametrize("family", ALL_FAMILIES)
@pytest.mark.parametrize("n", range(1, 9))
def test_each_family_has_binomial_count(family, n):
    pairs = brute_index_pairs(family, n)
    assert len(pairs) == comb(n + 1, 2)
    for i, j in pairs:
        validate_symbol(family, i, j, n)


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
    with pytest.raises(InvalidInput, match="unknown basis 'XX'"):
        enumerate_basis(2, "XX")


def test_linear_combine_examples():
    a01 = validate_symbol("A", 0, 1, 2)
    bp11 = validate_symbol("B'", 1, 1, 2)
    c11 = validate_symbol("C", 1, 1, 2)
    assert linear_combine([(1, a01), (-1, a01)]).is_zero
    half = Fraction(1, 2)
    assert linear_combine([(half, bp11), (half, bp11)]) == GradedClass.from_symbol(bp11)
    X = linear_combine([(2, bp11), (-4, c11)])
    assert X.terms == {bp11: Fraction(2), c11: Fraction(-4)}


def test_linear_combine_mixed_ambient():
    with pytest.raises(MixedAmbient):
        linear_combine([(1, validate_symbol("A", 0, 1, 2)), (1, validate_symbol("A", 0, 1, 3))])


def random_class(rng, n, nterms=4):
    syms = enumerate_basis(n, "MS") + enumerate_basis(n, "ES")
    terms = []
    for _ in range(nterms):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        terms.append((c, GradedClass.from_symbol(rng.choice(syms))))
    return terms


def test_linear_combine_is_associative_and_commutative():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        pairs = random_class(rng, n)
        shuffled = pairs[:]
        rng.shuffle(shuffled)
        assert linear_combine(pairs) == linear_combine(shuffled)
        split = rng.randint(1, len(pairs) - 1)
        left = linear_combine(pairs[:split])
        right = linear_combine(pairs[split:])
        assert left + right == linear_combine(pairs)


def test_graded_class_canonical_form():
    bp11 = validate_symbol("B'", 1, 1, 2)
    c11 = validate_symbol("C", 1, 1, 2)
    X = GradedClass(2, [(c11, 1), (bp11, 2), (c11, -1)])
    assert X.items() == ((bp11, Fraction(2)),)  # zero pruned, sorted
    assert X.coeff(c11) == 0
    assert str(X) == "2*B'_{1,1}"


def test_graded_class_rejects_floats():
    sym = validate_symbol("A", 0, 1, 2)
    with pytest.raises(InvalidInput):
        GradedClass(2, [(sym, 0.5)])
    with pytest.raises(InvalidInput):
        GradedClass.from_symbol(sym) * 0.5


def test_graded_class_accepts_rational_strings():
    sym = validate_symbol("A", 0, 1, 2)
    assert GradedClass(2, [(sym, "1/2")]).coeff(sym) == Fraction(1, 2)


def test_graded_class_homogeneity():
    a01 = validate_symbol("A", 0, 1, 2)
    c12 = validate_symbol("C", 1, 2, 2)
    point = validate_symbol("B'", 0, 0, 2)
    X = GradedClass(2, [(a01, 1), (c12, 1)])
    assert not X.is_homogeneous()
    with pytest.raises(NotHomogeneous):
        X.dimension()
    Y = GradedClass(2, [(a01, 1)])
    assert Y.dimension() == 1 and Y.codimension() == 3
    assert GradedClass.zero(2).dimension() is None
    assert GradedClass(2, [(point, 5)]).dimension() == 0


def test_graded_class_arithmetic_mixed_ambient():
    with pytest.raises(MixedAmbient):
        GradedClass.from_symbol(validate_symbol("A", 0, 1, 2)) + GradedClass.from_symbol(
            validate_symbol("A", 0, 1, 3)
        )


def test_graded_class_immutable():
    X = GradedClass.from_symbol(validate_symbol("A", 0, 1, 2))
    with pytest.raises(AttributeError):
        X.n = 3
