from fractions import Fraction
from itertools import product as cartesian
from math import comb, prod

import pytest

from hilb2 import (
    GradedClass,
    InvalidInput,
    SecantProblem,
    TautBundle,
    chern_taut,
    enumerate_basis,
    linear_combine,
    pair_classes,
    secant_degree,
    secant_degree_mu_closed,
    secant_degree_mu_intersection,
    secant_oracle,
    validate_symbol,
)

S = validate_symbol


def cls(*pairs):
    return linear_combine([(c, sym) for c, sym in pairs])


def chord_count(degrees):
    """Chords of prod(d) general points: the m = 0 oracle, recomputed here."""
    D = prod(degrees)
    return D * (D - 1) // 2


def curve_secant_count(n, degrees):
    """C(D-1,2) - g for the complete-intersection curve: the m = 1 oracle."""
    D = prod(degrees)
    two_g_minus_2 = D * (sum(degrees) - n - 1)
    g = (two_g_minus_2 + 2) // 2
    assert two_g_minus_2 % 2 == 0
    return (D - 1) * (D - 2) // 2 - g


def test_chern_examples():
    c1, c2 = chern_taut(TautBundle(3, 2))
    assert c1 == cls((1, S("A", 2, 3, 3)), (1, S("C", 2, 3, 3)))
    assert c2 == cls((1, S("B'", 2, 2, 3)), (2, S("C", 2, 2, 3)))

    c1, c2 = chern_taut(TautBundle(2, 1))
    assert c1 == GradedClass.from_symbol(S("C", 1, 2, 2))
    assert c2 == GradedClass.from_symbol(S("C", 1, 1, 2))

    c1, c2 = chern_taut(TautBundle(1, 3))
    assert c1 == cls((2, S("A", 0, 1, 1)))
    assert c2 == cls((3, S("B'", 0, 0, 1)))


def test_chern_validation():
    with pytest.raises(InvalidInput):
        TautBundle(0, 2)
    with pytest.raises(InvalidInput):
        TautBundle(3, 0)


def test_chern_gradings():
    for n in range(1, 7):
        for d in range(1, 5):
            c1, c2 = chern_taut(TautBundle(n, d))
            if not c1.is_zero:
                assert c1.codimension() == 1
            if not c2.is_zero:
                assert c2.codimension() == 2


TABLE3 = [
    # (symbol args, which chern class, expected value as function of d)
    (("A", 0, 1), 1, lambda d: d - 1),
    (("B'", 0, 1), 1, lambda d: d),
    (("A", 0, 2), 2, lambda d: 0),
    (("B'", 0, 2), 2, lambda d: 0),
    (("B'", 1, 1), 2, lambda d: d * d),
    (("C", 1, 1), 2, lambda d: comb(d, 2)),
]


def test_tautological_pairings_table():
    for n in range(2, 9):
        for d in range(1, 7):
            c1, c2 = chern_taut(TautBundle(n, d))
            for (fam, i, j), which, expect in TABLE3:
                if fam == "B'" and j > n - 1:
                    continue  # B'_{0,2} does not exist when n = 2
                target = GradedClass.from_symbol(S(fam, i, j, n))
                got = pair_classes(c1 if which == 1 else c2, target)
                assert got == expect(d), (n, d, fam, i, j)


def test_secant_problem_validation():
    with pytest.raises(InvalidInput):
        SecantProblem(3, ())
    with pytest.raises(InvalidInput):
        SecantProblem(3, (2, 0))
    with pytest.raises(InvalidInput):
        SecantProblem(2, (2, 2, 2))  # more hypersurfaces than n
    with pytest.raises(InvalidInput):
        SecantProblem(4, (2, 2, 2), mu1=0)
    with pytest.raises(InvalidInput):
        SecantProblem(4, (2, 2, 2), variant="other")
    assert SecantProblem(4, [2, 2, 2]).m == 1


def test_secant_closed_examples():
    assert secant_degree_mu_closed(SecantProblem(2, (2, 2))) == 6
    assert secant_degree_mu_closed(SecantProblem(4, (2, 2, 2))) == 16
    assert secant_degree_mu_closed(SecantProblem(4, (2, 2, 3))) == 42


def test_secant_closed_agrees_with_chord_oracle():
    for n in range(2, 7):
        for degrees in cartesian((2, 3), repeat=n):
            assert secant_degree_mu_closed(SecantProblem(n, degrees)) == chord_count(degrees)


def test_secant_closed_agrees_with_curve_oracle():
    for n in range(4, 8):
        for degrees in cartesian((2, 3, 4), repeat=n - 1):
            assert secant_degree_mu_closed(SecantProblem(n, degrees)) == curve_secant_count(
                n, degrees
            ), (n, degrees)


def test_secant_intersection_examples():
    assert secant_degree_mu_intersection(SecantProblem(2, (2, 2))) == 6
    assert secant_degree_mu_intersection(SecantProblem(4, (2, 2, 2))) == 16
    p = SecantProblem(5, (2, 2, 2, 2))
    assert secant_degree_mu_intersection(p) == secant_degree_mu_closed(p)


def test_path_equivalence_sample():
    for n, degrees in [
        (2, (2, 3)),
        (3, (2, 2, 2)),
        (4, (2, 3, 4)),
        (5, (3, 3, 3, 3)),
        (6, (2, 2, 3, 3)),  # m = 2
        (7, (2, 2, 2, 2, 2)),  # m = 2
    ]:
        p = SecantProblem(n, degrees)
        assert secant_degree_mu_intersection(p) == secant_degree_mu_closed(p), (n, degrees)


def test_secant_oracle_examples():
    assert secant_oracle(2, (2, 3)) == comb(6, 2) == 15
    assert secant_oracle(4, (2, 2, 2)) == comb(7, 2) - 5 == 16
    assert secant_oracle(6, (2, 2)) is None  # m = 4: out of oracle scope
    with pytest.raises(InvalidInput):
        secant_oracle(2, (2, 2, 2))


@pytest.mark.parametrize("n, degrees", [
    (0, (2,)), (2.5, (2,)), (3, ()), (3, (2, 0)), (3, (2, "2")), (3, (2, 1.0)), (2, (2, 2, 2)),
])
def test_secant_oracle_refuses_what_secant_problem_refuses(n, degrees):
    with pytest.raises(InvalidInput) as expected:
        SecantProblem(n, degrees)
    with pytest.raises(InvalidInput) as got:
        secant_oracle(n, degrees)
    assert str(got.value) == str(expected.value)


def test_secant_oracle_takes_any_iterable_of_degrees():
    assert secant_oracle(4, (d for d in (2, 2, 2))) == 16


def test_secant_degree_examples():
    assert secant_degree(SecantProblem(4, (2, 2, 2), mu1=1)) == 16
    assert secant_degree(SecantProblem(4, (2, 2, 2), mu1=2)) == 8
    with pytest.raises(InvalidInput):
        secant_degree(SecantProblem(3, (2, 2)))  # 2m+1 = n: no formula


def test_expected_dimension_guard_on_both_paths():
    p = SecantProblem(5, (2, 2, 2))  # m = 2, 2m+1 = 5 = n
    with pytest.raises(InvalidInput):
        secant_degree_mu_closed(p)
    with pytest.raises(InvalidInput):
        secant_degree_mu_intersection(p)


def test_intro_variant_regression():
    # the alternative exponent normalization disagrees with the classical
    # count on every curve instance; it is kept only as a pinned foil
    assert secant_degree_mu_closed(SecantProblem(4, (2, 2, 2), variant="intro")) == 8
    for n in (4, 5):
        for degrees in cartesian((2, 3), repeat=n - 1):
            intro = secant_degree_mu_closed(SecantProblem(n, degrees, variant="intro"))
            assert intro != curve_secant_count(n, degrees), (n, degrees)


def test_intro_variant_matches_proof_when_m_is_zero():
    # for m = 0 the two exponents coincide
    for degrees in cartesian((2, 3), repeat=3):
        proof = secant_degree_mu_closed(SecantProblem(3, degrees))
        intro = secant_degree_mu_closed(SecantProblem(3, degrees, variant="intro"))
        assert proof == intro


def test_secant_degree_divides_by_mu1_exactly():
    p = SecantProblem(4, (2, 2, 3), mu1=4)
    assert secant_degree(p) == Fraction(42, 4)
