import random
from fractions import Fraction
from itertools import product as cartesian
from math import comb, prod

import pytest

from hilb2 import (
    BasisSymbol,
    GradedClass,
    InvalidInput,
    MonomialSpec,
    SecantProblem,
    chern_taut,
    eval_monomial,
    pair_classes,
    secant_degree_mu_closed,
    secant_degree_mu_intersection,
    secant_oracle,
)
from hilb2 import chern_secant
from hilb2.chern_secant import _monomial_weights
from hilb2.cli import run_command

S = BasisSymbol


def cls(*pairs):
    return GradedClass(pairs[0][1].n, [(sym, c) for c, sym in pairs])


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
    c1, c2 = chern_taut(3, 2)
    assert c1 == cls((1, S("A", 2, 3, 3)), (1, S("C", 2, 3, 3)))
    assert c2 == cls((1, S("B'", 2, 2, 3)), (2, S("C", 2, 2, 3)))

    c1, c2 = chern_taut(2, 1)
    assert c1 == GradedClass.from_symbol(S("C", 1, 2, 2))
    assert c2 == GradedClass.from_symbol(S("C", 1, 1, 2))

    c1, c2 = chern_taut(1, 3)
    assert c1 == cls((2, S("A", 0, 1, 1)))
    assert c2 == cls((3, S("B'", 0, 0, 1)))


def test_chern_validation():
    # n first, then the twist, with the messages of the one integer check
    for args, message in (((0, 2), "ambient dimension must be an integer >= 1, got 0"),
                          ((0, 0), "ambient dimension must be an integer >= 1, got 0"),
                          ((3, 0), "line bundle twist must be an integer >= 1, got 0"),
                          ((3, True), "line bundle twist must be an integer >= 1, got True"),
                          ((3, 2.0), "line bundle twist must be an integer >= 1, got 2.0")):
        with pytest.raises(InvalidInput) as info:
            chern_taut(*args)
        assert str(info.value) == message, args


def test_chern_gradings():
    for n in range(1, 7):
        for d in range(1, 5):
            c1, c2 = chern_taut(n, d)
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
            c1, c2 = chern_taut(n, d)
            for (fam, i, j), which, expect in TABLE3:
                if fam == "B'" and j > n - 1:
                    continue  # B'_{0,2} does not exist when n = 2
                target = GradedClass.from_symbol(S(fam, i, j, n))
                got = pair_classes(c1 if which == 1 else c2, target)
                assert got == expect(d), (n, d, fam, i, j)


def test_secant_problem_validation():
    with pytest.raises(InvalidInput):
        SecantProblem(3, ())
    with pytest.raises(InvalidInput, match=r"^hypersurface degree must be an integer >= 1, got 0$"):
        SecantProblem(3, (2, 0))
    with pytest.raises(InvalidInput):
        SecantProblem(2, (2, 2, 2))  # more hypersurfaces than n
    for field in ("variant", "mu1"):  # the intro variant and the secant order are the CLI's
        with pytest.raises(TypeError):
            SecantProblem(4, (2, 2, 2), **{field: 2})
    assert SecantProblem._fields == ("n", "degrees")
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


def test_monomial_weights_are_ints():
    # every 2m+1 < n: entry k is 2^(k-1) above m and 0 up to m, entry 0 included
    for n in range(2, 13):
        for m in range((n - 2) // 2 + 1):
            weights = _monomial_weights(n, m)
            assert {type(w) for w in weights} == {int}, (n, m)
            assert weights == tuple(2 ** (k - 1) if k > m else 0 for k in range(n - m + 1)), (n, m)


def test_iterated_weights_equal_the_closed_monomials():
    # the fill iterates the rules; eval_monomial reads the closed B' power and one C shift
    for n in range(2, 13):
        for m in range((n - 2) // 2 + 1):
            target = GradedClass.from_symbol(BasisSymbol("C", n - 2 * m, n, n))
            closed = [pair_classes(eval_monomial(MonomialSpec(n, k, n - m - k)), target)
                      for k in range(1, n - m + 1)]
            assert _monomial_weights(n, m) == (0, *closed), (n, m)


def test_each_n_m_is_one_cache_entry_built_once(monkeypatch):
    # the fill iterates the two rules: B'^k for k = 2 .. n-m, C^b . C_{n-2m,n} for b = 1 .. n-m-1
    calls = []
    for name in ("mul_bprime_top", "mul_c_top"):
        rule = getattr(chern_secant, name)
        monkeypatch.setattr(chern_secant, name,
                            lambda X, name=name, rule=rule: calls.append(name) or rule(X))
    _monomial_weights.cache_clear()
    n, m = 14, 3
    all_quadrics = 2 ** 10 * sum(comb(11, k) for k in range(m + 1, 12))  # C(2,2) = 1
    assert secant_degree_mu_intersection(SecantProblem(n, [2] * (n - m))) == all_quadrics
    assert _monomial_weights.cache_info().currsize == 1  # not n - m entries
    assert sorted(calls) == ["mul_bprime_top"] * (n - m - 1) + ["mul_c_top"] * (n - m - 1)
    p = SecantProblem(n, [3, 1] * 5 + [5])
    assert secant_degree_mu_intersection(p) == secant_degree_mu_closed(p)
    assert len(calls) == 2 * (n - m - 1)  # the second call multiplies nothing
    assert _monomial_weights.cache_info().currsize == 1
    secant_degree_mu_intersection(SecantProblem(n, [2] * (n - m - 1)))  # a new (n, m)
    assert _monomial_weights.cache_info().currsize == 2


def test_a_fractional_weight_fails_when_the_vector_is_built(monkeypatch):
    monkeypatch.setattr(chern_secant, "pair_classes", lambda X, Y: Fraction(1, 2))
    _monomial_weights.cache_clear()
    with pytest.raises(AssertionError, match="not all integers"):
        secant_degree_mu_intersection(SecantProblem(5, (2, 2, 2, 2)))
    assert _monomial_weights.cache_info().currsize == 0


def test_intersection_route_returns_the_closed_int():
    # degree-1 entries make the top coefficients of prod c2(O(d_i)) vanish
    rng = random.Random(19)
    problems = [SecantProblem(6, (1,) * 5), SecantProblem(5, (1, 1, 2, 2)), SecantProblem(9, (1, 2) * 3)]
    for _ in range(40):
        n = rng.randint(3, 14)
        m = rng.randint(0, (n - 2) // 2)
        problems.append(SecantProblem(n, [rng.choice((1, 1, 2, 3, 5)) for _ in range(n - m)]))
    for p in problems:
        got = secant_degree_mu_intersection(p)
        assert type(got) is int and got == secant_degree_mu_closed(p), p
    assert secant_degree_mu_intersection(problems[0]) == 0  # a line in P^6: every c2 is a pure C class


def test_secant_oracle_examples():
    assert secant_oracle(2, (2, 3)) == comb(6, 2) == 15
    assert secant_oracle(4, (2, 2, 2)) == comb(7, 2) - 5 == 16
    assert secant_oracle(6, (2, 2, 2, 2)) is None  # m = 2: out of oracle scope
    with pytest.raises(InvalidInput):
        secant_oracle(2, (2, 2, 2))


# One degree list of each length r <= n, for every n <= 12.
DOMAIN = [(n, (2,) * r) for n in range(1, 13) for r in range(1, n + 1)]


@pytest.mark.parametrize("n, degrees", [
    (0, (2,)), (2.5, (2,)), (3, ()), (3, (2, 0)), (3, (2, "2")), (3, (2, 1.0)), (2, (2, 2, 2)),
    # text, and bytes, which iterate as ints (b"222" as 50, 50, 50), are not degree lists
    (4, "222"), (4, b"222"), (4, bytearray(b"\x02\x02\x02")),
    # outside the domain, 2m+1 >= n
    *[(n, degrees) for n, degrees in DOMAIN if 2 * (n - len(degrees)) + 1 >= n],
])
def test_secant_oracle_refuses_what_secant_problem_refuses(n, degrees):
    with pytest.raises(InvalidInput) as expected:
        SecantProblem(n, degrees)
    with pytest.raises(InvalidInput) as got:
        secant_oracle(n, degrees)
    assert str(got.value) == str(expected.value)


def test_a_secant_problem_builds_exactly_inside_the_domain():
    inside = [(n, degrees) for n, degrees in DOMAIN if 2 * (n - len(degrees)) + 1 < n]
    assert len(inside) == 36
    for n, degrees in inside:
        m = n - len(degrees)
        assert SecantProblem(n, degrees).m == m
        assert (secant_oracle(n, degrees) is None) == (m >= 2), (n, degrees)
    with pytest.raises(InvalidInput, match=r"^need 2m\+1 < n for the secant degree; got m=3, n=6$"):
        SecantProblem(6, (2, 2, 2, 2))._replace(degrees=(2, 2, 2))  # every way of making one


def test_secant_oracle_takes_any_iterable_of_degrees():
    assert secant_oracle(4, (d for d in (2, 2, 2))) == 16


def secant_degree(n, degrees, mu1):
    """``deg(Sec X)`` as ``hilb2 secant`` writes it: the closed route divided by mu1."""
    argv = ["secant", "--n", str(n), "--degrees", ",".join(map(str, degrees)), "--mu1", str(mu1)]
    code, text = run_command(argv)
    return code, text.splitlines()[-1]


def test_secant_degree_examples():
    assert secant_degree(4, (2, 2, 2), 1) == (0, "deg(Sec X) = 16")
    assert secant_degree(4, (2, 2, 2), 2) == (0, "deg(Sec X) = 8")
    assert secant_degree(3, (2, 2), 1) == (  # 2m+1 = n: no formula
        2, "error: need 2m+1 < n for the secant degree; got m=1, n=3")


def test_expected_dimension_guard_on_both_paths():
    # m = 2, 2m+1 = 5 = n: refused as the problem is built, so neither route meets it
    with pytest.raises(InvalidInput, match=r"^need 2m\+1 < n for the secant degree; got m=2, n=5$"):
        SecantProblem(5, (2, 2, 2))


def intro(p):
    """The ``2^(k-1-m)`` normalization: the closed sum shifted right by m."""
    return secant_degree_mu_closed(p) >> p.m


def test_intro_variant_regression():
    # the alternative exponent normalization disagrees with the classical
    # count on every curve instance; it is kept only as a pinned foil
    assert intro(SecantProblem(4, (2, 2, 2))) == 8
    for n in (4, 5):
        for degrees in cartesian((2, 3), repeat=n - 1):
            assert intro(SecantProblem(n, degrees)) != curve_secant_count(n, degrees), (n, degrees)


def test_intro_variant_matches_proof_when_m_is_zero():
    # for m = 0 the two exponents coincide, and so do the CLI's two answers
    for degrees in cartesian((2, 3), repeat=3):
        argv = ["secant", "--n", "3", "--degrees", ",".join(map(str, degrees))]
        proof = run_command(argv)
        assert proof == run_command([*argv, "--variant", "intro"])
        assert proof[1].splitlines()[0] == f"deg(Sec X) * mu1 = {chord_count(degrees)}"


def test_secant_degree_divides_by_mu1_exactly():
    assert secant_degree_mu_closed(SecantProblem(4, (2, 2, 3))) == 42
    assert secant_degree(4, (2, 2, 3), 4) == (0, f"deg(Sec X) = {Fraction(42, 4)}")
