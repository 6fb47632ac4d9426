"""Acceptance suite.

One test per release criterion; each prints a single PASS/FAIL line (visible
with ``pytest -s`` or in the captured-output section of a failure).  All
checks are exact; the only tolerances are the stated runtime budgets.
"""

import time
from itertools import product as cartesian
from math import comb, prod

import pytest

from hilb2 import (
    BasisSymbol,
    GradedClass,
    InvalidInput,
    MonomialSpec,
    SecantProblem,
    bb_cell_of,
    bprime_top_power,
    chern_taut,
    chow_rank,
    enumerate_basis,
    enumerate_fixed_points,
    eval_monomial,
    intersection_matrix,
    is_effective,
    is_nef,
    mul_bprime_top,
    pair_classes,
    pair_symbols,
    secant_degree_mu_closed,
    secant_degree_mu_intersection,
    to_ms,
)

S = BasisSymbol


def report(num, ok, desc):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {desc}")


def run_criterion(num, desc, body):
    try:
        body()
    except BaseException:
        report(num, False, desc)
        raise
    report(num, True, desc)


def test_criterion_1_rank_identities():
    def body():
        start = time.perf_counter()
        for n in range(1, 31):
            assert sum(chow_rank(n, k) for k in range(0, 2 * n + 1)) == 3 * comb(n + 1, 2)
            by_dim = {}
            for fp in enumerate_fixed_points(n):
                dim = bb_cell_of(fp).dimension
                by_dim[dim] = by_dim.get(dim, 0) + 1
            for k in range(0, 2 * n + 1):
                rank = chow_rank(n, k)
                for basis in ("BB", "ES", "MS"):
                    assert len(enumerate_basis(n, basis, codim=k)) == rank
                assert by_dim.get(2 * n - k, 0) == rank
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    run_criterion(1, "rank identities for n = 1..30 (< 1 s)", body)


def test_criterion_2_closed_form_vs_iteration():
    def body():
        start = time.perf_counter()
        regimes = set()
        for n in range(1, 13):
            X = GradedClass.from_symbol(S("B'", n - 1, n - 1, n))
            for k in range(1, n + 1):
                regimes.add(2 * k - 1 <= n)
                assert bprime_top_power(n, k) == X, (n, k)
                X = mul_bprime_top(X)
        assert regimes == {True, False}  # both branches of the closed form hit
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    run_criterion(2, "closed-form powers equal iterated products, n = 1..12 (< 1 s)", body)


def test_criterion_3_tautological_pairing_table():
    def body():
        targets = [
            (("A", 0, 1), 1, lambda d: d - 1),
            (("B'", 0, 1), 1, lambda d: d),
            (("A", 0, 2), 2, lambda d: 0),
            (("B'", 0, 2), 2, lambda d: 0),
            (("B'", 1, 1), 2, lambda d: d * d),
            (("C", 1, 1), 2, lambda d: comb(d, 2)),
        ]
        for n in range(2, 9):
            for d in range(1, 7):
                c1, c2 = chern_taut(n, d)
                for (fam, i, j), which, expect in targets:
                    if fam == "B'" and j > n - 1:
                        continue  # absent symbol at n = 2, not a zero entry
                    got = pair_classes(
                        c1 if which == 1 else c2,
                        GradedClass.from_symbol(S(fam, i, j, n)),
                    )
                    assert got == expect(d), (n, d, fam, i, j)

    run_criterion(3, "six tautological Chern pairings for n = 2..8, d = 1..6", body)


def m0_instances():
    for n in range(2, 7):
        for degrees in cartesian((2, 3), repeat=n):
            yield n, degrees


def m1_instances():
    for n in range(4, 9):
        for degrees in cartesian((2, 3, 4), repeat=n - 1):
            yield n, degrees


def test_criterion_4_secant_oracles():
    def body():
        start = time.perf_counter()
        assert secant_degree_mu_closed(SecantProblem(2, (2, 2))) == 6
        assert secant_degree_mu_closed(SecantProblem(2, (2, 3))) == 15
        for n, degrees in m0_instances():
            D = prod(degrees)
            assert secant_degree_mu_closed(SecantProblem(n, degrees)) == comb(D, 2), (n, degrees)
        assert secant_degree_mu_closed(SecantProblem(4, (2, 2, 2))) == 16
        assert secant_degree_mu_closed(SecantProblem(4, (2, 2, 3))) == 42
        for n, degrees in m1_instances():
            D = prod(degrees)
            g = (D * (sum(degrees) - n - 1) + 2) // 2
            assert secant_degree_mu_closed(SecantProblem(n, degrees)) == comb(D - 1, 2) - g, (
                n,
                degrees,
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"

    run_criterion(4, "secant degrees match chord (m=0) and curve (m=1) oracles (< 5 s)", body)


def test_criterion_5_path_equivalence():
    def body():
        for n, degrees in list(m0_instances()) + list(m1_instances()):
            p = SecantProblem(n, degrees)
            assert secant_degree_mu_intersection(p) == secant_degree_mu_closed(p), (n, degrees)
        # m = 2: no external oracle, cross-path equality is the check.
        # n = 5 violates 2m+1 < n, so no problem is built for either path.
        for degrees in cartesian((2, 3), repeat=3):
            with pytest.raises(InvalidInput):
                SecantProblem(5, degrees)
        for n in range(6, 9):
            for degrees in cartesian((2, 3), repeat=n - 2):
                p = SecantProblem(n, degrees)
                assert secant_degree_mu_intersection(p) == secant_degree_mu_closed(p), (
                    n,
                    degrees,
                )

    run_criterion(5, "closed formula equals intersection-theoretic evaluation", body)


def test_criterion_6_variant_regression():
    def body():
        # the 2^(k-1-m) sum is the closed sum shifted right by m (m = 1 here)
        assert secant_degree_mu_closed(SecantProblem(4, (2, 2, 2))) >> 1 == 8
        for n, degrees in m1_instances():
            D = prod(degrees)
            g = (D * (sum(degrees) - n - 1) + 2) // 2
            oracle = comb(D - 1, 2) - g
            intro = secant_degree_mu_closed(SecantProblem(n, degrees)) >> 1
            assert intro != oracle, (n, degrees)

    run_criterion(6, "the 2^(k-1-m) exponent variant disagrees with every m=1 oracle", body)


NONZERO_VALUE = {
    ("A", "A"): 1,
    ("A", "B'"): 1,
    ("B'", "A"): 1,
    ("B'", "C"): 1,
    ("C", "B'"): 1,
}


def expected_ms_entry(x, y):
    if (y.i, y.j) != (x.n - x.j, x.n - x.i):
        return 0
    key = (x.family.value, y.family.value)
    if key == ("B'", "B'"):
        return 2 if x.i == x.j else 1
    return NONZERO_VALUE.get(key, 0)


def test_criterion_7_duality_and_zero_patterns():
    def body():
        for n in range(1, 11):
            ms_all = enumerate_basis(n, "MS")
            es_extra = [s for s in enumerate_basis(n, "ES") if s.family.value in ("A'", "B")]
            for k in range(0, 2 * n + 1):
                M = intersection_matrix(n, k)
                for r, row in enumerate(M.entries):
                    assert row[r] > 0 and all(v == 0 for c, v in enumerate(row) if c != r)
                M = intersection_matrix(n, k, "MS", "MS")
                for r, x in enumerate(M.row_symbols):
                    for c, y in enumerate(M.col_symbols):
                        assert M.entries[r][c] == expected_ms_entry(x, y), (str(x), str(y))
            # every always-zero family pair vanishes in complementary codimension
            for x in ms_all + es_extra:
                for y in ms_all:
                    if x.codimension + y.codimension != 2 * n:
                        continue
                    key = (x.family.value, y.family.value)
                    if key in {("A", "C"), ("C", "A"), ("C", "C"), ("A'", "B'"),
                               ("A'", "C"), ("B", "A"), ("B", "B'")}:
                        assert pair_symbols(x, y) == 0, (str(x), str(y))

    run_criterion(7, "ES/MS duality is diagonal and zero patterns hold for n = 1..10", body)


def test_criterion_8_cone_suite():
    def body():
        for n in range(1, 9):
            for sym in enumerate_basis(n, "MS"):
                assert is_nef(GradedClass.from_symbol(sym)), str(sym)
            for sym in enumerate_basis(n, "ES"):
                if sym.family.value == "B":
                    assert is_effective(to_ms(sym)), str(sym)
        X = to_ms(S("B", 1, 1, 2))
        assert X == GradedClass(
            2, [(S("B'", 1, 1, 2), 2), (S("C", 1, 1, 2), -4)]
        )
        assert is_effective(X)
        pairings = [
            pair_classes(X, GradedClass.from_symbol(y))
            for y in enumerate_basis(2, "MS", codim=2)
        ]
        assert pairings == [0, 0, 2]

    run_criterion(8, "MS generators are nef; converted B generators are effective", body)


def test_criterion_9_triple_product_vanishing():
    def body():
        checked = 0
        for n in range(2, 9):
            for m in range(1, n):
                if 2 * m + 1 >= n:
                    break
                target = GradedClass.from_symbol(S("C", n - 2 * m, n, n))
                for k in range(1, m + 1):
                    X = eval_monomial(MonomialSpec(n, k, n - m - k))
                    assert pair_classes(X, target) == 0, (n, m, k)
                    checked += 1
        assert checked > 0

    run_criterion(9, "B'^k C^(n-m-k) pairs to zero with C_{n-2m,n} for k <= m", body)
