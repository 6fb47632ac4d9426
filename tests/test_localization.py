"""Torus localization: a derivation of the secant degrees and of the
C-family pairings that shares no code or formula with the closed secant sum,
the product rules or the pairing rule (Bott's residue formula; Atiyah-Bott
1984, Ellingsrud-Stromme, JAMS 1996).

The torus acts on the coordinate ``x_k`` of ``P^n`` with weight ``w_k``, all
weights distinct, and ``p_k`` is the k-th coordinate point.  At each fixed
point that ``enumerate_fixed_points`` lists, the test states the weights of
the tangent space ``Hom(I_Z, O_Z)`` and the two roots of ``E_d``, the rank-2
bundle with fibre ``H^0(O_Z(d))``:

* ``I_{i,j}``, the reduced pair ``{p_i, p_j}``: tangent weights
  ``{w_i - w_k}_{k != i}`` and ``{w_j - w_k}_{k != j}``; roots ``d*w_i``,
  ``d*w_j``.
* ``J_{i,j}``, the double point at ``p_i`` pointing to ``p_j``, and
  ``K_{i,j}``, the one at ``p_j`` pointing to ``p_i``.  For the double point
  at ``p_p`` pointing to ``p_q``, with ``chi_k = w_k - w_p``: tangent weights
  ``{-chi_k}_{k != p}``, ``-2 chi_q`` and ``{chi_q - chi_k}_{k != p,q}``;
  roots ``d*w_p`` and ``d*w_p + chi_q``.

An integral is the exact sum, over the fixed points, of the integrand at the
roots divided by the product of the tangent weights.  A top-degree integrand
gives the same integer at every weight vector with distinct entries; a
lower-degree one gives 0.
"""

import random
from fractions import Fraction
from math import prod

from hilb2 import (
    BasisSymbol,
    GradedClass,
    IdealKind,
    MonomialSpec,
    SecantProblem,
    chern_taut,
    enumerate_fixed_points,
    eval_monomial,
    pair_classes,
    secant_degree_mu_closed,
)


def local_data(fp, w):
    """``(tangent weights, roots)`` at a fixed point, where ``roots(d)`` is the
    pair of roots of ``E_d`` there."""
    n, i, j = fp.n, fp.i, fp.j
    if fp.kind is IdealKind.I:
        tangent = [w[a] - w[k] for a in (i, j) for k in range(n + 1) if k != a]
        return tangent, lambda d: (d * w[i], d * w[j])
    p, q = (i, j) if fp.kind is IdealKind.J else (j, i)
    chi = [wk - w[p] for wk in w]
    tangent = [-chi[k] for k in range(n + 1) if k != p] + [-2 * chi[q]]
    tangent += [chi[q] - chi[k] for k in range(n + 1) if k not in (p, q)]
    return tangent, lambda d: (d * w[p], d * w[p] + chi[q])


def integrate(n, integrand, w):
    """``∫ integrand`` over ``P^n[2]``; ``integrand(roots)`` is its value at a
    fixed point, read from the roots of the tautological bundles there."""
    total = Fraction(0)
    for fp in enumerate_fixed_points(n):
        tangent, roots = local_data(fp, w)
        total += Fraction(integrand(roots), prod(tangent))
    return total


def h(k, x, y):
    """The complete homogeneous symmetric polynomial of degree k in x, y."""
    return sum(x**e * y ** (k - e) for e in range(k + 1))


def c2(roots, d):
    x, y = roots(d)
    return x * y


def weight_vectors(rng, n):
    """Two weight vectors, each with distinct entries."""
    return [rng.sample(range(-60, 61), n + 1) for _ in range(2)]


def integer_integral(n, integrand, rng):
    """The integral, checked to be one integer at two weight vectors."""
    values = {integrate(n, integrand, w) for w in weight_vectors(rng, n)}
    assert len(values) == 1, values
    (value,) = values
    assert value.denominator == 1, value
    return int(value)


def test_an_integrand_below_top_degree_integrates_to_zero():
    rng = random.Random(2)
    for n in range(1, 6):
        for w in weight_vectors(rng, n):
            assert integrate(n, lambda roots: 1, w) == 0
            for k in range(n):  # c2(E_1)^k, of degree 2k < 2n
                assert integrate(n, lambda roots: c2(roots, 1) ** k, w) == 0
            assert integrate(n, lambda roots: h(2 * n - 1, *roots(1)), w) == 0


def test_secant_degrees_by_localization():
    # deg(Sec X) * mu1 = ∫ prod_i c2(E_{d_i}) * h_{2m}(roots of E_1).
    rng = random.Random(2024)
    cases = 0
    for n in range(3, 10):
        for m in range(n // 2):  # every m with 2m + 1 < n
            for _ in range(4):
                degrees = [rng.randint(1, 5) for _ in range(n - m)]

                def integrand(roots, degrees=degrees, m=m):
                    return h(2 * m, *roots(1)) * prod(c2(roots, d) for d in degrees)

                got = integer_integral(n, integrand, rng)
                assert got == secant_degree_mu_closed(SecantProblem(n, degrees)), (n, degrees)
                cases += 1
    assert cases == 76


def test_the_chern_classes_are_the_bridge_to_the_product_engine():
    # c2(E_1) = C_{n-1,n-1} and c2(E_2) = B'_{n-1,n-1} + 2 C_{n-1,n-1}, so
    # B'_{n-1,n-1} = c2(E_2) - 2 c2(E_1) in the test below.
    for n in range(2, 9):
        bp = GradedClass.from_symbol(BasisSymbol("B'", n - 1, n - 1, n))
        c = GradedClass.from_symbol(BasisSymbol("C", n - 1, n - 1, n))
        assert chern_taut(n, 1)[1] == c
        assert chern_taut(n, 2)[1] == bp + 2 * c


def test_c_family_pairings_by_localization():
    # C_{i,j} = c2(E_1)^{n-j} * h_{j-i}(roots of E_1), so
    # B'^a C^b . C_{i,j} = ∫ (c2(E_2) - 2 c2(E_1))^a * c2(E_1)^{b+n-j} * h_{j-i}.
    rng = random.Random(7)
    cases = 0
    for n in range(1, 9):
        for a in range(1, n + 1):
            for b in range(n - a + 1):
                X = eval_monomial(MonomialSpec(n, a, b))
                for i in range(1, a + b + 1):
                    j = 2 * (a + b) - i
                    if j > n:
                        continue

                    def integrand(roots, a=a, b=b, i=i, j=j):
                        bprime = c2(roots, 2) - 2 * c2(roots, 1)
                        return (bprime**a * c2(roots, 1) ** (b + n - j)
                                * h(j - i, *roots(1)))

                    target = GradedClass.from_symbol(BasisSymbol("C", i, j, n))
                    assert integer_integral(n, integrand, rng) == pair_classes(X, target), (
                        n, a, b, i, j)
                    cases += 1
    assert cases == 250
