"""A third route to the secant degrees, through the blow-up of ``P^n x P^n``
along the diagonal, in one variable.  It shares no code or formula with the
closed subset sum, the product engine or the fixed points.

``P^n[2]`` is the quotient of ``Bl = Bl_diag(P^n x P^n)`` by the swap, and the
quotient map has degree 2, so ``2 deg(Sec X) mu1 = int_Bl h_{2m}(E_1) prod c2(E_{d_i})``.
On ``Bl`` the pullback of ``E_d`` has Chern roots ``d h1`` and ``d h2 - e``
(``h1``, ``h2`` the hyperplane pullbacks, ``e`` the exceptional divisor), and
a top monomial integrates as

    int_Bl h1^a h2^b e^c = [a = b = n]            for c = 0,
                         = 0                      for 1 <= c < n,
                         = (-1)^(n-1) C(c, n)     for c >= n,

from ``e|_E = -zeta`` on ``E = P(T_{P^n})`` with ``s(T) = (1 + h)^(-(n+1))``.
Off ``c = 0`` the value depends on ``c`` alone, so ``h1 = h2 = 1`` loses
nothing there, and with ``D = prod d_i``

    2 deg(Sec X) mu1 = D^2 + (-1)^(n-1) sum_{c=n}^{2n} C(c, n) [eps^c] F(eps),
    F(eps) = h_{2m}(1, 1 - eps) prod d_i (d_i - eps),
    [eps^k] h_{2m}(1, 1 - eps) = (-1)^k C(2m+1, k+1).

The ``D^2`` is the ``e``-free part: ``h1^m h2^m`` of ``h_{2m}(h1, h2)`` times
``prod d_i^2 h1 h2``.  The route costs ``O(n r)`` integer work for ``r``
degrees, where the closed sum visits ``2^r`` subsets.
"""

import random
from math import comb, prod

from hilb2 import (SecantProblem, secant_degree_mu_closed, secant_degree_mu_intersection,
                   secant_oracle)


def h_coefficients(m):
    """``[eps^k] h_{2m}(1, 1 - eps)`` for k = 0..2m, from the closed form."""
    return [(-1) ** k * comb(2 * m + 1, k + 1) for k in range(2 * m + 1)]


def blowup_secant(n, degrees):
    """``deg(Sec X) * mu1`` by the univariate blow-up formula, in integers."""
    m = n - len(degrees)
    F = h_coefficients(m)
    for d in degrees:  # times d (d - eps)
        F = [d * (d * a - b) for a, b in zip(F + [0], [0] + F)]
    D = prod(degrees)
    tail = sum(comb(c, n) * F[c] for c in range(n, len(F)))  # F has degree n + m <= 2n
    twice = D * D + (-1) ** (n - 1) * tail
    assert twice % 2 == 0, (n, degrees)
    return twice // 2


def test_the_h_coefficients_expand_the_geometric_sum():
    # h_{2m}(1, x) = sum_{j <= 2m} x^j, expanded at x = 1 - eps term by term
    for m in range(8):
        direct = [sum((-1) ** k * comb(j, k) for j in range(2 * m + 1)) for k in range(2 * m + 1)]
        assert h_coefficients(m) == direct, m


def test_the_blowup_route_matches_the_closed_sum():
    rng = random.Random(909)
    checked = 0
    for n in range(2, 13):
        for m in range((n - 2) // 2 + 1):  # every m with 2m + 1 < n
            for _ in range(4):
                degrees = [rng.randint(1, 5) for _ in range(n - m)]
                assert blowup_secant(n, degrees) == secant_degree_mu_closed(
                    SecantProblem(n, degrees)), (n, degrees)
                checked += 1
    assert checked == 144


def test_the_blowup_route_reaches_past_the_closed_sums_subsets():
    # Forty quadrics in P^41: a curve, so the classical oracle applies too; the closed
    # sum would visit 2^40 subsets, the intersection route a weight vector for (41, 1).
    p = SecantProblem(41, [2] * 40)
    value = blowup_secant(41, [2] * 40)
    assert value == 604462909784774598983680
    assert value == secant_degree_mu_intersection(p) == secant_oracle(41, p.degrees)
