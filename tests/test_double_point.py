"""The double-point formula: a derivation of the secant degrees for every m
that shares no code or formula with the closed subset sum or with the
intersection route on the Hilbert scheme (Fulton, *Intersection Theory*,
§9.3).

Project a complete intersection ``X^m c P^n`` of degrees ``d_1..d_{n-m}``
from a general centre to ``P^{2m}``.  Its double points come in pairs, one
pair per secant line through the centre, so with ``D = prod d_i``

    2 deg(Sec X) mu1 = D^2 - D [h^m] prod(1 + d_i h) (1 + h)^(-(n-2m)),

where the second term is ``c_m`` of the virtual normal bundle of the map,
``(1+h)^(2m+1) / c(T_X)``, on ``X``.  For m = 0 this is ``C(D, 2)`` and for
m = 1 the adjunction genus formula, which ``secant_oracle`` states.
"""

import random
from math import comb, prod

from hilb2 import (
    SecantProblem,
    secant_degree_mu_closed,
    secant_degree_mu_intersection,
    secant_oracle,
)


def double_points(n, degrees):
    """``deg(Sec X) * mu1`` by the double-point formula, in integers."""
    m = n - len(degrees)
    normal = [1]  # prod(1 + d h), up to h^m
    for d in degrees:
        normal = [a + d * b for a, b in zip(normal + [0], [0] + normal)][: m + 1]
    # [h^j] (1 + h)^(-r) = (-1)^j C(r + j - 1, j)
    r = n - 2 * m
    c_m = sum(normal[i] * (-1) ** (m - i) * comb(r + m - i - 1, m - i) for i in range(m + 1))
    D = prod(degrees)
    twice = D * D - D * c_m
    assert twice % 2 == 0, (n, degrees)
    return twice // 2


def test_double_point_examples():
    assert double_points(2, (2, 3)) == 15  # six points: C(6, 2) chords
    assert double_points(4, (2, 2, 2)) == 16  # a curve of degree 8 and genus 5: C(7, 2) - 5
    assert double_points(3, (1, 1, 1)) == 0  # one point has no chord


def test_double_points_agree_with_both_routes_for_every_m():
    rng = random.Random(2103)
    cases = 0
    for n in range(3, 17):
        for m in range((n - 2) // 2 + 1):  # every m with 2m+1 < n
            for _ in range(6):
                degrees = [rng.randint(1, 5) for _ in range(n - m)]
                p = SecantProblem(n, degrees)
                want = double_points(n, degrees)
                assert secant_degree_mu_closed(p) == want, (n, degrees)
                assert secant_degree_mu_intersection(p) == want, (n, degrees)
                if m <= 1:
                    assert secant_oracle(n, degrees) == want, (n, degrees)
                else:
                    assert secant_oracle(n, degrees) is None
                cases += 1
    assert cases == 378
