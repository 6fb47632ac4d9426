"""Degrees of secant varieties of complete intersections, three ways.

Run:  python demos/05_secant_degrees.py
"""

from fractions import Fraction

from hilb2 import (
    MonomialSpec,
    SecantProblem,
    bprime_top_power,
    eval_monomial,
    mul_bprime_top,
    secant_degree_mu_closed,
    secant_degree_mu_intersection,
    secant_oracle,
)

# The workhorse identity: closed-form powers of B'_{n-1,n-1}, checked here
# against one round of explicit multiplication.
n = 5
P2 = bprime_top_power(n, 2)
print(f"B'_{{{n-1},{n-1}}}^2 on P^{n}[2] = {P2}")
print("   one more multiplication:", mul_bprime_top(P2))
print("   closed form for k = 3:  ", bprime_top_power(n, 3))
print()

# Monomials B'^a . C^b shift indices down (1,1) per C factor.
print(f"B'^2 . C   on P^4[2] = {eval_monomial(MonomialSpec(4, 2, 1))}")
print()

# deg(Sec X) * mu1 for complete intersections, by the closed subset-sum
# formula, by intersection on the Hilbert scheme, and (for points and
# curves) by classical counts.
cases = [
    (2, (2, 2)),     # 4 points in the plane: C(4,2) = 6 chords
    (2, (2, 3)),     # 6 points: 15 chords
    (4, (2, 2, 2)),  # degree-8 genus-5 curve in P^4
    (4, (2, 2, 3)),  # degree-12 genus-13 curve
    (6, (2, 2, 2, 3)),  # a surface (m = 2): cross-path check only
]
print(f"{'X':<28} {'closed':>7} {'intersection':>13} {'classical':>10}")
for n, degrees in cases:
    p = SecantProblem(n, degrees)
    closed = secant_degree_mu_closed(p)
    inter = secant_degree_mu_intersection(p)
    oracle = secant_oracle(n, degrees)
    shown = oracle if oracle is not None else "-"
    label = f"P^{n}, degrees {degrees}"
    print(f"{label:<28} {closed:>7} {inter:>13} {shown:>10}")
print()

# The secant order mu1 is an input: it divides out at the end, exactly.
mu1 = 2
p = SecantProblem(4, (2, 2, 2))
print(f"with mu1 = {mu1}:  deg(Sec X) =", Fraction(secant_degree_mu_closed(p), mu1))
