"""Chern classes of tautological bundles and their pairing table.

Run:  python demos/04_chern_classes.py
"""

from math import comb

from hilb2 import BasisSymbol, GradedClass, chern_taut, pair_classes

n = 4
print(f"tautological bundles of O(d) on P^{n}[2] (rank 2, so two Chern classes):")
for d in range(1, 5):
    c1, c2 = chern_taut(n, d)
    print(f"  d={d}:  c1 = {str(c1):<22}  c2 = {c2}")
print()

# The pairings against the dimension-1 and dimension-2 MS symbols recover
# the familiar counts: d-1 and d points for c1, and 0, 0, d^2, C(d,2) for c2.
d = 5
c1, c2 = chern_taut(n, d)
targets1 = [("A", 0, 1), ("B'", 0, 1)]
targets2 = [("A", 0, 2), ("B'", 0, 2), ("B'", 1, 1), ("C", 1, 1)]
print(f"pairings for d = {d}:")
for fam, i, j in targets1:
    t = GradedClass.from_symbol(BasisSymbol(fam, i, j, n))
    print(f"  c1 . {fam}_{{{i},{j}}} = {pair_classes(c1, t)}")
for fam, i, j in targets2:
    t = GradedClass.from_symbol(BasisSymbol(fam, i, j, n))
    print(f"  c2 . {fam}_{{{i},{j}}} = {pair_classes(c2, t)}")
print(f"  (expected: {d-1}, {d}, 0, 0, {d*d}, {comb(d,2)})")
