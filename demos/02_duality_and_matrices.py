"""Intersection matrices: ES/MS duality and the MS self-pairing pattern.

Run:  python demos/02_duality_and_matrices.py
"""

from hilb2 import BasisSymbol, intersection_matrix, pair_symbols

n = 3


def show(M, title):
    print(title)
    header = [""] + [str(s) for s in M.col_symbols]
    rows = [[str(r)] + [str(v) for v in row] for r, row in zip(M.row_symbols, M.entries)]
    widths = [max(len(line[c]) for line in [header] + rows) for c in range(len(header))]
    for line in [header] + rows:
        print("   " + "  ".join(cell.rjust(w) for cell, w in zip(line, widths)))
    print()


# Dimension-k ES classes against codimension-k MS classes: always diagonal
# with positive entries, which is exactly why the two bases cut out dual
# cones (nef for MS, effective for ES).
for k in (2, 3):
    show(intersection_matrix(n, k), f"ES_{k} x MS^{k} on P^{n}[2]:")

# The MS basis against itself follows a fixed block pattern: A meets A and
# B', B' meets everything, C meets only B', and the B'.B' entry doubles on
# balanced indices.
show(intersection_matrix(n, 3, "MS", "MS"), f"MS_3 x MS^3 on P^{n}[2]:")

x = BasisSymbol("B'", 1, 1, n)
y = BasisSymbol("B'", n - 1, n - 1, n)
print(f"balanced self-pairing: {x} . {y} =", pair_symbols(x, y))
x = BasisSymbol("B", 1, 2, n)
y = BasisSymbol("C", n - 2, n - 1, n)
print(f"B against C:           {x} . {y} =", pair_symbols(x, y))
