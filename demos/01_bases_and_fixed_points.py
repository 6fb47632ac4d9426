"""Bases of the Chow group and the torus-fixed points behind the BB basis.

Run:  python demos/01_bases_and_fixed_points.py
"""

from math import comb

from hilb2 import bb_cell_of, chow_rank, enumerate_basis, enumerate_fixed_points

n = 3
print(f"Chow group of P^{n}[2]: total rank {3 * comb(n + 1, 2)}")
print(f"graded ranks (codim 0..{2 * n}):",
      [chow_rank(n, k) for k in range(2 * n + 1)])
print()

# The same ranks fall out of enumerating any of the three bases.
for basis in ("BB", "ES", "MS"):
    counts = [len(enumerate_basis(n, basis, codim=k)) for k in range(2 * n + 1)]
    print(f"{basis} symbols per codimension: {counts}")
print()

print("MS basis in dimension 3 (increasing first index within each family):")
print("  ", " ".join(str(s) for s in enumerate_basis(n, "MS", dim=3)))
print("MS basis in codimension 3 (decreasing first index):")
print("  ", " ".join(str(s) for s in enumerate_basis(n, "MS", codim=3)))
print()

# Each BB symbol is the class of the attracting cell of one torus-fixed
# monomial ideal, and cell dimensions reproduce the graded ranks.
print(f"the {3 * comb(n + 1, 2)} fixed points of P^{n}[2] and their cells:")
for fp in enumerate_fixed_points(n):
    cell = bb_cell_of(fp)
    gens = ", ".join(fp.generators())
    print(f"  {fp} = ({gens})  ->  {cell}, cell dimension {cell.dimension}")
