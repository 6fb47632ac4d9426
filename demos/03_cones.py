"""Nef and effective cone membership for cycle classes in any codimension.

Run:  python demos/03_cones.py
"""

from hilb2 import (
    BasisSymbol,
    GradedClass,
    effectivity_pairings,
    enumerate_basis,
    is_effective,
    is_nef,
    to_ms,
)

n = 2
A02 = GradedClass.from_symbol(BasisSymbol("A", 0, 2, n))
C11 = GradedClass.from_symbol(BasisSymbol("C", 1, 1, n))

# MS generators span the nef cones, so nef-ness in MS coordinates is just
# coefficient nonnegativity.
X = 2 * A02 + C11
Y = A02 - C11
print(f"is_nef({X}) =", is_nef(X))
print(f"is_nef({Y}) =", is_nef(Y))
print()

# Effectivity is the dual test: pair against every MS generator of
# complementary grading.  A class of any family is read in MS coordinates, so
# B_{1,1} is tested as it is; its MS coordinates show why it is not nef, and
# its pairing vector shows it sits on two walls of the effective cone.
B11 = GradedClass.from_symbol(BasisSymbol("B", 1, 1, n))
print(f"B_{{1,1}} in MS coordinates: {to_ms(BasisSymbol('B', 1, 1, n))}")
print("is_nef:", is_nef(B11))
print("pairings against MS^2:")
for sym, value in effectivity_pairings(B11):
    print(f"   . {sym} = {value}")
print("is_effective:", is_effective(B11))
print()

Z = -A02
print(f"is_effective({Z}) =", is_effective(Z))
print()

# Every single basis symbol behaves as expected.
print("all MS generators nef: ",
      all(is_nef(GradedClass.from_symbol(s)) for s in enumerate_basis(n, "MS")))
print("all ES generators effective: ",
      all(is_effective(GradedClass.from_symbol(s)) for s in enumerate_basis(n, "ES")))
