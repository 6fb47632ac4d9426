"""Integrality of the pairing table, checked by exact determinants.

The cell closures of a torus action with isolated fixed points form a
Z-basis of the Chow group, and the intersection pairing is perfect over Z
(Białynicki-Birula; Fulton, *Intersection Theory*, Ex. 19.1.11), so a Z-basis
has a Gram matrix of determinant +-1 in each pair of complementary gradings.
The determinants here come from ``Fraction`` elimination, which shares no
code or formula with the product and pairing rules that fill the matrices.

In the code's normalization ``B_{i,j}``, (i, j) != (0, 0), pairs as twice a
primitive class: the BB Gram matrix is unimodular with those classes halved,
and only then.
"""

from fractions import Fraction

import pytest

from hilb2 import (BasisSymbol, Family, GradedClass, chow_rank, enumerate_basis,
                   intersection_matrix, pair_classes, to_ms)

NS = range(1, 9)


def det(rows) -> Fraction:
    """The determinant of a square matrix, by Gaussian elimination over ``Fraction``."""
    m = [[Fraction(v) for v in row] for row in rows]
    out = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot], out = m[pivot], m[c], -out
        out *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return out


def two_exponent(d: Fraction) -> int:
    """``a`` with ``|d| == 2**a``; fails for any other determinant."""
    a = abs(d).numerator.bit_length() - 1
    assert abs(d) == 2 ** a, d
    return a


def bb_gram(n: int, k: int, halve: bool) -> list[list[Fraction]]:
    """BB dim-k symbols against BB codim-k symbols, the second factor's B terms
    rewritten in MS coordinates, each ``B_{i,j}`` but ``B_{0,0}`` halved when
    ``halve``."""
    def weight(sym):
        return Fraction(1, 2) if halve and sym.family is Family.B and sym[1:3] != (0, 0) else 1

    rows = [weight(s) * GradedClass.from_symbol(s) for s in enumerate_basis(n, "BB", dim=k)]
    cols = [weight(s) * to_ms(s) for s in enumerate_basis(n, "BB", codim=k)]
    return [[pair_classes(x, y) for y in cols] for x in rows]


def test_det_finds_a_sign_and_a_singular_matrix():
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, 1], [1, 1]]) == 1
    assert det([[1, 2], [2, 4]]) == 0
    assert det([[Fraction(1, 2), 0], [0, 4]]) == 2
    assert two_exponent(Fraction(-8)) == 3


@pytest.mark.parametrize("n", NS)
def test_ms_gram_is_unimodular(n):
    for k in range(2 * n + 1):
        M = intersection_matrix(n, k, "MS", "MS")
        assert len(M.entries) == chow_rank(n, k)
        assert abs(det(M.entries)) == 1, (n, k)


@pytest.mark.parametrize("n", NS)
def test_bb_gram_with_halved_b_is_unimodular(n):
    for k in range(2 * n + 1):
        assert abs(det(bb_gram(n, k, halve=True))) == 1, (n, k)


@pytest.mark.parametrize("n", NS)
def test_bb_gram_without_halving_is_a_power_of_two(n):
    # a > 0 exactly in the gradings 1 .. 2n-1, where a B_{i,j} other than B_{0,0} sits
    exponents = [two_exponent(det(bb_gram(n, k, halve=False))) for k in range(2 * n + 1)]
    assert [k for k, a in enumerate(exponents) if a] == (list(range(1, 2 * n)) if n >= 2 else [])


def test_the_p2_check_of_the_b_normalization():
    # the J_{0,2} cell curve F meets H - delta = C_{1,2} once; B_{0,1} pairs with it as 2
    F = GradedClass.from_symbol(BasisSymbol(Family.B, 0, 1, 2))
    assert pair_classes(F, GradedClass.from_symbol(BasisSymbol(Family.C, 1, 2, 2))) == 2
