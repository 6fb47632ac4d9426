"""Products with the two top codimension-2 classes.

Every product is one mechanism: a *rule* maps the key ``(family, i, j, n)``
of one basis symbol (a ``BasisSymbol`` is its own key) to a sparse list of
``(key, int)`` terms, and :func:`_apply` extends it linearly to a class by
``chow.linear_sum``, the loop the pairing rule shares.  Each rule builds its
terms with ``chow.term``, which lists no term whose indices leave the family's
range: that output is the zero class.  The engine multiplies by
``B'_{n-1,n-1}`` or ``C_{n-1,n-1}`` only, with one rule per family:

    B'_{n-1,n-1} . A_{i,j}  = 2 B'_{i-1,j-1}
    B'_{n-1,n-1} . B_{i,j}  = 2 B_{i-2,j}
    B'_{n-1,n-1} . B'_{i,j} = 2 B'_{i-1,j-1} + 2 B'_{i-2,j} - 2 A_{i-2,j}
    B'_{n-1,n-1} . C_{i,j}  =   A_{i-1,j-1} + B'_{i-1,j-1} + 2 C_{i,j-2}
    C_{n-1,n-1}  . F_{i,j}  =   F_{i-1,j-1}        for F = A, A', B, B', C

At i = j the C row is ``B'_{i-1,i-1}``, and ``C_{n-1,n-1} . B_{1,1} = 2 B_{0,0}``
is twice the point class, as ``2 B'_{1,1} - 4 C_{1,1}`` shifts to ``2 B'_{0,0}``.
The B' rule reads A' in MS coordinates, ``A'_{i,j} = A_{i,j} - C_{i,j}`` (the table's
``A'.A = 1`` and ``A'.B' = A'.C = 0``), so it states no constant for A'.

The B' rule (for i < j and i = j alike, with ``B'_{0,0} -> 0``) follows
from the A, B and balanced C rules and the basis-change identities

    2 B'_{i,j} = B_{i,j} + 2 A_{i,j}        for i < j,
    2 B'_{i,i} = B_{i,i} + 4 C_{i,i}        for i > 0,
    2 B'_{0,0} = 2 B_{0,0}:

multiply the right-hand side, rewrite the B output in MS coordinates
(:func:`to_ms`) and halve.  ``tests/test_products.py`` carries that
derivation out through the public API and checks the stated rule against it.
Iterating reproduces the closed form

    B'_{n-1,n-1}^k = 2^(k-1) (B'_{n-k,n-k}
                     + sum_i (B'_{n-k-i,n-k+i} - A_{n-k-i,n-k+i}))

with the sum running to k-1 while 2k-1 <= n and to n-k once n <= 2k-1.

Coefficients stay plain ``int`` through the rules: :func:`_apply` scales a
class to integer numerators over one common denominator and divides once per
output coefficient, building each output symbol once, through the validating
``BasisSymbol`` constructor, and one ``GradedClass``.
"""

from __future__ import annotations

from fractions import Fraction

from .chow import (A, AP, B, BP, C, BasisSymbol, GradedClass, linear_sum, require_ambient,
                   require_int, require_type, scaled_terms, shown, term, value_type)
from .errors import InvalidInput, UnsupportedMonomial


def _build(n: int, acc: dict, d: int = 1) -> GradedClass:
    """The class of a key -> numerator dict over the denominator ``d``: one
    symbol and one division per nonzero key (none when ``d`` is 1)."""
    return GradedClass(n, [
        (BasisSymbol(*key), c if d == 1 else Fraction(c, d)) for key, c in acc.items() if c
    ])


def _apply(rule, X: GradedClass, *args) -> GradedClass:
    """Extend a per-key rule linearly: ``sum c * rule(s, *args)`` over the terms of X."""
    terms, d = scaled_terms(X)
    return _build(X.n, linear_sum(rule, terms, *args), d)


def _ms_terms(key: tuple) -> list:
    """Rule: an A' or B key in MS coordinates; any other key stays as it is."""
    family, i, j, n = key
    if family is AP:
        return term(A, i, j, n, 1) + term(C, i, j, n, -1)
    if family is not B:
        return [(key, 1)]
    if i == j == 0:
        return [((BP, 0, 0, n), 1)]
    if i == j:
        return [((BP, i, i, n), 2), ((C, i, i, n), -4)]
    return [((BP, i, j, n), 2), ((A, i, j, n), -2)]


def to_ms(x: BasisSymbol) -> GradedClass:
    """Rewrite a symbol of any family in MS coordinates.

    ``A'_{i,j} -> A_{i,j} - C_{i,j}`` (``A'_{0,j} -> A_{0,j}``),
    ``B_{i,j} -> 2B'_{i,j} - 2A_{i,j}`` for i < j,
    ``B_{i,i} -> 2B'_{i,i} - 4C_{i,i}`` for i > 0, and ``B_{0,0} -> B'_{0,0}``
    (both are the point class); an A, B' or C symbol stays as it is.
    """
    require_type(x, BasisSymbol, "to_ms")
    return _build(x.n, dict(_ms_terms(x)))


def _bprime_rule(key: tuple) -> list:
    """Rule for ``B'_{n-1,n-1} . F_{i,j}``: the A, B, B' and C rules, and A' via to_ms."""
    family, i, j, n = key
    if family is BP:
        return term(BP, i - 1, j - 1, n, 2) + term(BP, i - 2, j, n, 2) + term(A, i - 2, j, n, -2)
    if family is A:
        return term(BP, i - 1, j - 1, n, 2)
    if family is B:
        return term(B, i - 2, j, n, 2)
    if family is C:
        return term(A, i - 1, j - 1, n, 1) + term(BP, i - 1, j - 1, n, 1) + term(C, i, j - 2, n, 2)
    return list(linear_sum(_bprime_rule, _ms_terms(key)).items())


def _c_shift(key: tuple, b: int = 1) -> list:
    """Rule for ``C_{n-1,n-1}^b . F_{i,j}`` on a key of any family.

    The C rules lower the index pair by (1, 1), and a pair that falls below
    its lower bound never comes back into range, so b products are one shift
    by (b, b), except that ``B_{b,b}`` lands on the point class ``B_{0,0}`` twice.
    """
    family, i, j, n = key
    return term(family, i - b, j - b, n, 2 if family is B and i == j == b > 0 else 1)


def mul_bprime_top(X: GradedClass) -> GradedClass:
    """Multiply a class by ``B'_{n-1,n-1}``.

    Terms may be of any family; the image of an MS-coordinate class stays in
    MS coordinates, and an A' term goes into them.
    """
    require_type(X, GradedClass, "mul_bprime_top")
    return _apply(_bprime_rule, X)


def mul_c_top(X: GradedClass) -> GradedClass:
    """Multiply a class by ``C_{n-1,n-1}``.

    The rules shift the index pair down by (1, 1) and truncate to zero.
    """
    require_type(X, GradedClass, "mul_c_top")
    return _apply(_c_shift, X)


def bprime_top_power(n: int, k: int) -> GradedClass:
    """Closed form of ``B'_{n-1,n-1}^k`` for 1 <= k <= n.

    With ``c = n - k`` it is ``2^(k-1) B'_{c,c} + 2^(k-2) sum_i B_{c-i,c+i}``
    for ``1 <= i <= min(k-1, c)``, which the :func:`to_ms` rule turns into
    the MS form of the module docstring; any other k raises ``InvalidInput``.
    """
    require_ambient(n)
    require_int(k, "exponent", 1, n)
    c, lead = n - k, 2 ** (k - 1)
    closed = [((BP, c, c, n), lead)] + [((B, c - i, c + i, n), lead // 2)
                                        for i in range(1, min(k - 1, c) + 1)]
    return _build(n, linear_sum(_ms_terms, closed))


class MonomialSpec(value_type("MonomialSpec", "n a b")):
    """Exponents of a monomial ``B'_{n-1,n-1}^a . C_{n-1,n-1}^b``."""

    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int):
        require_ambient(n)
        require_int(a, "exponent a", 0)
        require_int(b, "exponent b", 0)
        if a + b > n:
            raise InvalidInput(f"total codimension {shown(2 * (a + b))} exceeds the ring dimension "
                               f"{shown(2 * n)}")
        return tuple.__new__(cls, (n, a, b))


def eval_monomial(spec: MonomialSpec) -> GradedClass:
    """Evaluate ``B'_{n-1,n-1}^a . C_{n-1,n-1}^b`` (a >= 1) in MS coordinates.

    The shift covers a = 0 too, but ``hilb2 power --k 0`` answers exit code
    3, so a pure power of ``C_{n-1,n-1}`` is still refused.
    """
    require_type(spec, MonomialSpec, "eval_monomial")
    if spec.a == 0:
        raise UnsupportedMonomial("no rule for pure powers of C_{n-1,n-1} (a = 0)")
    return _apply(_c_shift, bprime_top_power(spec.n, spec.a), spec.b)
