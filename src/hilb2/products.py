"""Products with the two top codimension-2 classes.

Every product is one mechanism: a *rule* maps a single basis symbol to a
sparse list of ``(symbol, coeff)`` terms, and :func:`_apply` extends it
linearly to a class.  A rule output whose indices leave the family's range
(``chow.in_range``) is the zero class and is simply not listed.  The engine
multiplies by ``B'_{n-1,n-1}`` or ``C_{n-1,n-1}``, the only multipliers with
complete rule sets.  Base rules:

    B'_{n-1,n-1} . A_{i,j}  = 2 B'_{i-1,j-1}
    B'_{n-1,n-1} . B_{i,j}  = 2 B_{i-2,j}
    B'_{n-1,n-1} . C_{i,i}  =   B'_{i-1,i-1}
    C_{n-1,n-1}  . A_{i,j}  =   A_{i-1,j-1}
    C_{n-1,n-1}  . B'_{i,j} =   B'_{i-1,j-1}

Products by ``B'_{n-1,n-1}`` of B' terms are not hard-coded: the rule for a
B' symbol is derived from the basis-change identities

    B_{i,j} = 2 (B'_{i,j} - A_{i,j})        for i < j,
    B_{i,i} = 2 (B'_{i,i} - 2 C_{i,i})      for i > 0,

by expanding B' into A/B/C, applying the base rules, and converting any B
output back to MS coordinates.  Iterating reproduces the closed form

    B'_{n-1,n-1}^k = 2^(k-1) (B'_{n-k,n-k}
                     + sum_i (B'_{n-k-i,n-k+i} - A_{n-k-i,n-k+i}))

with the sum running to k-1 while 2k-1 <= n and to n-k once n <= 2k-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .chow import BasisSymbol, Family, GradedClass, in_range, require_ambient
from .errors import (
    InvalidExponent,
    InvalidInput,
    UnsupportedFamily,
    UnsupportedMonomial,
    UnsupportedTerm,
)


def _apply(rule, X: GradedClass) -> GradedClass:
    """Extend a per-symbol rule linearly: ``sum c * rule(s)`` over the terms of X."""
    return GradedClass(X.n, [(t, c * v) for s, c in X.items() for t, v in rule(s)])


def _term(family: Family, i: int, j: int, n: int, coeff) -> list:
    """``[(F_{i,j}, coeff)]``, or no term when the indices are out of range."""
    return [(BasisSymbol(family, i, j, n), coeff)] if in_range(family, i, j, n) else []


def _ms_terms(x: BasisSymbol) -> list:
    """Rule: a B symbol in MS coordinates; any other symbol stays as it is."""
    n, i, j = x.n, x.i, x.j
    if x.family is not Family.B:
        return [(x, 1)]
    if i == j == 0:
        return [(BasisSymbol(Family.BP, 0, 0, n), 1)]
    if i == j:
        return [(BasisSymbol(Family.BP, i, i, n), 2), (BasisSymbol(Family.C, i, i, n), -4)]
    return [(BasisSymbol(Family.BP, i, j, n), 2), (BasisSymbol(Family.A, i, j, n), -2)]


def to_ms(x: BasisSymbol) -> GradedClass:
    """Rewrite a B-family symbol in MS coordinates.

    ``B_{i,j} -> 2B'_{i,j} - 2A_{i,j}`` for i < j,
    ``B_{i,i} -> 2B'_{i,i} - 4C_{i,i}`` for i > 0, and ``B_{0,0} -> B'_{0,0}``
    (both are the point class).
    """
    if x.family is not Family.B:
        raise UnsupportedFamily(f"to_ms converts family B only, got {x}")
    return GradedClass(x.n, _ms_terms(x))


def _expand_bprime(sym: BasisSymbol) -> list:
    """B' in terms of A, B, C: ``B'_{i,j} = B_{i,j}/2 + A_{i,j}`` (i < j),
    ``B'_{i,i} = B_{i,i}/2 + 2C_{i,i}`` (i > 0), ``B'_{0,0} = B_{0,0}``."""
    n, i, j = sym.n, sym.i, sym.j
    if i == j == 0:
        return [(BasisSymbol(Family.B, 0, 0, n), 1)]
    half_b = (BasisSymbol(Family.B, i, j, n), Fraction(1, 2))
    if i == j:
        return [half_b, (BasisSymbol(Family.C, i, i, n), 2)]
    return [half_b, (BasisSymbol(Family.A, i, j, n), 1)]


def _bprime_rule(sym: BasisSymbol) -> list:
    """Rule for ``B'_{n-1,n-1} . sym``: the base rules for A, B and balanced C;
    a B' symbol is expanded into A/B/C, multiplied, and returned to MS."""
    n, i, j = sym.n, sym.i, sym.j
    if sym.family is Family.BP:
        return [
            (t, q * r * v)
            for s, q in _expand_bprime(sym)
            for s2, r in _bprime_rule(s)
            for t, v in _ms_terms(s2)
        ]
    if sym.family is Family.A:
        return _term(Family.BP, i - 1, j - 1, n, 2)
    if sym.family is Family.B:
        return _term(Family.B, i - 2, j, n, 2)
    if sym.family is Family.C:
        if i != j:
            raise UnsupportedTerm(f"no rule for B'_{{{n-1},{n-1}}} . {sym} (unbalanced C)")
        return _term(Family.BP, i - 1, i - 1, n, 1)
    raise UnsupportedTerm(f"no rule for B'_{{{n-1},{n-1}}} . {sym}")


def _c_shift(sym: BasisSymbol, b: int = 1) -> list:
    """Rule for ``C_{n-1,n-1}^b . sym`` on an A or B' symbol.

    Both C rules lower the index pair by (1, 1), and a pair that falls below
    its lower bound never comes back into range, so b products are one shift
    by (b, b).
    """
    if sym.family not in (Family.A, Family.BP):
        raise UnsupportedTerm(f"no rule for C_{{{sym.n-1},{sym.n-1}}} . {sym}")
    return _term(sym.family, sym.i - b, sym.j - b, sym.n, 1)


def mul_bprime_top(X: GradedClass) -> GradedClass:
    """Multiply a class by ``B'_{n-1,n-1}``.

    Terms may be A, B, B', or balanced C; B' terms are expanded through the
    basis-change identities and the resulting B parts converted back, so the
    image of an MS-coordinate class stays in MS coordinates.
    """
    return _apply(_bprime_rule, X)


def mul_c_top(X: GradedClass) -> GradedClass:
    """Multiply a class with A and B' terms by ``C_{n-1,n-1}``.

    Both rules shift the index pair down by (1, 1) and truncate to zero.
    """
    return _apply(_c_shift, X)


def bprime_top_power(n: int, k: int) -> GradedClass:
    """Closed form of ``B'_{n-1,n-1}^k`` for 1 <= k <= n.

    With ``c = n - k`` it is ``2^(k-1) B'_{c,c} + 2^(k-2) sum_i B_{c-i,c+i}``
    for ``1 <= i <= min(k-1, c)``, which :func:`to_ms` turns into the MS form
    of the module docstring.
    """
    require_ambient(n)
    if not isinstance(k, int) or not 1 <= k <= n:
        raise InvalidExponent(f"exponent {k!r} outside [1, {n}]")
    c, lead = n - k, 2 ** (k - 1)
    X = GradedClass(
        n,
        [(BasisSymbol(Family.BP, c, c, n), lead)]
        + [(BasisSymbol(Family.B, c - i, c + i, n), lead // 2) for i in range(1, min(k - 1, c) + 1)],
    )
    return _apply(_ms_terms, X)


@dataclass(frozen=True)
class MonomialSpec:
    """Exponents of a monomial ``B'_{n-1,n-1}^a . C_{n-1,n-1}^b``."""

    n: int
    a: int
    b: int

    def __post_init__(self):
        require_ambient(self.n)
        if not isinstance(self.a, int) or not isinstance(self.b, int) or self.a < 0 or self.b < 0:
            raise InvalidInput(f"exponents must be nonnegative integers, got a={self.a!r}, b={self.b!r}")
        if self.a + self.b > self.n:
            raise InvalidInput(
                f"total codimension {2 * (self.a + self.b)} exceeds the ring dimension {2 * self.n}"
            )


def eval_monomial(spec: MonomialSpec) -> GradedClass:
    """Evaluate ``B'_{n-1,n-1}^a . C_{n-1,n-1}^b`` (a >= 1) in MS coordinates.

    Pure powers of ``C_{n-1,n-1}`` have no rule and are refused.
    """
    if spec.a == 0:
        raise UnsupportedMonomial("no rule for pure powers of C_{n-1,n-1} (a = 0)")
    return _apply(lambda sym: _c_shift(sym, spec.b), bprime_top_power(spec.n, spec.a))
