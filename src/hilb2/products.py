"""Products with the two top codimension-2 classes.

Every product is one mechanism: a *rule* maps the index key ``(family, i,
j)`` of one basis symbol to a sparse list of ``(key, int)`` terms, and
:func:`_apply` extends it linearly to a class.  A rule output whose indices
leave the family's range (``chow.in_range``) is the zero class and is simply
not listed.  The engine multiplies by ``B'_{n-1,n-1}`` or ``C_{n-1,n-1}``,
the only multipliers with complete rule sets.  Base rules:

    B'_{n-1,n-1} . A_{i,j}  = 2 B'_{i-1,j-1}
    B'_{n-1,n-1} . B_{i,j}  = 2 B_{i-2,j}
    B'_{n-1,n-1} . C_{i,i}  =   B'_{i-1,i-1}
    C_{n-1,n-1}  . A_{i,j}  =   A_{i-1,j-1}
    C_{n-1,n-1}  . B'_{i,j} =   B'_{i-1,j-1}

Products by ``B'_{n-1,n-1}`` of B' terms are not hard-coded: the rule for a
B' key is derived from the basis-change identities, written on doubled
integers so that no ``Fraction`` is needed,

    2 B'_{i,j} = B_{i,j} + 2 A_{i,j}        for i < j,
    2 B'_{i,i} = B_{i,i} + 4 C_{i,i}        for i > 0,
    2 B'_{0,0} = 2 B_{0,0},

by applying the base rules to the right-hand side, converting any B output
back to MS coordinates, and halving the sums.  The halving is exact: the
``1/2`` sits only on the B term, and the base rule for B carries a factor 2,
so every doubled sum is even (an odd one would give a ``Fraction``).
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

from .chow import (BasisSymbol, Family, GradedClass, in_range, is_int, require_ambient,
                   scaled_terms, value_type)
from .errors import (
    InvalidExponent,
    InvalidInput,
    UnsupportedFamily,
    UnsupportedMonomial,
    UnsupportedTerm,
)


def _linear(rule, terms, n: int) -> dict:
    """``sum c * rule(key)`` over ``(key, c)`` terms, as a key -> coefficient dict."""
    acc: dict = {}
    for key, c in terms:
        for out, v in rule(key, n):
            acc[out] = acc.get(out, 0) + c * v
    return acc


def _build(n: int, acc: dict, d: int = 1) -> GradedClass:
    """The class of a key -> numerator dict over the denominator ``d``: one
    symbol and one division per nonzero key (none when ``d`` is 1)."""
    return GradedClass(n, {
        BasisSymbol(f, i, j, n): c if d == 1 else Fraction(c, d)
        for (f, i, j), c in acc.items() if c
    })


def _apply(rule, X: GradedClass) -> GradedClass:
    """Extend a per-key rule linearly: ``sum c * rule(s)`` over the terms of X."""
    terms, d = scaled_terms(X)
    return _build(X.n, _linear(rule, (((s.family, s.i, s.j), c) for s, c in terms), X.n), d)


def _term(family: Family, i: int, j: int, n: int, coeff: int) -> list:
    """``[((F, i, j), coeff)]``, or no term when the indices are out of range."""
    return [((family, i, j), coeff)] if in_range(family, i, j, n) else []


def _ms_terms(key: tuple, n: int) -> list:
    """Rule: a B key in MS coordinates; any other key stays as it is."""
    family, i, j = key
    if family is not Family.B:
        return [(key, 1)]
    if i == j == 0:
        return [((Family.BP, 0, 0), 1)]
    if i == j:
        return [((Family.BP, i, i), 2), ((Family.C, i, i), -4)]
    return [((Family.BP, i, j), 2), ((Family.A, i, j), -2)]


def to_ms(x: BasisSymbol) -> GradedClass:
    """Rewrite a B-family symbol in MS coordinates.

    ``B_{i,j} -> 2B'_{i,j} - 2A_{i,j}`` for i < j,
    ``B_{i,i} -> 2B'_{i,i} - 4C_{i,i}`` for i > 0, and ``B_{0,0} -> B'_{0,0}``
    (both are the point class).
    """
    if x.family is not Family.B:
        raise UnsupportedFamily(f"to_ms converts family B only, got {x}")
    return _build(x.n, dict(_ms_terms((x.family, x.i, x.j), x.n)))


def _doubled_bprime(i: int, j: int) -> list:
    """``2 B'_{i,j}`` in A, B, C: ``B_{i,j} + 2A_{i,j}`` (i < j),
    ``B_{i,i} + 4C_{i,i}`` (i > 0), ``2B_{0,0}``."""
    if i == j == 0:
        return [((Family.B, 0, 0), 2)]
    if i == j:
        return [((Family.B, i, i), 1), ((Family.C, i, i), 4)]
    return [((Family.B, i, j), 1), ((Family.A, i, j), 2)]


def _half(v: int):
    return v // 2 if v % 2 == 0 else Fraction(v, 2)


def _bprime_rule(key: tuple, n: int) -> list:
    """Rule for ``B'_{n-1,n-1} . F_{i,j}``: the base rules for A, B and
    balanced C; a B' key is expanded into A/B/C (doubled), multiplied,
    returned to MS and halved."""
    family, i, j = key
    if family is Family.BP:
        doubled = _linear(_ms_terms, _linear(_bprime_rule, _doubled_bprime(i, j), n).items(), n)
        return [(out, _half(v)) for out, v in doubled.items() if v]
    if family is Family.A:
        return _term(Family.BP, i - 1, j - 1, n, 2)
    if family is Family.B:
        return _term(Family.B, i - 2, j, n, 2)
    if family is Family.C:
        if i != j:
            raise UnsupportedTerm(
                f"no rule for B'_{{{n-1},{n-1}}} . {BasisSymbol(*key, n)} (unbalanced C)"
            )
        return _term(Family.BP, i - 1, i - 1, n, 1)
    raise UnsupportedTerm(f"no rule for B'_{{{n-1},{n-1}}} . {BasisSymbol(*key, n)}")


def _c_shift(key: tuple, n: int, b: int = 1) -> list:
    """Rule for ``C_{n-1,n-1}^b . F_{i,j}`` on an A or B' key.

    Both C rules lower the index pair by (1, 1), and a pair that falls below
    its lower bound never comes back into range, so b products are one shift
    by (b, b).
    """
    family, i, j = key
    if family not in (Family.A, Family.BP):
        raise UnsupportedTerm(f"no rule for C_{{{n-1},{n-1}}} . {BasisSymbol(*key, n)}")
    return _term(family, i - b, j - b, n, 1)


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
    for ``1 <= i <= min(k-1, c)``, which the :func:`to_ms` rule turns into
    the MS form of the module docstring.
    """
    require_ambient(n)
    if not is_int(k) or not 1 <= k <= n:
        raise InvalidExponent(f"exponent {k!r} outside [1, {n}]")
    c, lead = n - k, 2 ** (k - 1)
    closed = [((Family.BP, c, c), lead)] + [
        ((Family.B, c - i, c + i), lead // 2) for i in range(1, min(k - 1, c) + 1)
    ]
    return _build(n, _linear(_ms_terms, closed, n))


class MonomialSpec(value_type("MonomialSpec", "n a b")):
    """Exponents of a monomial ``B'_{n-1,n-1}^a . C_{n-1,n-1}^b``."""

    __slots__ = ()

    def __new__(cls, n: int, a: int, b: int):
        require_ambient(n)
        if not (is_int(a) and is_int(b)) or a < 0 or b < 0:
            raise InvalidInput(f"exponents must be nonnegative integers, got a={a!r}, b={b!r}")
        if a + b > n:
            raise InvalidInput(f"total codimension {2 * (a + b)} exceeds the ring dimension {2 * n}")
        return tuple.__new__(cls, (n, a, b))


def eval_monomial(spec: MonomialSpec) -> GradedClass:
    """Evaluate ``B'_{n-1,n-1}^a . C_{n-1,n-1}^b`` (a >= 1) in MS coordinates.

    Pure powers of ``C_{n-1,n-1}`` have no rule and are refused.
    """
    if spec.a == 0:
        raise UnsupportedMonomial("no rule for pure powers of C_{n-1,n-1} (a = 0)")
    return _apply(lambda key, n: _c_shift(key, n, spec.b), bprime_top_power(spec.n, spec.a))
