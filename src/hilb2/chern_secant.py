"""Tautological Chern classes and degrees of secant varieties.

For the rank-2 tautological bundle of ``O(d)`` on ``P^{n[2]}``,

    c1 = (d-1) A_{n-1,n}     + C_{n-1,n},
    c2 = C(d,2) B'_{n-1,n-1} + d C_{n-1,n-1},

with the C terms out of range (zero) when n = 1.  For a complete intersection
``X c P^n`` of dimension m cut out by hypersurfaces of degrees d_1..d_{n-m}
(with 2m+1 < n and X not 1-defective),

    deg(Sec X) * mu_1(X) = sum_{k=m+1}^{n-m} sum_{|S|=k}
        (prod_{j in S} C(d_j,2)) (prod_{l not in S} d_l) * 2^(k-1),

where S runs over subsets of {1..n-m}.  Two independent evaluation paths are
provided: the closed formula above, and the intersection-theoretic route
that expands ``prod c2(O(d_i))`` into monomials ``B'^k C^{n-m-k}``,
evaluates them with the product engine and pairs against ``C_{n-2m,n}``.
The ``intro`` exponent variant ``2^(k-1-m)`` is kept purely as a foil: the
classical oracles select ``proof`` (the default), and a regression test pins
the disagreement.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import combinations
from math import comb, prod

from .chow import BasisSymbol, Family, GradedClass, in_range, is_int, require_ambient, value_type
from .errors import InvalidInput
from .pairing import pair_classes
from .products import MonomialSpec, eval_monomial


class TautBundle(value_type("TautBundle", "n d")):
    """The rank-2 tautological bundle of ``O(d)`` on ``P^{n[2]}``."""

    __slots__ = ()

    def __new__(cls, n: int, d: int):
        require_ambient(n)
        if not is_int(d) or d < 1:
            raise InvalidInput(f"line bundle twist must be an integer >= 1, got {d!r}")
        return tuple.__new__(cls, (n, d))


def chern_taut(bundle: TautBundle) -> tuple[GradedClass, GradedClass]:
    """First and second Chern classes of the bundle, in MS coordinates."""
    n, d = bundle.n, bundle.d
    c1 = [(Family.A, n - 1, n, d - 1), (Family.C, n - 1, n, 1)]
    c2 = [(Family.BP, n - 1, n - 1, comb(d, 2)), (Family.C, n - 1, n - 1, d)]
    return tuple(
        GradedClass(n, [(BasisSymbol(f, i, j, n), c)
                        for f, i, j, c in terms if in_range(f, i, j, n)])
        for terms in (c1, c2)
    )


class SecantProblem(value_type("SecantProblem", "n degrees mu1 variant")):
    """Degree problem for the secant variety of a complete intersection.

    ``degrees`` are the hypersurface degrees, stored as a tuple, so
    ``m = n - len(degrees)`` is the dimension of X.  ``mu1`` is the secant
    order, always user-supplied.  The degree computations additionally
    require ``2m + 1 < n``; problems violating that are constructible but
    rejected by them, so the classical oracle can still be consulted about
    out-of-range instances.
    """

    __slots__ = ()

    def __new__(cls, n: int, degrees, mu1: int = 1, variant: str = "proof"):
        degrees = tuple(degrees)
        require_ambient(n)
        if not degrees:
            raise InvalidInput("at least one hypersurface degree is required")
        for d in degrees:
            if not is_int(d) or d < 1:
                raise InvalidInput(f"hypersurface degrees must be integers >= 1, got {d!r}")
        if len(degrees) > n:
            raise InvalidInput(
                f"{len(degrees)} hypersurfaces in P^{n} leave negative dimension"
            )
        if not is_int(mu1) or mu1 < 1:
            raise InvalidInput(f"secant order mu1 must be an integer >= 1, got {mu1!r}")
        if variant not in ("proof", "intro"):
            raise InvalidInput(f"variant must be 'proof' or 'intro', got {variant!r}")
        return tuple.__new__(cls, (n, degrees, mu1, variant))

    @property
    def m(self) -> int:
        return self.n - len(self.degrees)


def _require_expected_dimension(p: SecantProblem) -> None:
    if 2 * p.m + 1 >= p.n:
        raise InvalidInput(
            f"need 2m+1 < n for the secant degree; got m={p.m}, n={p.n}"
        )


def secant_degree_mu_closed(p: SecantProblem) -> int:
    """``deg(Sec X) * mu1`` by the closed subset-sum formula.

    The exponent of 2 is ``k-1`` for the default ``proof`` variant and
    ``k-1-m`` for ``intro``.
    """
    _require_expected_dimension(p)
    m, ds = p.m, p.degrees
    total = 0
    for k in range(m + 1, p.n - m + 1):
        e = k - 1 if p.variant == "proof" else k - 1 - m
        for S in combinations(range(len(ds)), k):
            chosen = set(S)
            term = 2**e
            for idx, d in enumerate(ds):
                term *= comb(d, 2) if idx in chosen else d
            total += term
    return total


@functools.lru_cache(maxsize=None)
def _monomial_weight(n: int, m: int, k: int) -> Fraction:
    """Pairing of ``B'^k C^{n-m-k}`` against ``C_{n-2m,n}`` (cached)."""
    target = GradedClass.from_symbol(BasisSymbol(Family.C, n - 2 * m, n, n))
    return pair_classes(eval_monomial(MonomialSpec(n, k, n - m - k)), target)


def secant_degree_mu_intersection(p: SecantProblem) -> int:
    """``deg(Sec X) * mu1`` by intersection on the Hilbert scheme.

    Expands ``prod_i c2(O(d_i))`` by convolution into coefficients of the
    monomials ``B'^k C^{n-m-k}``, evaluates each monomial with k >= 1 through
    the product engine, and pairs the results with ``C_{n-2m,n}``.  The k = 0
    monomial is a pure C power; it pairs to zero and is skipped.
    """
    _require_expected_dimension(p)
    n, m = p.n, p.m
    coeffs = [1]  # coeffs[k] = sum over |S|=k of prod C(d_j,2) * prod d_l
    for d in p.degrees:
        coeffs = [
            (coeffs[k] * d if k < len(coeffs) else 0)
            + (coeffs[k - 1] * comb(d, 2) if k >= 1 else 0)
            for k in range(len(coeffs) + 1)
        ]
    total = Fraction(0)
    for k in range(1, len(coeffs)):
        if coeffs[k]:
            total += coeffs[k] * _monomial_weight(n, m, k)
    if total.denominator != 1:
        raise AssertionError(f"intersection number {total} is not an integer")
    return int(total)


def secant_oracle(n: int, degrees) -> int | None:
    """Classical check values for ``deg(Sec X) * mu1``, where available.

    For m = 0 (points) this is the chord count ``C(prod d_i, 2)``; for m = 1
    (curves) it is ``C(D-1, 2) - g`` with ``D = prod d_i`` and the genus given
    by adjunction, ``2g - 2 = D (sum d_i - n - 1)``.  Returns None for
    m >= 2, where no classical formula is wired in.
    """
    problem = SecantProblem(n, degrees)  # validates n and the degrees
    m, degrees = problem.m, problem.degrees
    D = prod(degrees)
    if m == 0:
        return comb(D, 2)
    if m == 1:
        two_g = D * (sum(degrees) - n - 1) + 2
        return comb(D - 1, 2) - two_g // 2
    return None


def secant_degree(p: SecantProblem) -> Fraction:
    """``deg(Sec X)`` as an exact rational: the closed form divided by mu1."""
    return Fraction(secant_degree_mu_closed(p), p.mu1)
