"""Tautological Chern classes and degrees of secant varieties.

For the rank-2 tautological bundle of ``O(d)`` on ``P^{n[2]}``,
``chern_taut(n, d)`` gives

    c1 = (d-1) A_{n-1,n}     + C_{n-1,n},
    c2 = C(d,2) B'_{n-1,n-1} + d C_{n-1,n-1},

with the C terms out of range (zero) when n = 1.  For a complete intersection
``X c P^n`` of dimension m cut out by hypersurfaces of degrees d_1..d_{n-m}
(with 2m+1 < n and X not 1-defective),

    deg(Sec X) * mu_1(X) = sum_{k=m+1}^{n-m} sum_{|S|=k}
        (prod_{j in S} C(d_j,2)) (prod_{l not in S} d_l) * 2^(k-1),

where S runs over subsets of {1..n-m}.  Two independent evaluation paths are
provided: the closed formula above, and the intersection-theoretic route
that reads one integer weight vector per ``(n, m)`` for the monomials ``B'^k C^{n-m-k}``
of ``prod c2(O(d_i))``, each iterated through the product rules and paired with ``C_{n-2m,n}``.
The library states only the ``2^(k-1)`` exponent, which the classical oracles
select; the ``intro`` variant ``2^(k-1-m)``, the closed sum shifted right by
m, is a foil that ``hilb2 secant --variant intro`` applies and a regression
test pins.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from itertools import combinations
from math import comb, prod
from operator import mul

from .chow import (A, BP, C, BasisSymbol, GradedClass, require_ambient, require_int, require_type,
                   shown, term, value_type)
from .errors import InvalidInput
from .pairing import pair_classes
from .products import mul_bprime_top, mul_c_top


def chern_taut(n: int, d: int) -> tuple[GradedClass, GradedClass]:
    """First and second Chern classes of the rank-2 tautological bundle of ``O(d)``
    on ``P^{n[2]}``, in MS coordinates."""
    require_ambient(n)
    require_int(d, "line bundle twist", 1)
    c1 = term(A, n - 1, n, n, d - 1) + term(C, n - 1, n, n, 1)
    c2 = term(BP, n - 1, n - 1, n, comb(d, 2)) + term(C, n - 1, n - 1, n, d)
    return tuple(GradedClass(n, [(BasisSymbol(*key), c) for key, c in terms])
                 for terms in (c1, c2))


class SecantProblem(value_type("SecantProblem", "n degrees")):
    """Degree problem for the secant variety of a complete intersection.

    ``degrees`` are the hypersurface degrees, stored as a tuple, so
    ``m = n - len(degrees)`` is the dimension of X.  A problem lies in the
    formula's domain, ``2m + 1 < n``: construction refuses any other.  The
    degree computations give ``deg(Sec X) * mu1``; the secant order ``mu1`` is
    the caller's to divide by.
    """

    __slots__ = ()

    def __new__(cls, n: int, degrees):
        require_ambient(n)
        if isinstance(degrees, (str, bytes, bytearray)) or not isinstance(degrees, Iterable):
            raise InvalidInput(
                f"hypersurface degrees must be an iterable of ints, got {shown(degrees)}")
        degrees = tuple(degrees)
        if not degrees:
            raise InvalidInput("at least one hypersurface degree is required")
        for d in degrees:
            require_int(d, "hypersurface degree", 1)
        if len(degrees) > n:
            raise InvalidInput(
                f"{len(degrees)} hypersurfaces in P^{n} leave negative dimension"
            )
        m = n - len(degrees)
        if 2 * m + 1 >= n:
            raise InvalidInput(
                f"need 2m+1 < n for the secant degree; got m={shown(m)}, n={shown(n)}")
        return tuple.__new__(cls, (n, degrees))

    @property
    def m(self) -> int:
        return self.n - len(self.degrees)


def secant_degree_mu_closed(p: SecantProblem) -> int:
    """``deg(Sec X) * mu1`` by the closed subset-sum formula, exponent ``k-1``.

    Every k is at least m+1, so the sum shifts right by m exactly: ``>> m``
    gives the ``intro`` exponent ``k-1-m``.
    """
    require_type(p, SecantProblem, "secant_degree_mu_closed")
    m, ds = p.m, p.degrees
    total = 0
    for k in range(m + 1, p.n - m + 1):
        for S in combinations(range(len(ds)), k):
            chosen = set(S)
            summand = 2 ** (k - 1)
            for idx, d in enumerate(ds):
                summand *= comb(d, 2) if idx in chosen else d
            total += summand
    return total


@functools.lru_cache(maxsize=None)
def _monomial_weights(n: int, m: int) -> tuple[int, ...]:
    """Entry k: ``B'^k C^{n-m-k} . C_{n-2m,n}`` (0 for k = 0), one vector per ``(n, m)``.
    Each factor iterates its rule, the C power on the target (the ring commutes)."""
    targets = [GradedClass.from_symbol(BasisSymbol(C, n - 2 * m, n, n))]  # C^b . C_{n-2m,n}
    for _ in range(n - m - 1):
        targets.append(mul_c_top(targets[-1]))
    power = GradedClass.from_symbol(BasisSymbol(BP, n - 1, n - 1, n))
    weights = [pair_classes(power, targets.pop())]
    while targets:  # one power held at a time: B'^k for k = 2 .. n-m
        power = mul_bprime_top(power)
        weights.append(pair_classes(power, targets.pop()))
    if any(w.denominator != 1 for w in weights):
        raise AssertionError(f"monomial weights {weights} are not all integers")
    return (0, *map(int, weights))


def secant_degree_mu_intersection(p: SecantProblem) -> int:
    """``deg(Sec X) * mu1`` by intersection on the Hilbert scheme.

    Expands ``prod_i c2(O(d_i))`` by convolution into coefficients of the
    monomials ``B'^k C^{n-m-k}`` and dots them with the integer weight vector
    of ``(n, m)``: each monomial with k >= 1 built once by iterating the two
    product rules and paired with ``C_{n-2m,n}``.
    """
    require_type(p, SecantProblem, "secant_degree_mu_intersection")
    coeffs = [1]  # coeffs[k] = sum over |S|=k of prod C(d_j,2) * prod d_l
    for d in p.degrees:  # coeffs[k] * d + coeffs[k-1] * C(d,2), each out of range 0
        coeffs = [a * d + b * comb(d, 2) for a, b in zip(coeffs + [0], [0] + coeffs)]
    return sum(map(mul, coeffs, _monomial_weights(p.n, p.m)))


def secant_oracle(n: int, degrees) -> int | None:
    """Classical check values for ``deg(Sec X) * mu1``, where available.

    For m = 0 (points) this is the chord count ``C(prod d_i, 2)``; for m = 1
    (curves) it is ``C(D-1, 2) - g`` with ``D = prod d_i`` and the genus given
    by adjunction, ``2g - 2 = D (sum d_i - n - 1)``.  Returns None for
    m >= 2, where no classical formula is wired in.  The arguments make a
    :class:`SecantProblem`, so the oracle refuses what it refuses.
    """
    problem = SecantProblem(n, degrees)  # validates n, the degrees and 2m+1 < n
    m, degrees = problem.m, problem.degrees
    D = prod(degrees)
    if m == 0:
        return comb(D, 2)
    if m == 1:
        two_g = D * (sum(degrees) - n - 1) + 2
        return comb(D - 1, 2) - two_g // 2
    return None

