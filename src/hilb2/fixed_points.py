"""Torus-fixed points of ``P^{n[2]}`` and their cell classes.

The fixed points of the standard torus action are the monomial ideals of
two points.  They come in three kinds, each indexed by ``0 <= i < j <= n``,
so there are ``3*C(n+1,2)`` of them: ``I_{i,j}`` (quadric generator
``x_i*x_j``), ``J_{i,j}`` (generator ``x_j^2``, the variable ``x_i`` free)
and ``K_{i,j}`` (generator ``x_i^2``, the variable ``x_j`` free).

Each fixed point carries the class of the closure of its attracting cell,
which is how the BB basis arises:

    I_{i,j} -> A_{i,j}     (cell dimension i+j)
    J_{i,j} -> B_{i,j-1}   (cell dimension i+j-1)
    K_{i,j} -> C_{i+1,j}   (cell dimension i+j+1)
"""

from __future__ import annotations

import functools
from enum import Enum

from .chow import BasisSymbol, Family, as_member, is_int, require_ambient, value_type
from .errors import InvalidIndex


class IdealKind(str, Enum):
    I = "I"
    J = "J"
    K = "K"


@functools.lru_cache(maxsize=1)
def _variable_names(n: int) -> tuple[str, ...]:
    """``("x0", ..., "xn")``, shared by the generators of every fixed point."""
    return tuple(f"x{k}" for k in range(n + 1))


class MonomialIdealDescriptor(value_type("MonomialIdealDescriptor", "kind i j n")):
    """One torus-fixed monomial ideal, identified by (kind, i, j); the kind
    is an :class:`IdealKind` or its value (``"J"``)."""

    __slots__ = ()

    def __new__(cls, kind: IdealKind | str, i: int, j: int, n: int):
        if kind.__class__ is not IdealKind:
            kind = as_member(IdealKind, kind, InvalidIndex, "kind")
        require_ambient(n)
        if not (is_int(i) and is_int(j)):
            raise InvalidIndex(f"indices must be integers, got ({i!r}, {j!r})")
        if not 0 <= i < j <= n:
            raise InvalidIndex(f"{kind.value}_{{{i},{j}}} needs 0 <= i < j <= {n}")
        return tuple.__new__(cls, (kind, i, j, n))

    def generators(self) -> list[str]:
        """Generators of the ideal, rendered as monomial strings."""
        x, i, j = _variable_names(self.n), self.i, self.j
        quad = {
            IdealKind.I: f"{x[i]}*{x[j]}",
            IdealKind.J: f"{x[j]}^2",
            IdealKind.K: f"{x[i]}^2",
        }[self.kind]
        return [quad, *x[:i], *x[i + 1:j], *x[j + 1:]]

    def __str__(self):
        return f"{self.kind.value}_{{{self.i},{self.j}}}"


def enumerate_fixed_points(n: int) -> list[MonomialIdealDescriptor]:
    """All ``3*C(n+1,2)`` fixed points, kinds I, J, K in turn, (i, j) lex."""
    require_ambient(n)
    return [
        MonomialIdealDescriptor(kind, i, j, n)
        for kind in IdealKind
        for i in range(n)
        for j in range(i + 1, n + 1)
    ]


def bb_cell_of(fp: MonomialIdealDescriptor) -> tuple[BasisSymbol, int]:
    """Class and dimension of the attracting cell of a fixed point."""
    if fp.kind is IdealKind.I:
        sym = BasisSymbol(Family.A, fp.i, fp.j, fp.n)
    elif fp.kind is IdealKind.J:
        sym = BasisSymbol(Family.B, fp.i, fp.j - 1, fp.n)
    else:
        sym = BasisSymbol(Family.C, fp.i + 1, fp.j, fp.n)
    return sym, sym.dimension
