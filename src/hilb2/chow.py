"""Cycle classes on the Hilbert scheme of two points on P^n.

The Chow group of ``P^{n[2]}`` is free of total rank ``3*C(n+1,2)``, graded
by codimension ``0..2n``.  Everything here is bookkeeping for that lattice:
five families of classes, three distinguished bases made out of them, and
exact sparse linear combinations with ``fractions.Fraction`` coefficients.

Families and their index ranges (one symbol per valid ``(i, j)``; the class
``F_{i,j}`` has dimension ``i + j`` and codimension ``2n - i - j``):

====== =====================
family valid indices
====== =====================
A, A'  0 <= i < j <= n
B, B'  0 <= i <= j <= n - 1
C      1 <= i <= j <= n
====== =====================

The three bases are ``BB = A + B + C``, ``ES = A' + B + C`` and
``MS = A + B' + C``.  ES generators span the effective cones, MS generators
the nef cones; BB is the fixed-point cell basis (see ``fixed_points``).
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import (
    InvalidGrading,
    InvalidIndex,
    InvalidInput,
    MixedAmbient,
    NotHomogeneous,
    ValidationError,
)


class Family(str, Enum):
    """The five class families.  ``AP`` renders as ``A'``, ``BP`` as ``B'``."""

    A = "A"
    AP = "A'"
    B = "B"
    BP = "B'"
    C = "C"

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Family.{self.name}"


_FAMILY_SORT = {f: pos for pos, f in enumerate(Family)}


class BasisId(str, Enum):
    """The three bases of the Chow group."""

    BB = "BB"
    ES = "ES"
    MS = "MS"

    @property
    def families(self) -> tuple[Family, Family, Family]:
        return _BASIS_FAMILIES[self]


_BASIS_FAMILIES = {
    BasisId.BB: (Family.A, Family.B, Family.C),
    BasisId.ES: (Family.AP, Family.B, Family.C),
    BasisId.MS: (Family.A, Family.BP, Family.C),
}


# The index range of each family, ``lo <= i``, ``i + gap <= j <= n + top``,
# as ``(lo, gap, top)``: the one statement that the validity test and the
# error message both read.
_RANGES = {
    Family.A: (0, 1, 0),
    Family.AP: (0, 1, 0),
    Family.B: (0, 0, -1),
    Family.BP: (0, 0, -1),
    Family.C: (1, 0, 0),
}


def in_range(family: Family, i: int, j: int, n: int) -> bool:
    """Whether ``(i, j)`` indexes a class of ``family`` on ``P^{n[2]}``."""
    lo, gap, top = _RANGES[family]
    return lo <= i and i + gap <= j <= n + top


def _range_description(family: Family) -> str:
    lo, gap, top = _RANGES[family]
    strict = ("<=", "<")
    return f"family requires 0 {strict[lo]} i {strict[gap]} j <= n{top or ''}"


def require_ambient(n, error: type[ValidationError] = InvalidInput) -> None:
    """Raise ``error`` unless ``n`` is a valid ambient dimension (an int >= 1)."""
    if not isinstance(n, int) or n < 1:
        raise error(f"ambient dimension must be an integer >= 1, got {n!r}")


def value_type(name: str, fields: str) -> type:
    """A named-tuple base for an immutable value class that validates in
    ``__new__``; ``_make``, and so ``_replace``, goes through ``__new__`` too."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class BasisSymbol(value_type("BasisSymbol", "family i j n")):
    """One abstract cycle class ``F_{i,j}`` on ``P^{n[2]}``.

    Construction validates the index range for the family; out-of-range
    indices raise :class:`InvalidIndex`.
    """

    __slots__ = ()

    def __new__(cls, family: Family, i: int, j: int, n: int):
        require_ambient(n, InvalidIndex)
        if not (isinstance(i, int) and isinstance(j, int)):
            raise InvalidIndex(f"indices must be integers, got ({i!r}, {j!r})")
        if not in_range(family, i, j, n):
            raise InvalidIndex(
                f"{family.value}_{{{i},{j}}} is not a valid class on P^{n}[2]: "
                + _range_description(family)
            )
        return tuple.__new__(cls, (family, i, j, n))

    @property
    def dimension(self) -> int:
        return self.i + self.j

    @property
    def codimension(self) -> int:
        return 2 * self.n - self.i - self.j

    def in_basis(self, basis: BasisId) -> bool:
        return self.family in basis.families

    def sort_key(self):
        return (_FAMILY_SORT[self.family], self.i, self.j)

    def __str__(self):
        return f"{self.family.value}_{{{self.i},{self.j}}}"

    def __repr__(self):
        return f"BasisSymbol({self}, n={self.n})"


def validate_symbol(family: Union[Family, str], i: int, j: int, n: int) -> BasisSymbol:
    """Return the symbol ``F_{i,j}`` on ``P^{n[2]}``, or raise InvalidIndex."""
    if not isinstance(family, Family):
        try:
            family = Family(family)
        except ValueError:
            raise InvalidIndex(f"unknown family {family!r}") from None
    return BasisSymbol(family, i, j, n)


def _coerce_rational(value) -> Fraction:
    """Exact coefficient coercion.  Floats are refused: the ring is exact."""
    if isinstance(value, float):
        raise InvalidInput(f"float coefficient {value!r} rejected; use Fraction, int or 'p/q'")
    try:
        return Fraction(value)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"cannot interpret {value!r} as an exact rational") from exc


class GradedClass:
    """A sparse rational linear combination of :class:`BasisSymbol` terms.

    Immutable and in canonical form: no zero coefficients, terms ordered by
    ``(family, i, j)``, all symbols sharing the ambient dimension ``n``.
    Supports ``+``, ``-``, scalar ``*`` and equality.

    Coefficients: ``int`` and ``Fraction`` values are summed as they arrive
    (repeated symbols add up); anything else goes through an exact rational
    coercion, and floats are refused (:class:`InvalidInput`).  Zero sums are
    dropped and each surviving coefficient is stored as a ``Fraction``, so
    :meth:`items` yields only ``Fraction`` coefficients.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Union[Mapping, Iterable[tuple]] = ()):
        require_ambient(n)
        acc: dict[BasisSymbol, Union[int, Fraction]] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for sym, coeff in items:
            if not isinstance(sym, BasisSymbol):
                raise InvalidInput(f"term key {sym!r} is not a BasisSymbol")
            if sym.n != n:
                raise MixedAmbient(f"symbol {sym} lives on P^{sym.n}[2], class on P^{n}[2]")
            if not isinstance(coeff, (int, Fraction)):
                coeff = _coerce_rational(coeff)
            acc[sym] = acc.get(sym, 0) + coeff
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self,
            "_terms",
            tuple(sorted(
                ((s, c if isinstance(c, Fraction) else Fraction(c)) for s, c in acc.items() if c),
                key=lambda kv: kv[0].sort_key(),
            )),
        )

    def __setattr__(self, name, value):
        raise AttributeError("GradedClass is immutable")

    @classmethod
    def zero(cls, n: int) -> "GradedClass":
        return cls(n)

    @classmethod
    def from_symbol(cls, sym: BasisSymbol, coeff=1) -> "GradedClass":
        return cls(sym.n, [(sym, coeff)])

    def items(self) -> tuple[tuple[BasisSymbol, Fraction], ...]:
        """Terms in canonical order."""
        return self._terms

    @property
    def terms(self) -> dict[BasisSymbol, Fraction]:
        return dict(self._terms)

    def coeff(self, sym: BasisSymbol) -> Fraction:
        for s, c in self._terms:
            if s == sym:
                return c
        return Fraction(0)

    def families(self) -> frozenset[Family]:
        return frozenset(s.family for s, _ in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def is_homogeneous(self) -> bool:
        dims = {s.dimension for s, _ in self._terms}
        return len(dims) <= 1

    def dimension(self) -> int | None:
        """Common dimension of all terms; None for the zero class."""
        dims = {s.dimension for s, _ in self._terms}
        if not dims:
            return None
        if len(dims) > 1:
            raise NotHomogeneous(f"class mixes dimensions {sorted(dims)}")
        return dims.pop()

    def codimension(self) -> int | None:
        d = self.dimension()
        return None if d is None else 2 * self.n - d

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, GradedClass)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.n, self._terms))

    def __add__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        if other.n != self.n:
            raise MixedAmbient(f"cannot add classes on P^{self.n}[2] and P^{other.n}[2]")
        return GradedClass(self.n, list(self._terms) + list(other._terms))

    def __sub__(self, other):
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return GradedClass(self.n, [(s, -c) for s, c in self._terms])

    def __mul__(self, scalar):
        c = _coerce_rational(scalar)
        return GradedClass(self.n, [(s, c * v) for s, v in self._terms])

    __rmul__ = __mul__

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for sym, c in self._terms:
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = str(sym) if mag == 1 else f"{mag}*{sym}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"GradedClass(n={self.n}, {self})"


def linear_combine(pairs: Iterable[tuple]) -> GradedClass:
    """Exact sparse sum ``sum(c_k * X_k)``; zero coefficients pruned.

    Each pair is ``(coefficient, GradedClass or BasisSymbol)``.  All operands
    must share the ambient dimension.
    """
    pairs = list(pairs)
    if not pairs:
        raise InvalidInput("linear_combine needs at least one operand to fix n")
    terms = []
    n = None
    for coeff, obj in pairs:
        if isinstance(obj, BasisSymbol):
            obj = GradedClass.from_symbol(obj)
        if not isinstance(obj, GradedClass):
            raise InvalidInput(f"operand {obj!r} is neither a GradedClass nor a BasisSymbol")
        if n is None:
            n = obj.n
        elif obj.n != n:
            raise MixedAmbient(f"operands mix P^{n}[2] and P^{obj.n}[2]")
        c = _coerce_rational(coeff)
        terms.extend((s, c * v) for s, v in obj.items())
    return GradedClass(n, terms)


def _family_symbols_of_dimension(family: Family, n: int, k: int):
    """Symbols of ``family`` with ``i + j = k``, by increasing first index."""
    for i in range(0, k // 2 + 1):
        j = k - i
        if in_range(family, i, j, n):
            yield BasisSymbol(family, i, j, n)


def enumerate_basis(
    n: int,
    basis: Union[BasisId, str],
    *,
    dim: int | None = None,
    codim: int | None = None,
) -> list[BasisSymbol]:
    """List the basis symbols of one grading (or all of them).

    With ``dim=k`` the list holds the dimension-k symbols sorted by
    increasing first index; with ``codim=k`` the codimension-k symbols by
    decreasing first index; with neither, every symbol, ordered
    lexicographically.  Families always appear in basis order
    (A/A', B/B', C).
    """
    require_ambient(n)
    if not isinstance(basis, BasisId):
        try:
            basis = BasisId(basis)
        except ValueError:
            raise InvalidInput(f"unknown basis {basis!r}") from None
    if dim is not None and codim is not None:
        raise InvalidInput("give at most one of dim and codim")

    if dim is None and codim is None:
        out = []
        for family in basis.families:
            block = []
            for k in range(0, 2 * n + 1):
                block.extend(_family_symbols_of_dimension(family, n, k))
            block.sort(key=lambda s: (s.i, s.j))
            out.extend(block)
        return out

    requested = dim if dim is not None else codim
    if not isinstance(requested, int) or not 0 <= requested <= 2 * n:
        raise InvalidGrading(f"grading {requested!r} outside [0, {2 * n}]")
    if dim is not None:
        k, reverse = dim, False
    else:
        k, reverse = 2 * n - codim, True

    out = []
    for family in basis.families:
        block = list(_family_symbols_of_dimension(family, n, k))
        if reverse:
            block.reverse()
        out.extend(block)
    return out


def _ceil_half(x: int) -> int:
    return -(-x // 2)


def chow_rank(n: int, k: int) -> int:
    """Rank of the codimension-k Chow group of ``P^{n[2]}``.

    Equals ``min(ceil(k/2), ceil(n-k/2)) + min(ceil((k+1)/2), ceil(n-(k+1)/2))
    + min(ceil((k-1)/2), ceil(n-(k-1)/2))``, which is also the number of
    basis symbols in each of the three bases in that grading.
    """
    require_ambient(n)
    if not isinstance(k, int) or not 0 <= k <= 2 * n:
        raise InvalidGrading(f"codimension {k!r} outside [0, {2 * n}]")
    if k in (0, 2 * n):
        return 1
    total = 0
    for shift in (0, 1, -1):
        s = k + shift
        total += min(_ceil_half(s), n - s // 2)
    return total
