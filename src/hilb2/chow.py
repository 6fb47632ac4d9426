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
the nef cones; BB is the fixed-point cell basis (see ``fixed_points``), in
which ``B_{i,j}``, (i, j) != (0, 0), is twice the class of the closure of the
``J_{i,j+1}`` cell.
"""

from __future__ import annotations

import functools
import re
import sys
from collections import namedtuple
from collections.abc import Iterable, Mapping
from enum import Enum
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .errors import (
    InvalidGrading,
    InvalidIndex,
    InvalidInput,
    MixedAmbient,
    NotHomogeneous,
    ValidationError,
)


class Family(str, Enum):
    """The five class families.  ``AP`` renders as ``A'``, ``BP`` as ``B'``.
    The values sort in declaration order, so symbols sort as canonical terms."""

    A = "A"
    AP = "A'"
    B = "B"
    BP = "B'"
    C = "C"

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"Family.{self.name}"


# The members as plain names, bound once: an Enum attribute read costs more than a rule term.
A, AP, B, BP, C = Family.A, Family.AP, Family.B, Family.BP, Family.C


class BasisId(str, Enum):
    """The three bases of the Chow group."""

    BB = "BB"
    ES = "ES"
    MS = "MS"

    @property
    def families(self) -> tuple[Family, Family, Family]:
        return _BASIS_FAMILIES[self]


_BASIS_FAMILIES = {
    BasisId.BB: (A, B, C),
    BasisId.ES: (AP, B, C),
    BasisId.MS: (A, BP, C),
}


@functools.cache
def _members(enum: type[Enum]) -> dict:
    """``enum``'s value -> member dict, built once per enum.  A member is a
    ``str`` equal to its value, so it finds itself."""
    return {member.value: member for member in enum}


def as_member(enum: type[Enum], value, error: type[ValidationError], noun: str):
    """The member of ``enum`` that is or has the value ``value``; any other
    value, a non-``str`` one first, raises ``error("unknown <noun> <value>")``."""
    member = _members(enum).get(value) if isinstance(value, str) else None
    if member is None:
        raise error(f"unknown {noun} {shown(value)}")
    return member


def as_basis(basis: BasisId | str) -> BasisId:
    """The basis named by ``basis``; an unknown name raises ``InvalidInput``."""
    return as_member(BasisId, basis, InvalidInput, "basis")


# The index range of each family, ``lo <= i``, ``i + gap <= j <= n + top``,
# as ``(lo, gap, top)``: the one statement that the validity test and the
# error message both read.
_RANGES = {
    A: (0, 1, 0),
    AP: (0, 1, 0),
    B: (0, 0, -1),
    BP: (0, 0, -1),
    C: (1, 0, 0),
}


def in_range(family: Family, i: int, j: int, n: int) -> bool:
    """Whether ``(i, j)`` indexes a class of ``family`` on ``P^{n[2]}``."""
    lo, gap, top = _RANGES[family]
    return lo <= i and i + gap <= j <= n + top


def term(family: Family, i: int, j: int, n: int, coeff: int) -> list:
    """``[((family, i, j, n), coeff)]``, or no term when the indices are out of
    range: one term of a rule's sparse image, the zero class left unlisted."""
    return [((family, i, j, n), coeff)] if in_range(family, i, j, n) else []


def ms_terms(key: tuple) -> list:
    """Rule: a key in MS coordinates (``products.to_ms``); an A, B' or C key stays as it is."""
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


def _range_description(family: Family) -> str:
    lo, gap, top = _RANGES[family]
    strict = ("<=", "<")
    return f"family requires 0 {strict[lo]} i {strict[gap]} j <= n{top or ''}"


# Python's cap on int <-> str conversion, read per call; interpreters before 3.10.7 have none.
digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def shown(value) -> str:
    """``repr(value)`` for an error message, within the digit limit: an int over it is
    named, not converted, and longer text is cut to its first characters and its length.
    A symbol is written as ``str`` writes it, ``A_{0,1}``, and the parts of a class, a
    Fraction, a named tuple, a tuple, a list or a dict each by this rule."""
    if isinstance(value, BasisSymbol):
        return f"{value.family.value}_{{{shown(value.i)},{shown(value.j)}}}"
    if isinstance(value, GradedClass):
        return f"GradedClass(n={shown(value.n)}, {value.__str__(shown)})"
    if isinstance(value, Fraction):
        return f"Fraction({shown(value.numerator)}, {shown(value.denominator)})"
    if isinstance(value, tuple) and hasattr(value, "_fields"):  # a named tuple
        fields = ", ".join(f"{k}={shown(v)}" for k, v in zip(value._fields, value))
        return f"{type(value).__name__}({fields})"
    if type(value) is dict:
        return "{" + ", ".join(f"{shown(k)}: {shown(v)}" for k, v in value.items()) + "}"
    if type(value) in (tuple, list):
        parts = ", ".join(map(shown, value)) + "," * (type(value) is tuple and len(value) == 1)
        return f"({parts})" if type(value) is tuple else f"[{parts}]"
    limit = digit_limit()
    if limit and isinstance(value, int) and abs(value) >= 10 ** limit:
        return f"<{'negative ' if value < 0 else ''}int over {limit} digits>"
    if limit and isinstance(value, str) and len(value) > limit:
        return f"{value[:20]!r}... ({len(value)} characters)"
    return repr(value)


def is_int(value) -> bool:
    """Whether ``value`` is an integer argument: an ``int`` that is not a ``bool``."""
    return isinstance(value, int) and value.__class__ is not bool


def require_int(value, noun: str, lo: int, hi: int | None = None, error=InvalidInput) -> None:
    """Raise ``error`` unless ``value`` is an integer argument in ``[lo, hi]`` (unbounded
    above when ``hi`` is None): the one integer check and the one writer of its messages."""
    if not is_int(value) or value < lo or (hi is not None and value > hi):
        raise error(f"{noun} must be an integer >= {lo}, got {shown(value)}" if hi is None
                    else f"{noun} {shown(value)} outside [{lo}, {shown(hi)}]")


def require_type(value, cls: type, what: str) -> None:
    """Raise ``InvalidInput`` unless ``value`` is a ``cls``: the one writer of the
    wrong-type message, in which ``what`` names the call."""
    if not isinstance(value, cls):
        raise InvalidInput(f"{what} takes a {cls.__name__}, got {shown(value)}")


def require_indices(i, j) -> None:
    """Raise ``InvalidIndex`` unless both indices are integer arguments."""
    if not (is_int(i) and is_int(j)):
        raise InvalidIndex(f"indices must be integers, got ({shown(i)}, {shown(j)})")


def require_ambient(n, error: type[ValidationError] = InvalidInput) -> None:
    """Raise ``error`` unless ``n`` is a valid ambient dimension (an int >= 1)."""
    if n.__class__ is not int or n < 1:  # plain ints >= 1 skip the call
        require_int(n, "ambient dimension", 1, error=error)


def require_grading(k, n: int, noun: str = "grading") -> None:
    """Raise ``InvalidGrading`` unless ``k`` is an integer in ``[0, 2n]``."""
    require_int(k, noun, 0, 2 * n, InvalidGrading)


def value_type(name: str, fields: str) -> type:
    """A named-tuple base for an immutable value class that validates in
    ``__new__``; ``_make``, and so ``_replace``, goes through ``__new__`` too."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, values: cls(*values))
    return base


class BasisSymbol(value_type("BasisSymbol", "family i j n")):
    """One abstract cycle class ``F_{i,j}`` on ``P^{n[2]}``.

    ``family`` is a :class:`Family` or its value (``"B'"``).  Construction
    validates the family, the ambient dimension, the indices and their
    range, in that order, raising :class:`InvalidIndex`.
    """

    __slots__ = ()

    def __new__(cls, family: Family | str, i: int, j: int, n: int):
        if family.__class__ is not Family:
            family = as_member(Family, family, InvalidIndex, "family")
        if not (n.__class__ is i.__class__ is j.__class__ is int and n >= 1):  # plain ints: no calls
            require_ambient(n, InvalidIndex)
            require_indices(i, j)
        if not in_range(family, i, j, n):
            raise InvalidIndex(
                f"{family.value}_{{{shown(i)},{shown(j)}}} is not a valid class on "
                f"P^{shown(n)}[2]: " + _range_description(family)
            )
        return tuple.__new__(cls, (family, i, j, n))

    @property
    def dimension(self) -> int:
        return self.i + self.j

    @property
    def codimension(self) -> int:
        return 2 * self.n - self.i - self.j

    def __str__(self):
        return f"{self.family.value}_{{{self.i},{self.j}}}"

    def __repr__(self):
        return f"BasisSymbol({self}, n={self.n})"


# The class-document schema's coefficient pattern, the one grammar of coefficient
# text.  ``[0-9]`` refuses non-ASCII digits, and ``fullmatch`` a trailing newline.
_RATIONAL = re.compile(r"-?([0-9]+)(?:/([1-9][0-9]*))?")


def as_rational(text: str, error: type[ValidationError]) -> Fraction:
    """The rational that ``text`` writes as ``p`` or ``p/q``; other text raises ``error``."""
    match = _RATIONAL.fullmatch(text)
    if match is None:
        raise error(f"bad rational string {shown(text)}")
    p, q = match.groups("")  # the numbers come from these groups: the string is read once
    limit, digits = digit_limit(), max(len(p), len(q))
    if limit and digits > limit:
        raise error(
            f"coefficient has a {digits}-digit part, over Python's limit of {limit}"
            " digits for converting a string to int"
        )
    num = -int(p) if text[0] == "-" else int(p)
    return Fraction(num, int(q)) if q else Fraction(num)


def _coerce_rational(value) -> Fraction:
    """Exact coefficient coercion: an ``int`` becomes a ``Fraction``, a ``Fraction`` is
    kept and text is read by :func:`as_rational`; anything else, a float too, is refused."""
    if isinstance(value, str):
        return as_rational(value, InvalidInput)
    if is_int(value):
        return Fraction(value)
    if not isinstance(value, Fraction):
        raise InvalidInput(f"{type(value).__name__} coefficient {shown(value)} rejected; "
                           "use Fraction, int or 'p/q'")
    return value


class GradedClass:
    """A sparse rational linear combination of :class:`BasisSymbol` terms.

    Immutable and in canonical form: no zero coefficients, terms ordered by
    ``(family, i, j)``, all symbols sharing the ambient dimension ``n``.
    Supports ``+``, ``-``, scalar ``*`` and equality.

    Coefficients: each is converted once to a ``Fraction`` as it arrives (a
    ``Fraction`` is kept as it is) and repeated symbols add up; text is read as a
    class document's is (``"p"`` or ``"p/q"``), and anything else is refused
    (:class:`InvalidInput`).  Zero sums are dropped, so :meth:`items`
    yields only nonzero ``Fraction`` coefficients.  ``copy``, ``deepcopy`` and
    ``pickle`` rebuild a class through this constructor.
    """

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping | Iterable[tuple] = ()):
        require_ambient(n)
        acc: dict[BasisSymbol, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        # Exact-class tests first: the isinstance fallbacks only see subclasses and refusals.
        try:  # the body raises only ValidationErrors: a TypeError or ValueError is the unpacking's
            for sym, coeff in items:
                if sym.__class__ is not BasisSymbol and not isinstance(sym, BasisSymbol):
                    raise InvalidInput(f"term key {shown(sym)} is not a BasisSymbol")
                if sym.n != n:
                    raise MixedAmbient(f"symbol {shown(sym)} lives on P^{shown(sym.n)}[2], "
                                       f"class on P^{shown(n)}[2]")
                kind = coeff.__class__
                if kind is int:
                    coeff = Fraction(coeff)
                elif kind is not Fraction and not isinstance(coeff, Fraction):
                    coeff = _coerce_rational(coeff)
                acc[sym] = acc[sym] + coeff if sym in acc else coeff  # a first one as it is
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"class terms must be (symbol, coefficient) pairs: {exc}") from exc
        # The symbols are distinct: the sort compares no coefficient.
        stored = sorted([t for t in acc.items() if t[1]], key=itemgetter(0))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_terms", tuple(stored))

    def __setattr__(self, name, value):
        raise AttributeError("GradedClass is immutable")

    def __reduce__(self):
        return GradedClass, (self.n, self._terms)

    @classmethod
    def from_symbol(cls, sym: BasisSymbol) -> "GradedClass":
        # A non-symbol has no ambient of its own: the constructor's key check refuses it.
        return cls(sym.n if isinstance(sym, BasisSymbol) else 1, [(sym, 1)])

    def items(self) -> tuple[tuple[BasisSymbol, Fraction], ...]:
        """Terms in canonical order."""
        return self._terms

    def families(self) -> frozenset[Family]:
        return frozenset(s.family for s, _ in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def dimension(self) -> int | None:
        """Common dimension of all terms; None for the zero class."""
        dims = {s.dimension for s, _ in self._terms}
        if not dims:
            return None
        if len(dims) > 1:
            raise NotHomogeneous(f"class mixes dimensions [{', '.join(map(shown, sorted(dims)))}]")
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
            raise MixedAmbient(
                f"cannot add classes on P^{shown(self.n)}[2] and P^{shown(other.n)}[2]")
        return GradedClass(self.n, self._terms + other._terms)

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

    def __str__(self, write=str):
        """``-A_{0,1} + 3/2*C_{1,1}``, each symbol and each int of a coefficient by ``write``."""
        if not self._terms:
            return "0"
        out = ""
        for sym, c in self._terms:
            p, q = abs(c).as_integer_ratio()
            coeff = "" if p == q else write(p) + (f"/{write(q)}" if q > 1 else "") + "*"
            out += (" - " if c < 0 else " + ") + coeff + write(sym)
        return ("-" if out[1] == "-" else "") + out[3:]  # the first sign without its spaces

    def __repr__(self):
        return f"GradedClass(n={self.n}, {self})"


def scaled_terms(X: GradedClass) -> tuple[list[tuple[BasisSymbol, int]], int]:
    """The terms of X as ``(symbol, int numerator)`` over the lcm of their
    denominators, and that lcm: linear maps add ``int``s and divide once."""
    ratios = [(s, c.as_integer_ratio()) for s, c in X.items()]
    d = lcm(*[q for _, (_, q) in ratios])
    return [(s, p * (d // q)) for s, (p, q) in ratios], d


def linear_sum(rule, terms, *args) -> dict:
    """``sum c * rule(key, *args)`` over ``(key, c)`` terms, as a key -> coefficient
    dict: the linear extension of a per-symbol rule, shared by products and pairings."""
    acc: dict = {}
    for key, c in terms:
        for out, v in rule(key, *args):
            acc[out] = acc.get(out, 0) + c * v
    return acc


def enumerate_basis(
    n: int,
    basis: BasisId | str,
    *,
    dim: int | None = None,
    codim: int | None = None,
) -> list[BasisSymbol]:
    """List the basis symbols of one grading (or all of them).

    With ``dim=k`` the list holds the dimension-k symbols sorted by
    increasing first index; with ``codim=k`` the codimension-k symbols by
    decreasing first index; with neither, every symbol, ordered
    lexicographically.  Families always appear in basis order
    (A/A', B/B', C).  Each family's index range is walked directly, so
    only in-range symbols are built.
    """
    require_ambient(n)
    basis = as_basis(basis)
    if dim is not None and codim is not None:
        raise InvalidInput("give at most one of dim and codim")

    if dim is not None or codim is not None:
        require_grading(dim if dim is not None else codim, n)
        k = dim if dim is not None else 2 * n - codim
    out = []
    for family in basis.families:  # in range: lo <= i, i + gap <= j <= n + top
        lo, gap, top = _RANGES[family]
        if dim is None and codim is None:
            out += [BasisSymbol(family, i, j, n)
                    for i in range(lo, n + top - gap + 1) for j in range(i + gap, n + top + 1)]
        else:  # j = k - i
            ids = range(max(lo, k - n - top), (k - gap) // 2 + 1)
            out += [BasisSymbol(family, i, k - i, n) for i in (ids if codim is None else ids[::-1])]
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
    require_grading(k, n, "codimension")
    total = 0
    for shift in (0, 1, -1):
        s = k + shift
        total += min(_ceil_half(s), n - s // 2)
    return total
