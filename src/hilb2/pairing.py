"""Complementary-codimension intersection numbers and cone membership.

Two symbols ``X_{i,j}`` and ``Y_{k,l}`` have *complementary indices* when
``(k, l) = (n - j, n - i)``; every supported pairing vanishes away from that
pattern.  On complementary indices the nonzero products are

    MS x MS:  A.A = A.B' = B'.A = B'.C = C.B' = 1,
              B'.B' = 1  (2 when i = j),
    ES x MS:  A'.A = configurable positive diagonal (default 1),
              B.C  = 2,   C.B' = 1,

while A.C, C.C, A'.B', A'.C, B.A and B.B' are identically zero.  One corner
of the B.C block deviates: ``B_{0,0} . C_{n,n} = 1``, because ``B_{0,0}`` is
the point class (equal to ``B'_{0,0}``) and ``C_{n,n}`` the fundamental
class, so their product is the degree of a point; the multiplicity-2
argument behind the generic entry needs a ``C_{n-k,n-k}`` term that does not
exist in dimension zero.  Pairs whose
first argument is not an ES or MS family symbol, or whose second argument is
not an MS family symbol (so any ES x ES pairing, for instance), are refused
rather than guessed.

The ES/MS duality makes both cone tests coordinate checks: a codimension-k
class in MS coordinates is nef iff its coefficients are nonnegative, and a
dimension-k class is effective iff it pairs nonnegatively with every MS
generator of codimension k.

Because a symbol meets only the (at most three) symbols at its complementary
indices, every bilinear routine here groups one side by index pair and lets
each term of the other side look up its partners.  The costs are
``O(|X| + |Y|)`` for :func:`pair_classes`, ``O(rank + |X|)`` for
:func:`effectivity_pairings` and :func:`is_effective`, and
``O(rank)`` calls of :func:`pair_symbols` for :func:`intersection_matrix`
(plus its ``rank^2`` zero entries, which share one ``Fraction(0)``).
:func:`pair_symbols` returns shared ``Fraction`` constants for the table
values ``0``, ``1`` and ``2``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterable, Union

from .chow import (BasisId, BasisSymbol, Family, GradedClass, as_basis, enumerate_basis,
                   is_int, require_ambient, require_grading, value_type)
from .errors import (
    InvalidInput,
    MixedAmbient,
    NotComplementary,
    UnsupportedBasisPair,
    UnsupportedFamilyPair,
    WrongBasis,
)

_MS_FAMILIES = frozenset(BasisId.MS.families)
# Shared pairing values: Fractions are immutable, so one object per value.
_ZERO, _ONE, _TWO = Fraction(0), Fraction(1), Fraction(2)
_VALUE = {0: _ZERO, 1: _ONE, 2: _TWO}

# Supported (x.family, y.family) combos; value 0 marks an identically zero
# block, "cfg" the configurable A'.A diagonal.  A combo missing here is
# refused.
_PAIR_TABLE = {
    (Family.A, Family.A): 1,
    (Family.A, Family.BP): 1,
    (Family.A, Family.C): 0,
    (Family.BP, Family.A): 1,
    (Family.BP, Family.BP): 1,  # 2 on balanced indices, handled below
    (Family.BP, Family.C): 1,
    (Family.C, Family.A): 0,
    (Family.C, Family.BP): 1,
    (Family.C, Family.C): 0,
    (Family.AP, Family.A): "cfg",
    (Family.AP, Family.BP): 0,
    (Family.AP, Family.C): 0,
    (Family.B, Family.A): 0,
    (Family.B, Family.BP): 0,
    (Family.B, Family.C): 2,
}


class PairingConfig(value_type("PairingConfig", "ap_a_diagonal")):
    """Values for the diagonal entries the duality argument leaves free.

    ``ap_a_diagonal`` is the common value of ``A'_{i,j} . A_{n-j,n-i}``;
    only its positivity is pinned down, so it is configurable.
    """

    __slots__ = ()

    def __new__(cls, ap_a_diagonal: int = 1):
        if not is_int(ap_a_diagonal) or ap_a_diagonal < 1:
            raise InvalidInput(f"ap_a_diagonal must be an integer >= 1, got {ap_a_diagonal!r}")
        return tuple.__new__(cls, (ap_a_diagonal,))


DEFAULT_CONFIG = PairingConfig()


def partner_indices(sym: BasisSymbol) -> tuple[int, int]:
    """The complementary index pair ``(n - j, n - i)`` of a symbol."""
    return sym.n - sym.j, sym.n - sym.i


def has_complementary_indices(x: BasisSymbol, y: BasisSymbol) -> bool:
    return (y.i, y.j) == partner_indices(x)


def _by_indices(entries: Iterable[tuple[BasisSymbol, object]]) -> dict:
    """Group ``(symbol, value)`` entries by the symbol's index pair ``(i, j)``.

    This is the partner lookup: the entries a symbol ``x`` can pair nonzero
    with are those at ``partner_indices(x)``.
    """
    table: dict[tuple[int, int], list] = {}
    for sym, value in entries:
        table.setdefault((sym.i, sym.j), []).append((sym, value))
    return table


def _unsupported(fx: Family, fy: Family) -> UnsupportedFamilyPair:
    return UnsupportedFamilyPair(f"no intersection rule for {fx.value} . {fy.value}")


def pair_symbols(
    x: BasisSymbol, y: BasisSymbol, cfg: PairingConfig = DEFAULT_CONFIG
) -> Fraction:
    """Intersection number of two symbols of complementary codimension."""
    if x.n != y.n:
        raise MixedAmbient(f"{x} lives on P^{x.n}[2], {y} on P^{y.n}[2]")
    entry = _PAIR_TABLE.get((x.family, y.family))
    if entry is None:
        raise _unsupported(x.family, y.family)
    if x.codimension + y.codimension != 2 * x.n:
        raise NotComplementary(
            f"codim {x.codimension} + codim {y.codimension} != {2 * x.n} for {x} . {y}"
        )
    if not entry or not has_complementary_indices(x, y):
        return _ZERO
    if entry == "cfg":
        return Fraction(cfg.ap_a_diagonal)  # the one value the caller chooses
    if x.family is Family.BP and y.family is Family.BP and x.i == x.j:
        return _TWO
    if x.family is Family.B and x.i == x.j == 0:
        return _ONE  # point class against the fundamental class
    return _VALUE[entry]


def pair_classes(
    X: GradedClass, Y: GradedClass, cfg: PairingConfig = DEFAULT_CONFIG
) -> Fraction:
    """Bilinear extension of :func:`pair_symbols` to homogeneous classes.

    Each term of X meets only the terms of Y at its complementary indices.
    """
    if X.n != Y.n:
        raise MixedAmbient(f"classes live on P^{X.n}[2] and P^{Y.n}[2]")
    if X.is_zero or Y.is_zero:
        return _ZERO
    cx, cy = X.codimension(), Y.codimension()  # raises NotHomogeneous
    if cx + cy != 2 * X.n:
        raise NotComplementary(f"codim {cx} + codim {cy} != {2 * X.n}")
    # Refuse an unsupported family combination even where no indices
    # complement.  ``Family`` iterates in canonical term order, so the
    # combination named is the first one a term-by-term pass would meet.
    fams_x, fams_y = X.families(), Y.families()
    for fx, fy in product(Family, Family):
        if fx in fams_x and fy in fams_y and (fx, fy) not in _PAIR_TABLE:
            raise _unsupported(fx, fy)
    partners = _by_indices(Y.items())
    total = _ZERO
    for sx, a in X.items():
        for sy, b in partners.get(partner_indices(sx), ()):
            total += a * b * pair_symbols(sx, sy, cfg)
    return total


class IntersectionMatrix(
    value_type("IntersectionMatrix", "n k rows cols row_symbols col_symbols entries")
):
    """A pairing matrix together with the symbols labelling its rows/columns.

    ``rows`` and ``cols`` are the bases, ``row_symbols`` and ``col_symbols``
    tuples of :class:`BasisSymbol`, and ``entries`` a tuple of row tuples of
    ``Fraction``, which the repr leaves out.
    """

    __slots__ = ()

    def entry(self, r: int, c: int) -> Fraction:
        return self.entries[r][c]

    def is_diagonal(self) -> bool:
        return all(
            self.entries[r][c] == 0
            for r in range(len(self.row_symbols))
            for c in range(len(self.col_symbols))
            if r != c
        )

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields[:-1], self))
        return f"IntersectionMatrix({shown})"


_PARTNER_FAMILY = {Family.AP: Family.A, Family.B: Family.C, Family.C: Family.BP}


def dual_generator(sym: BasisSymbol) -> BasisSymbol:
    """MS symbol pairing nonzero with an ES symbol: its complementary partner.

    The family swap is A' -> A, B -> C, C -> B'; the indices are the
    complementary pair, which is always in range for the swapped family.
    """
    if sym.family not in _PARTNER_FAMILY:
        raise UnsupportedFamilyPair(f"{sym} is not an ES basis symbol")
    i, j = partner_indices(sym)
    return BasisSymbol(_PARTNER_FAMILY[sym.family], i, j, sym.n)


def intersection_matrix(
    n: int,
    k: int,
    rows: Union[BasisId, str] = BasisId.ES,
    cols: Union[BasisId, str] = BasisId.MS,
    cfg: PairingConfig = DEFAULT_CONFIG,
) -> IntersectionMatrix:
    """Pairing matrix of the dimension-k ``rows`` basis against the
    codimension-k ``cols`` basis.

    For (MS, MS) both sides carry their canonical enumeration order.  For
    (ES, MS) the columns are listed as the complementary partners of the
    rows (a permutation of the canonical codimension-k enumeration), which
    is the order in which the matrix is literally diagonal.
    """
    rows, cols = as_basis(rows), as_basis(cols)
    if (rows, cols) not in ((BasisId.ES, BasisId.MS), (BasisId.MS, BasisId.MS)):
        raise UnsupportedBasisPair(f"no intersection matrix for ({rows.value}, {cols.value})")
    require_ambient(n)
    require_grading(k, n)
    row_syms = tuple(enumerate_basis(n, rows, dim=k))
    if rows is BasisId.ES:
        col_syms = tuple(dual_generator(s) for s in row_syms)
    else:
        col_syms = tuple(enumerate_basis(n, cols, codim=k))
    columns = _by_indices((c, pos) for pos, c in enumerate(col_syms))
    entries = []
    for r in row_syms:
        row = [_ZERO] * len(col_syms)
        for c, pos in columns.get(partner_indices(r), ()):
            row[pos] = pair_symbols(r, c, cfg)
        entries.append(tuple(row))
    return IntersectionMatrix(n, k, rows, cols, row_syms, col_syms, tuple(entries))


def _require_ms(X: GradedClass, what: str) -> None:
    bad = [f.value for f in sorted(X.families() - _MS_FAMILIES)]
    if bad:
        raise WrongBasis(f"{what} expects MS coordinates; found families {bad}")


def is_nef(X: GradedClass, k: int | None = None) -> bool:
    """Whether a homogeneous codimension-k class in MS coordinates is nef.

    The MS generators span the nef cone in each grading, so this is a
    nonnegativity check on the coefficients.
    """
    if k is not None:
        require_grading(k, X.n)
    if X.is_zero:
        return True
    _require_ms(X, "is_nef")
    codim = X.codimension()  # raises NotHomogeneous
    if k is not None and k != codim:
        raise InvalidInput(f"class has codimension {codim}, not {k}")
    return all(c >= 0 for _, c in X.items())


def is_effective(
    X: GradedClass, k: int | None = None, cfg: PairingConfig = DEFAULT_CONFIG
) -> bool:
    """Whether a homogeneous dimension-k class in MS coordinates is effective.

    The effective cone in dimension k is dual to the nef cone in
    codimension k, so membership is a nonnegative pairing against every MS
    generator of codimension k.
    """
    return all(v >= 0 for _, v in _checked_pairings(X, k, cfg))


def _checked_pairings(X: GradedClass, k: int | None, cfg: PairingConfig) -> list:
    """The checks of :func:`is_effective`, then the pairing vector it reads."""
    if k is not None:
        require_grading(k, X.n)
    if not X.is_zero:
        _require_ms(X, "is_effective")
        dim = X.dimension()  # raises NotHomogeneous
        if k is not None and k != dim:
            raise InvalidInput(f"class has dimension {dim}, not {k}")
    return effectivity_pairings(X, cfg)


def effectivity_pairings(
    X: GradedClass, cfg: PairingConfig = DEFAULT_CONFIG
) -> list[tuple[BasisSymbol, Fraction]]:
    """The pairing vector behind :func:`is_effective`, for reporting."""
    if X.is_zero:
        return []
    _require_ms(X, "effectivity_pairings")
    generators = enumerate_basis(X.n, BasisId.MS, codim=X.dimension())
    values = [_ZERO] * len(generators)
    slots = _by_indices((y, pos) for pos, y in enumerate(generators))
    for x, a in X.items():
        for y, pos in slots.get(partner_indices(x), ()):
            values[pos] += a * pair_symbols(x, y, cfg)
    return list(zip(generators, values))
