"""Complementary-codimension intersection numbers and cone membership.

Two symbols ``X_{i,j}`` and ``Y_{k,l}`` have *complementary indices* when
``(k, l) = (n - j, n - i)``; every supported pairing vanishes away from that
pattern.  On complementary indices the nonzero products are

    MS x MS:  A.A = A.B' = B'.A = B'.C = C.B' = 1,
              B'.B' = 1  (2 when i = j),
    ES x MS:  A'.A = 1,   B.C  = 2,   C.B' = 1,

and the other seven family pairs against an MS family (A.C, C.A, C.C, A'.B',
A'.C, B.A and B.B') are identically zero.  One corner of the B.C block
deviates: ``B_{0,0} . C_{n,n} = 1``, because ``B_{0,0}`` is the point class
(equal to ``B'_{0,0}``) and ``C_{n,n}`` the fundamental class, so their
product is the degree of a point; the multiplicity-2 argument behind the
generic entry needs a ``C_{n-k,n-k}`` term that does not exist in dimension
zero.  A second factor is read in MS coordinates (``chow.ms_terms``), so
every pair of the five families has a value, and the pairing is symmetric.

The ES/MS duality makes both cone tests coordinate checks: a codimension-k
class of any family is nef iff its MS coordinates are nonnegative, and a
dimension-k class is effective iff it pairs nonnegatively with every MS
generator of codimension k.

Every pairing is one linear map, stated per family by the rule :func:`_duals`
as the products state theirs: ``x`` goes to the (at most three) MS symbols at
its complementary indices that the table above values nonzero, each term built
by ``chow.term``, which lists none out of range.  ``chow.linear_sum`` extends
the rule to a class on integer numerators over one common denominator, as it
extends the product rules.  A symbol is its own key: the class routines read
the image of X, an ES symbol's image is one key (its dual generator, in the
table's ES row), and :func:`pair_symbols` is :func:`pair_classes` on one-term classes.
:func:`intersection_matrix` applies the rule once per row and places the image
in its columns; an ES row's image is that one key, which labels the row's
column and gives the diagonal value.  Each routine makes its checks first,
once per call.  The table states every value: the ES and MS bases are dual
(arXiv 2103.12674), so no entry is a parameter.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .chow import (A, AP, BP, C, BasisId, BasisSymbol, GradedClass, as_basis, enumerate_basis,
                   linear_sum, ms_terms, require_ambient, require_grading, require_type,
                   scaled_terms, shown, term)
from .errors import InvalidInput, MixedAmbient, NotComplementary, UnsupportedFamilyPair

_MS_FAMILIES = BasisId.MS.families
_ZERO = Fraction(0)  # the one shared value: every vanishing pairing


def _duals(x: BasisSymbol) -> list:
    """Rule: ``[((fy, k, l, n), value)]``, one term per MS symbol ``x`` meets at its
    complementary indices ``(k, l)`` in a nonzero block; the rest pair to zero."""
    fx, i, j, n = x
    k, l = n - j, n - i
    if fx is A:
        return term(A, k, l, n, 1) + term(BP, k, l, n, 1)
    if fx is BP:
        return term(A, k, l, n, 1) + term(BP, k, l, n, 2 if i == j else 1) + term(C, k, l, n, 1)
    if fx is C:
        return term(BP, k, l, n, 1)
    if fx is AP:
        return term(A, k, l, n, 1)
    return term(C, k, l, n, 1 if i == j == 0 else 2)  # B; B_{0,0} is the point class


def pair_symbols(x: BasisSymbol, y: BasisSymbol) -> Fraction:
    """Intersection number of two symbols: :func:`pair_classes` on their one-term classes."""
    return pair_classes(GradedClass.from_symbol(x), GradedClass.from_symbol(y))


def pair_classes(X: GradedClass, Y: GradedClass) -> Fraction:
    """Intersection number of two homogeneous classes of complementary codimension:
    the image of X under the rule :func:`_duals`, dotted with Y's MS coordinates.

    Checks, in order: two classes, one ambient, a zero factor gives 0, then
    homogeneity and complementarity.
    """
    if not (isinstance(X, GradedClass) and isinstance(Y, GradedClass)):
        raise InvalidInput(
            f"pair_classes takes two GradedClass operands, got {shown(X)} and {shown(Y)}")
    if X.n != Y.n:
        raise MixedAmbient(f"classes live on P^{shown(X.n)}[2] and P^{shown(Y.n)}[2]")
    if X.is_zero or Y.is_zero:
        return _ZERO
    cx, cy = X.codimension(), Y.codimension()  # raises NotHomogeneous
    if cx + cy != 2 * X.n:
        raise NotComplementary(f"codim {shown(cx)} + codim {shown(cy)} != {shown(2 * X.n)}")
    (xs, dx), (ys, dy) = scaled_terms(X), scaled_terms(Y)
    if not Y.families().issubset(_MS_FAMILIES):  # an A' or B term: Y in MS coordinates
        ys = linear_sum(ms_terms, ys).items()
    sums = linear_sum(_duals, xs)
    return Fraction(sum(b * sums.get(y, 0) for y, b in ys), dx * dy)


class IntersectionMatrix(namedtuple("IntersectionMatrix", "row_symbols col_symbols entries")):
    """A pairing matrix, built by :func:`intersection_matrix`, that validates nothing:
    ``row_symbols`` and ``col_symbols`` label its rows and columns with tuples of
    :class:`BasisSymbol`, and ``entries`` is a tuple of row tuples of ``Fraction``."""

    __slots__ = ()


def intersection_matrix(n: int, k: int, rows: BasisId | str = BasisId.ES,
                        cols: BasisId | str = BasisId.MS) -> IntersectionMatrix:
    """Pairing matrix of the dimension-k ``rows`` basis, any of the three, against the
    codimension-k MS basis; any other ``cols`` raises ``UnsupportedFamilyPair``.

    For BB or MS rows both sides carry their canonical enumeration order.
    For ES rows the columns are listed as the complementary partners of the
    rows (a permutation of the canonical codimension-k enumeration), which
    is the order in which the matrix is literally diagonal.
    """
    rows, cols = as_basis(rows), as_basis(cols)
    if cols is not BasisId.MS:
        raise UnsupportedFamilyPair(f"no intersection matrix for ({rows.value}, {cols.value})")
    require_ambient(n)
    require_grading(k, n)
    row_syms = tuple(enumerate_basis(n, rows, dim=k))
    images = [_duals(r) for r in row_syms]
    if rows is BasisId.ES:  # one term per image: its key labels the column, the matrix is diagonal
        col_syms = tuple(BasisSymbol(*key) for ((key, _),) in images)
    else:
        col_syms = tuple(enumerate_basis(n, cols, codim=k))
    column = {c: pos for pos, c in enumerate(col_syms)}
    entries = []
    for image in images:
        row = [_ZERO] * len(col_syms)
        for key, v in image:
            row[column[key]] = Fraction(v)
        entries.append(tuple(row))
    return IntersectionMatrix(row_syms, col_syms, tuple(entries))


def _cone_grading(X: GradedClass, k: int | None, what: str, grading) -> int | None:
    """The checks of the cone routine ``what``, in order: a class, ``k``'s range, the zero
    class (None), homogeneity, then ``k`` against ``grading(X)``, returned."""
    require_type(X, GradedClass, what)
    if k is not None:
        require_grading(k, X.n)
    if X.is_zero:
        return None
    g = grading(X)  # raises NotHomogeneous
    if k is not None and k != g:
        raise InvalidInput(f"class has {grading.__name__} {shown(g)}, not {shown(k)}")
    return g


def is_nef(X: GradedClass, k: int | None = None) -> bool:
    """Whether a homogeneous codimension-k class is nef.

    The MS generators span the nef cone in each grading, so this is a
    nonnegativity check on the MS coordinates; a class with an A' or B term
    is rewritten in them first.
    """
    if _cone_grading(X, k, "is_nef", GradedClass.codimension) is None:
        return True
    if X.families().issubset(_MS_FAMILIES):
        return all(c >= 0 for _, c in X.items())
    return all(c >= 0 for c in linear_sum(ms_terms, X.items()).values())


def is_effective(X: GradedClass, k: int | None = None) -> bool:
    """Whether a homogeneous dimension-k class is effective.

    The effective cone in dimension k is dual to the nef cone in
    codimension k, so membership is a nonnegative pairing against every MS
    generator of codimension k; only the generators X's terms meet can fail.
    """
    if _cone_grading(X, k, "is_effective", GradedClass.dimension) is None:
        return True
    return all(v >= 0 for v in linear_sum(_duals, scaled_terms(X)[0]).values())


def effectivity_pairings(X: GradedClass) -> list[tuple[BasisSymbol, Fraction]]:
    """The pairing vector behind :func:`is_effective`, for reporting."""
    dim = _cone_grading(X, None, "effectivity_pairings", GradedClass.dimension)
    if dim is None:
        return []
    generators = enumerate_basis(X.n, BasisId.MS, codim=dim)
    terms, d = scaled_terms(X)
    sums = linear_sum(_duals, terms)  # numerators over d, keyed by generator
    return [(g, _ZERO if (v := sums.get(g)) is None else Fraction(v, d)) for g in generators]
