"""Torus-fixed-point models of cycles on ``P^n[2]`` and a projection onto Chern
monomials, shared by the localization tests.  No test lives here.

The torus acts on the coordinate ``x_k`` of ``P^n`` with weight ``w_k``, all
weights distinct, and ``p_k`` is the k-th coordinate point.  At each fixed
point that ``enumerate_fixed_points`` lists, :func:`local_data` states the
weights of the tangent space ``Hom(I_Z, O_Z)`` and the two roots of ``E_d``,
the rank-2 bundle with fibre ``H^0(O_Z(d))``:

* ``I_{i,j}``, the reduced pair ``{p_i, p_j}``: tangent weights
  ``{w_i - w_k}_{k != i}`` and ``{w_j - w_k}_{k != j}``; roots ``d*w_i``,
  ``d*w_j``.
* ``J_{i,j}``, the double point at ``p_i`` pointing to ``p_j``, and
  ``K_{i,j}``, the one at ``p_j`` pointing to ``p_i``.  For the double point
  at ``p_p`` pointing to ``p_q``, with ``chi_k = w_k - w_p``: tangent weights
  ``{-chi_k}_{k != p}``, ``-2 chi_q`` and ``{chi_q - chi_k}_{k != p,q}``;
  roots ``d*w_p`` and ``d*w_p + chi_q``.

An integral is the exact sum, over the fixed points, of the integrand at the
roots divided by the product of the tangent weights (Bott's residue formula;
Atiyah-Bott 1984, Ellingsrud-Stromme, JAMS 1996).  A smooth model of a cycle
is integrated the same way over its own fixed points, with its own tangent
weights and the roots of the fixed point of ``P^n[2]`` it maps to:

* the closure of the ``J_{i,j+1}`` cell, a ``P^j``-bundle over ``P^i``
  (:func:`cell_points`);
* the closure of the pairs ``{p, q}`` with ``p`` in one coordinate subspace
  and ``q`` in another, blown up along the diagonal of their meet
  (:func:`pair_locus_points`): the ``A_{i,j}`` locus (:func:`nested_points`)
  and the general-position locus ``G_{i,j}`` (:func:`general_points`).

:class:`Projection` reads a model's class from its integrals of Chern
monomials, so two models pair without an equivariant class of either.
"""

from fractions import Fraction
from math import lcm, prod
from operator import mul

from hilb2 import IdealKind, MonomialIdealDescriptor, enumerate_fixed_points


def local_data(fp, w):
    """``(tangent weights, roots)`` at a fixed point, where ``roots(d)`` is the
    pair of roots of ``E_d`` there."""
    n, i, j = fp.n, fp.i, fp.j
    if fp.kind is IdealKind.I:
        tangent = [w[a] - w[k] for a in (i, j) for k in range(n + 1) if k != a]
        return tangent, lambda d: (d * w[i], d * w[j])
    p, q = (i, j) if fp.kind is IdealKind.J else (j, i)
    chi = [wk - w[p] for wk in w]
    tangent = [-chi[k] for k in range(n + 1) if k != p] + [-2 * chi[q]]
    tangent += [chi[q] - chi[k] for k in range(n + 1) if k not in (p, q)]
    return tangent, lambda d: (d * w[p], d * w[p] + chi[q])


def integrate(n, integrand, w):
    """``∫ integrand`` over ``P^n[2]``; ``integrand(roots)`` is its value at a
    fixed point, read from the roots of the tautological bundles there."""
    total = Fraction(0)
    for fp in enumerate_fixed_points(n):
        tangent, roots = local_data(fp, w)
        total += Fraction(integrand(roots), prod(tangent))
    return total


def h(k, x, y):
    """The complete homogeneous symmetric polynomial of degree k in x, y."""
    return sum(x**e * y ** (k - e) for e in range(k + 1))


def c2(roots, d):
    x, y = roots(d)
    return x * y


def c_class(k, l, n):
    """The integrand of ``C_{k,l} = c2(E_1)^{n-l} * h_{l-k}(roots of E_1)``."""
    return lambda roots: c2(roots, 1) ** (n - l) * h(l - k, *roots(1))


def weight_vectors(rng, n):
    """Two weight vectors, each with distinct entries."""
    return [rng.sample(range(-60, 61), n + 1) for _ in range(2)]


def double_point(a, b, n):
    """The fixed point of the double point at ``p_a`` pointing to ``p_b``."""
    return (MonomialIdealDescriptor(IdealKind.J, a, b, n) if a < b
            else MonomialIdealDescriptor(IdealKind.K, b, a, n))


def cell_points(n, i, j, w):
    """``(fixed point, tangent weights of the cell closure)`` for each fixed point
    of the closure of the ``J_{i,j+1}`` cell: the double points at ``p_a``,
    a in ``Λ_i``, that point to ``p_b``, b in ``Λ_{j+1}`` minus a, where ``Λ_r``
    is the span of ``p_0 .. p_r``.  The closure is a ``P^j``-bundle over
    ``P^i``, so it is smooth of dimension i + j."""
    for a in range(i + 1):
        for b in range(j + 2):
            if b == a:
                continue
            tangent = [w[a] - w[k] for k in range(i + 1) if k != a]
            tangent += [w[b] - w[k] for k in range(j + 2) if k not in (a, b)]
            yield double_point(a, b, n), tangent


def pair_locus_points(n, first, second, w):
    """``(roots, tangent weights)`` at each fixed point of ``Bl_{Δ(L)}(P × Q)``, where
    ``P`` and ``Q`` are the spans of the coordinate points ``first`` and ``second``
    and ``L`` is their meet; it maps birationally onto the closure of the pairs
    ``{p, q}``, p in P and q in Q, when ``P != Q``.  Its fixed points are the
    ordered pairs ``(p_a, p_b)``, a in ``first`` and b in ``second`` minus a, off
    the exceptional divisor, with the roots of ``I_{a,b}``; and on it, for a in
    the meet, the double points at ``p_a`` pointing to ``p_b``, b in the union
    minus a, with the roots of that ``J`` or ``K`` point.  There the tangent
    weights are the diagonal's, ``{w_a - w_k}`` over the meet, the exceptional
    fibre's, ``{w_b - w_k}`` over the union minus a and b, and ``w_a - w_b``."""
    meet = [k for k in first if k in second]
    union = sorted(set(first) | set(second))
    for a in first:
        for b in second:
            if b != a:
                pair = MonomialIdealDescriptor(IdealKind.I, min(a, b), max(a, b), n)
                yield (local_data(pair, w)[1], [w[a] - w[k] for k in first if k != a]
                       + [w[b] - w[k] for k in second if k != b])
    for a in meet:
        for b in union:
            if b != a:
                yield (local_data(double_point(a, b, n), w)[1],
                       [w[a] - w[k] for k in meet if k != a]
                       + [w[b] - w[k] for k in union if k not in (a, b)] + [w[a] - w[b]])


def nested_points(n, i, j, w):
    """The fixed points of ``Bl_{Δ(Λ_i)}(Λ_i × Λ_j)``, i < j, which maps
    birationally onto the ``A_{i,j}`` locus, the pairs ``{p, q}`` with ``p`` in
    ``Λ_i`` and ``q`` in ``Λ_j``; see :func:`pair_locus_points`."""
    return pair_locus_points(n, range(i + 1), range(j + 1), w)


def general_points(n, i, j, w):
    """The fixed points of the model of ``G_{i,j}``, the closure of the pairs
    ``{p, q}`` with ``p`` in ``Λ_i`` and ``q`` in ``M_j``, the span of
    ``p_{n-j} .. p_n``: two subspaces in general position, of dimension i + j."""
    return pair_locus_points(n, range(i + 1), range(n - j, n + 1), w)


# Chern-monomial projection.


def chern_classes(roots):
    """``(c1(E_1), c2(E_1), c1(E_2), c2(E_2))`` at a fixed point, from its roots."""
    (x1, y1), (x2, y2) = roots(1), roots(2)
    return x1 + y1, x1 * y1, x2 + y2, x2 * y2


def monomials(k):
    """The exponents ``(p, q, r, s)`` of the monomials
    ``c1(E_1)^p c2(E_1)^q c1(E_2)^r c2(E_2)^s`` of degree ``p + 2q + r + 2s = k``."""
    return [(p, q, k - p - 2 * (q + s), s) for q in range(k // 2 + 1)
            for s in range((k - 2 * q) // 2 + 1) for p in range(k - 2 * (q + s) + 1)]


def model(points, density=lambda roots: 1):
    """A cycle as a weighted point set, ``[(Chern classes, weight)]``, from its
    ``(roots, tangent weights)``: ``∫ f`` over it is the sum of ``weight * f``.
    ``density`` multiplies the cycle by a class, as ``c_class`` makes ``C``."""
    return [(chern_classes(roots), Fraction(density(roots), prod(tangent)))
            for roots, tangent in points]


def hilb_points(n, w):
    """``(roots, tangent weights)`` at each fixed point of ``P^n[2]``."""
    for fp in enumerate_fixed_points(n):
        tangent, roots = local_data(fp, w)
        yield roots, tangent


def cell_model(n, i, j, w):
    """The closure of the ``J_{i,j+1}`` cell as a weighted point set."""
    return model((local_data(fp, w)[1], tangent) for fp, tangent in cell_points(n, i, j, w))


def moments(cycle, exponents):
    """``∫ m`` over the weighted point set ``cycle`` for each monomial ``m`` in ``exponents``."""
    return [sum(weight * a**p * b**q * c**r * d**s for (a, b, c, d), weight in cycle)
            for p, q, r, s in exponents]


def _reduce(row, basis):
    """``row`` minus its part in the span of ``basis``, a list of ``(pivot, row)``
    in echelon form, each row zero at the pivots before its own."""
    for pivot, b in basis:
        if row[pivot]:
            f = Fraction(row[pivot]) / b[pivot]
            row = [x - f * y for x, y in zip(row, b)]
    return row


def _inverse(matrix):
    """The inverse of a square matrix of ``Fraction``s, by Gauss-Jordan elimination."""
    size = len(matrix)
    rows = [list(row) + [Fraction(int(r == c)) for c in range(size)]
            for r, row in enumerate(matrix)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[size:] for row in rows]


class Projection:
    """Coordinates of the cycles of ``P^n[2]`` in Chern monomials, at one weight vector.

    For each degree k, ``kept[k]`` holds the monomials of degree k kept greedily
    while their integrals against all monomials of degree ``2n - k`` stay
    independent.  Where the monomials span the rational Chow group, ``kept[k]``
    has ``chow_rank(n, k)`` members and the Gram matrix ``∫ a * b``, a in
    ``kept[k]`` and b in ``kept[2n - k]``, is invertible.  A cycle ``Z`` of
    dimension d is then ``sum z_b b`` over ``kept[2n - d]``, with ``z`` the Gram
    inverse applied to ``v(Z)``, its integrals of ``kept[d]``; and
    ``Z . W = v(W) . z``."""

    def __init__(self, n, w):
        self.n, self.weights = n, w
        whole = model(hilb_points(n, w))
        values = {k: {e: [a**e[0] * b**e[1] * c**e[2] * d**e[3] for (a, b, c, d), _ in whole]
                      for e in monomials(k)} for k in range(2 * n + 1)}
        # The integrals times one common denominator are integers: exact and fast.
        scale = lcm(*(weight.denominator for _, weight in whole))
        weights = [int(weight * scale) for _, weight in whole]

        def scaled(m, duals):
            weighted = list(map(mul, m, weights))
            return [sum(map(mul, weighted, dual)) for dual in duals]

        self.kept, self._inverse = {}, {}
        for k in range(2 * n + 1):
            basis, self.kept[k] = [], []
            for exponent, m in values[k].items():
                row = _reduce(scaled(m, values[2 * n - k].values()), basis)
                pivot = next((c for c, x in enumerate(row) if x), None)
                if pivot is not None:
                    basis.append((pivot, row))
                    self.kept[k].append(exponent)
        for d in range(2 * n + 1):
            duals = [values[2 * n - d][b] for b in self.kept[2 * n - d]]
            gram = [[Fraction(x, scale) for x in scaled(values[d][a], duals)] for a in self.kept[d]]
            self._inverse[d] = _inverse(gram)

    def vector(self, cycle, d):
        """``v(Z)``: the integrals of the kept monomials of degree d over ``cycle``."""
        return moments(cycle, self.kept[d])

    def pair(self, vz, vw, d):
        """``Z . W`` from ``vz = v(Z)`` and ``vw = v(W)``, for ``Z`` of dimension d and
        ``W`` of dimension ``2n - d``."""
        coords = [sum(g * v for g, v in zip(row, vz)) for row in self._inverse[d]]
        return sum(c * v for c, v in zip(coords, vw))
