"""Pairings read from Chern monomials: each model of ``fixed_point_models`` is
integrated against the monomials in ``c1`` and ``c2`` of ``E_1`` and ``E_2``,
and ``Projection`` turns those integrals into intersection numbers.  No model
needs an equivariant class, so the nested ``A`` locus, whose class would need
a sum over its two branches, pairs with itself, and the nonzero ``A.A`` and
``A.B'`` entries of the pairing table get a derivation that shares no code or
formula with ``pairing._duals``.  One weight vector per ambient suffices: every
integral taken is of top degree, so any weights with distinct entries give the
same numbers.

The models of the MS generators:

* ``A_{i,j}``: the nested pair locus, ``Bl_{Δ(Λ_i)}(Λ_i × Λ_j)``;
* ``C_{k,l} = c2(E_1)^{n-l} h_{l-k}(E_1)``, integrated over ``P^n[2]``;
* ``B'_{i,j}``: the ``J_{i,j+1}`` cell closure plus ``A_{i,j}`` for i < j, plus
  ``2 C_{i,i}`` for i = j > 0, and the point, that cell at (0, 0).  These read
  ``B = 2 * cell`` (``test_localization``) through ``to_ms``'s coordinates of
  ``B``, both pinned by their own tests.

A product by one of the engine's two generators is the model times a density,
the generator as a Chern class: ``C_{n-1,n-1} = c2(E_1)`` and
``B'_{n-1,n-1} = c2(E_2) - 2 c2(E_1)``.  Projected and paired with every MS
model, it gives the pairings of ``mul_c_top`` and ``mul_bprime_top`` without
reading their rules, on every MS and BB generator (``B_{i,j}`` is twice the
cell closure, and ``B_{0,0}`` is the point itself).  ``c1(E_d)``, linear in d,
is ``(d-1) c1(E_2) - (d-2) c1(E_1)``, which checks ``chern_taut``'s ``c1``.
"""

import random
from functools import cache

from fixed_point_models import (
    Projection,
    c_class,
    cell_model,
    general_points,
    hilb_points,
    model,
    nested_points,
)
from hilb2 import (Family, GradedClass, chern_taut, chow_rank, enumerate_basis,
                   mul_bprime_top, mul_c_top, pair_classes, pair_symbols)


@cache
def projection(n):
    """The projection at one seeded weight vector with distinct entries."""
    return Projection(n, random.Random(n).sample(range(-60, 61), n + 1))


def ms_model(sym, w):
    """The weighted point set of an MS generator (see the module docstring)."""
    n, i, j = sym.n, sym.i, sym.j
    if sym.family is Family.C:
        return model(hilb_points(n, w), c_class(i, j, n))
    if sym.family is Family.A:
        return model(nested_points(n, i, j, w))
    cell = cell_model(n, i, j, w)
    if i < j:
        return cell + model(nested_points(n, i, j, w))
    if i > 0:
        return cell + [(c, 2 * weight) for c, weight in model(hilb_points(n, w), c_class(i, i, n))]
    return cell  # B'_{0,0}: the J_{0,1} point


def test_the_kept_monomials_span_every_grading():
    for n in range(1, 8):
        P = projection(n)
        assert [len(P.kept[k]) for k in range(2 * n + 1)] == [
            chow_rank(n, k) for k in range(2 * n + 1)], n


def test_the_general_position_locus_pairs_as_a_prime():
    # G_{i,j}, the closure of the pairs {p, q} with p in Λ_i = span(p_0..p_i) and
    # q in M_j = span(p_{n-j}..p_n), pairs with every A_{k,l} of complementary dimension
    # as A'_{i,j} does: 1 with A_{n-j,n-i} and 0 with the others.  B and C pair 0 with
    # A, so G = A'_{i,j} modulo the B and C families, and A'.A = 1 is the one value
    # that makes G's A' coefficient an integer.  This is evidence for the table's
    # A'.A = 1, not the paper's definition of A'.
    cases = nonzero = 0
    for n in range(2, 8):
        P = projection(n)
        w = P.weights
        for ap in enumerate_basis(n, "ES"):
            if ap.family is not Family.AP:
                continue
            G = P.vector(model(general_points(n, ap.i, ap.j, w)), ap.dimension)
            for a in enumerate_basis(n, "MS", codim=ap.dimension):
                if a.family is not Family.A:
                    continue
                got = P.pair(G, P.vector(model(nested_points(n, a.i, a.j, w)), a.dimension),
                             ap.dimension)
                assert got == pair_symbols(ap, a), (ap, a, got)
                cases += 1
                nonzero += got != 0
    assert (cases, nonzero) == (175, 83)  # one partner per A' symbol


def test_the_ms_gram_matches_the_pairing_table():
    # Every MS x MS entry of complementary dimension, among them every A.A and A.B'.
    cases = nonzero = a_entries = 0
    for n in range(1, 8):
        P = projection(n)
        w = P.weights
        vectors = {sym: P.vector(ms_model(sym, w), sym.dimension)
                   for sym in enumerate_basis(n, "MS")}
        for x, X in vectors.items():
            for y, Y in vectors.items():
                if x.dimension + y.dimension != 2 * n:
                    continue
                got = P.pair(X, Y, x.dimension)
                assert got == pair_symbols(x, y), (x, y, got)
                cases += 1
                nonzero += got != 0
                a_entries += got != 0 and x.family is Family.A and y.family is not Family.C
    assert (cases, nonzero, a_entries) == (1464, 420, 140)


def generator_model(sym, w):
    """The weighted point set of an MS or BB generator: ``B_{i,j}`` is twice the
    ``J_{i,j+1}`` cell closure, and ``B_{0,0}`` is the ``J_{0,1}`` point."""
    if sym.family is not Family.B:
        return ms_model(sym, w)
    cell = cell_model(sym.n, sym.i, sym.j, w)
    return cell if sym.i == sym.j == 0 else [(c, 2 * weight) for c, weight in cell]


def times(cycle, density):
    """The cycle times a class, ``density`` read from the Chern classes
    ``(c1(E_1), c2(E_1), c1(E_2), c2(E_2))`` at each point."""
    return [(c, weight * density(*c)) for c, weight in cycle]


# The engine's generators as Chern classes.
GENERATORS = [
    (mul_bprime_top, lambda c1e1, c2e1, c1e2, c2e2: c2e2 - 2 * c2e1),
    (mul_c_top, lambda c1e1, c2e1, c1e2, c2e2: c2e1),
]


def test_the_generator_products_match_the_projection():
    # pair(T.X, Y) through the projection of X's model times T, against pair_classes of
    # the engine's product, for every MS and BB generator X and every MS generator Y
    cases = nonzero = 0
    for n in range(2, 7):
        P = projection(n)
        w = P.weights
        ms = {y: P.vector(ms_model(y, w), y.dimension) for y in enumerate_basis(n, "MS")}
        generators = sorted({*enumerate_basis(n, "MS"), *enumerate_basis(n, "BB")},
                            key=lambda s: s[:3])
        for x in generators:
            d = x.dimension - 2
            if d < 0:
                continue
            cycle = generator_model(x, w)
            for mul, density in GENERATORS:
                product = P.vector(times(cycle, density), d)
                image = mul(GradedClass.from_symbol(x))
                for y, Y in ms.items():
                    if y.dimension != 2 * n - d:
                        continue
                    got = P.pair(product, Y, d)
                    assert got == pair_classes(image, GradedClass.from_symbol(y)), (
                        mul.__name__, x, y, got)
                    cases += 1
                    nonzero += got != 0
    assert (cases, nonzero) == (1802, 550)


def test_chern_taut_c1_integrates_over_the_curves():
    # ∫ c1(E_d) over each dimension-1 MS generator, c1(E_d) = (d-1) c1(E_2) - (d-2) c1(E_1)
    cases = 0
    for n in range(2, 7):
        w = projection(n).weights
        for d in range(1, 6):
            c1 = chern_taut(n, d)[0]
            for y in enumerate_basis(n, "MS", dim=1):
                got = sum(weight * ((d - 1) * c1e2 - (d - 2) * c1e1)
                          for (c1e1, _, c1e2, _), weight in ms_model(y, w))
                assert got == pair_classes(c1, GradedClass.from_symbol(y)), (n, d, y, got)
                cases += 1
    assert cases == 50
