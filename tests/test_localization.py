"""Torus localization: a derivation of the secant degrees, of the pairings
of the C, B and A families and of the products of C with the two top classes
that shares no code or formula with the closed secant sum, the product rules
or the pairing rule.

The fixed points, their tangent weights and the roots of the tautological
bundles ``E_d`` there, and the models of the ``J`` cell closures and of the
``A_{i,j}`` locus, are stated in ``fixed_point_models``.  An integral over the
closure of the ``J_{i,j+1}`` cell shows that ``B_{i,j}`` is twice that cell
closure for (i, j) != (0, 0).  An integral over the ``A_{i,j}`` locus runs over
the blow-up of ``Λ_i × Λ_j`` along the diagonal of ``Λ_i``, where ``Λ_r`` is
the span of ``p_0 .. p_r``.  A top-degree integrand gives the same integer at
every weight vector with distinct entries; a lower-degree one gives 0.
"""

import random
from fractions import Fraction
from math import comb, prod

from fixed_point_models import (
    c2,
    c_class,
    cell_points,
    h,
    integrate,
    local_data,
    nested_points,
    weight_vectors,
)
from hilb2 import (
    BasisSymbol,
    Family,
    GradedClass,
    IdealKind,
    MonomialIdealDescriptor,
    MonomialSpec,
    SecantProblem,
    chern_taut,
    enumerate_basis,
    eval_monomial,
    mul_bprime_top,
    mul_c_top,
    pair_classes,
    secant_degree_mu_closed,
    to_ms,
)


def integer_integral(n, integrand, rng):
    """The integral, checked to be one integer at two weight vectors."""
    values = {integrate(n, integrand, w) for w in weight_vectors(rng, n)}
    assert len(values) == 1, values
    (value,) = values
    assert value.denominator == 1, value
    return int(value)


def test_an_integrand_below_top_degree_integrates_to_zero():
    rng = random.Random(2)
    for n in range(1, 6):
        for w in weight_vectors(rng, n):
            assert integrate(n, lambda roots: 1, w) == 0
            for k in range(n):  # c2(E_1)^k, of degree 2k < 2n
                assert integrate(n, lambda roots: c2(roots, 1) ** k, w) == 0
            assert integrate(n, lambda roots: h(2 * n - 1, *roots(1)), w) == 0


def test_secant_degrees_by_localization():
    # deg(Sec X) * mu1 = ∫ prod_i c2(E_{d_i}) * h_{2m}(roots of E_1).
    rng = random.Random(2024)
    cases = 0
    for n in range(3, 10):
        for m in range(n // 2):  # every m with 2m + 1 < n
            for _ in range(4):
                degrees = [rng.randint(1, 5) for _ in range(n - m)]

                def integrand(roots, degrees=degrees, m=m):
                    return h(2 * m, *roots(1)) * prod(c2(roots, d) for d in degrees)

                got = integer_integral(n, integrand, rng)
                assert got == secant_degree_mu_closed(SecantProblem(n, degrees)), (n, degrees)
                cases += 1
    assert cases == 76


def reembedded_double_points(n, degrees, e):
    """``deg(Sec X) * mu1`` by the double-point formula (Fulton, *Intersection
    Theory*, §9.3), in integers, for the complete intersection ``X^m c P^n`` of
    ``degrees`` embedded by ``O(e)``: with ``H`` the hyperplane class of ``P^n``
    and ``D = e^m prod d_i`` the degree of the image,

        2 deg(Sec X) mu1 = D^2 - (prod d_i) [H^m] (1 + eH)^(2m+1) prod(1 + d_i H) (1 + H)^-(n+1),

    the second term being ``c_m`` of the virtual normal bundle of a general
    projection to ``P^{2m}``.  With no degrees X is ``P^n`` and its image the
    Veronese variety ``v_e(P^n)``."""
    m = n - len(degrees)
    series = [comb(2 * m + 1, k) * e**k for k in range(m + 1)]  # (1 + eH)^(2m+1), up to H^m
    for d in degrees:
        series = [a + d * b for a, b in zip(series, [0] + series)]
    # [H^j] (1 + H)^-(n+1) = (-1)^j C(n + j, j)
    top = sum(series[i] * (-1) ** (m - i) * comb(n + m - i, m - i) for i in range(m + 1))
    twice = (e**m * prod(degrees)) ** 2 - prod(degrees) * top
    assert twice % 2 == 0, (n, degrees, e)
    return twice // 2


def reembedded_integrand(m, degrees, e):
    """``s_{2m}(E_e) * prod_i c2(E_{d_i})``, where ``s_{2m}(E_e) = h_{2m}(roots of E_e)``."""
    return lambda roots: h(2 * m, *roots(e)) * prod(c2(roots, d) for d in degrees)


def test_reembedded_secant_degrees_by_localization_and_double_points():
    # The O(1) integrand of the test above becomes s_{2m}(E_e) for X embedded by O(e);
    # localization and the double-point formula share no step.  They agree for every m,
    # also where 2m + 1 < n fails and the number is no longer a secant degree.
    rng = random.Random(2103)
    cases = checked = 0
    for n in range(1, 8):
        for m in range(n + 1):
            for _ in range(3):
                e = rng.randint(1, 4)
                degrees = [rng.randint(1, 4) for _ in range(n - m)]
                got = integer_integral(n, reembedded_integrand(m, degrees, e), rng)
                assert got == reembedded_double_points(n, degrees, e), (n, degrees, e)
                if e == 1 and 2 * m + 1 < n:  # today's secant problem
                    assert got == secant_degree_mu_closed(SecantProblem(n, degrees))
                    checked += 1
                cases += 1
    assert (cases, checked) == (105, 9)


def test_veronese_secant_degrees_are_the_classical_values():
    # v_3(P^1) and v_4(P^1) are the twisted cubic and the rational normal quartic;
    # v_2(P^m), m >= 2, is the defective case of Alexander-Hirschowitz (J. Algebraic
    # Geom. 4, 1995): its secant variety is too small, and the count is 0.
    rng = random.Random(75)
    for m, e, want in [(1, 3, 1), (1, 4, 3), (2, 3, 15), (2, 4, 75), (2, 2, 0), (3, 2, 0)]:
        assert reembedded_double_points(m, [], e) == want, (m, e)
        assert integer_integral(m, reembedded_integrand(m, [], e), rng) == want, (m, e)


def test_the_chern_classes_are_the_bridge_to_the_product_engine():
    # c2(E_1) = C_{n-1,n-1} and c2(E_2) = B'_{n-1,n-1} + 2 C_{n-1,n-1}, so
    # B'_{n-1,n-1} = c2(E_2) - 2 c2(E_1) in the test below.
    for n in range(2, 9):
        bp = GradedClass.from_symbol(BasisSymbol("B'", n - 1, n - 1, n))
        c = GradedClass.from_symbol(BasisSymbol("C", n - 1, n - 1, n))
        assert chern_taut(n, 1)[1] == c
        assert chern_taut(n, 2)[1] == bp + 2 * c


def test_c_family_pairings_by_localization():
    # C_{i,j} = c2(E_1)^{n-j} * h_{j-i}(roots of E_1), so
    # B'^a C^b . C_{i,j} = ∫ (c2(E_2) - 2 c2(E_1))^a * c2(E_1)^{b+n-j} * h_{j-i}.
    rng = random.Random(7)
    cases = 0
    for n in range(1, 9):
        for a in range(1, n + 1):
            for b in range(n - a + 1):
                X = eval_monomial(MonomialSpec(n, a, b))
                for i in range(1, a + b + 1):
                    j = 2 * (a + b) - i
                    if j > n:
                        continue

                    def integrand(roots, a=a, b=b, i=i, j=j):
                        bprime = c2(roots, 2) - 2 * c2(roots, 1)
                        return (bprime**a * c2(roots, 1) ** (b + n - j)
                                * h(j - i, *roots(1)))

                    target = GradedClass.from_symbol(BasisSymbol("C", i, j, n))
                    assert integer_integral(n, integrand, rng) == pair_classes(X, target), (
                        n, a, b, i, j)
                    cases += 1
    assert cases == 250


def cell_integral(n, i, j, integrand, rng):
    """``∫ integrand`` over the ``J_{i,j+1}`` cell closure, read from the roots
    at each of its fixed points; one integer at two weight vectors."""
    values = set()
    for w in weight_vectors(rng, n):
        total = Fraction(0)
        for fp, tangent in cell_points(n, i, j, w):
            total += Fraction(integrand(local_data(fp, w)[1]), prod(tangent))
        values.add(total)
    assert len(values) == 1, values
    (value,) = values
    assert value.denominator == 1, value
    return int(value)


def test_b_is_twice_the_j_cell_closure_against_its_c_partner():
    # B_{i,j} pairs 2 with C_{n-j,n-i}, and the J_{i,j+1} cell closure pairs 1, for
    # (i, j) != (0, 0); at the point class B_{0,0} both pair 1.
    rng = random.Random(3)
    ratios = []
    for n in range(2, 8):
        for i in range(n):
            for j in range(i, n):
                cell = cell_integral(n, i, j, c_class(n - j, n - i, n), rng)
                b = pair_classes(GradedClass.from_symbol(BasisSymbol("B", i, j, n)),
                                 GradedClass.from_symbol(BasisSymbol("C", n - j, n - i, n)))
                assert cell == 1, (n, i, j)
                ratios.append((b, (i, j) == (0, 0)))
    assert ratios.count((2, False)) == 77 and ratios.count((1, True)) == 6
    assert len(ratios) == 83


def test_b_and_the_j_cell_closure_pair_zero_with_the_chern_monomials():
    # B_{i,j} . B'^a C^b = 2 ∫_{cell} (c2(E_2) - 2 c2(E_1))^a c2(E_1)^b in every
    # complementary grading, (i, j) != (0, 0): both sides are 0 in all 110 cases,
    # so the C partners above and the Gram entries below fix the factor 2.
    rng = random.Random(5)
    cases = 0
    for n in range(2, 8):
        for i in range(n):
            for j in range(i, n):
                if (i + j) % 2 or (i, j) == (0, 0):
                    continue
                for a in range(1, (i + j) // 2 + 1):
                    b = (i + j) // 2 - a

                    def integrand(roots, a=a, b=b):
                        return (c2(roots, 2) - 2 * c2(roots, 1)) ** a * c2(roots, 1) ** b

                    X = eval_monomial(MonomialSpec(n, a, b))
                    B = GradedClass.from_symbol(BasisSymbol("B", i, j, n))
                    assert pair_classes(B, X) == 2 * cell_integral(n, i, j, integrand, rng) == 0
                    cases += 1
    assert cases == 110


def test_b_gram_entries_are_the_j_cell_closures_meeting():
    # The closure Z of a J cell is smooth, so its equivariant class at a fixed point
    # p of Z is e(T_p Hilb) / e(T_p Z), and 0 elsewhere.  B_{i,j} . B_{k,l} is then
    # ∫_{Z_{i,j}} [Z_{k,l}], times 2 for each of the two that is not B_{0,0}.
    rng = random.Random(9)
    nonzero = cases = 0
    for n in range(2, 7):
        cells = [(i, j) for i in range(n) for j in range(i, n)]
        for i, j in cells:
            for k, l in cells:
                if i + j + k + l != 2 * n:
                    continue
                values = set()
                for w in weight_vectors(rng, n):
                    other = {fp: prod(t) for fp, t in cell_points(n, k, l, w)}
                    values.add(sum(Fraction(prod(local_data(fp, w)[0]), other[fp] * prod(t))
                                   for fp, t in cell_points(n, i, j, w) if fp in other))
                (meet,) = values
                factor = (1 if (i, j) == (0, 0) else 2) * (1 if (k, l) == (0, 0) else 2)
                B = GradedClass.from_symbol(BasisSymbol("B", i, j, n))
                assert pair_classes(B, to_ms(BasisSymbol("B", k, l, n))) == factor * meet, (
                    n, i, j, k, l)
                nonzero += meet != 0
                cases += 1
    assert (cases, nonzero) == (83, 15)


def nested_integral(n, i, j, integrand, rng):
    """``∫ integrand`` over the ``A_{i,j}`` locus; one integer at two weight vectors."""
    values = {sum(Fraction(integrand(roots), prod(tangent))
                  for roots, tangent in nested_points(n, i, j, w))
              for w in weight_vectors(rng, n)}
    assert len(values) == 1, values
    (value,) = values
    assert value.denominator == 1, value
    return int(value)


def test_a_is_the_nested_pair_locus():
    # A_{i,j} pairs with every C_{k,l} and every B'^a C^b of complementary codimension
    # as the blow-up of Λ_i × Λ_j along the diagonal of Λ_i does, i < j.  Every one of
    # these pairings is 0 on both sides, so the model confirms where A vanishes, but
    # none of its nonzero entries (A.A and A.B'), which these classes do not reach.
    # A x A entries are left out: where both points lie in Λ_i the locus has two
    # branches in the Hilbert scheme, so its equivariant class needs a sum over preimages.
    # tests/test_chern_projection.py reaches them by a projection that needs no such class.
    rng = random.Random(11)
    against_c = against_monomials = nonzero = 0
    for n in range(2, 8):
        for sym in enumerate_basis(n, "MS"):
            if sym.family is not Family.A:
                continue
            A = GradedClass.from_symbol(sym)
            for other in enumerate_basis(n, "MS", codim=sym.dimension):
                if other.family is Family.C:
                    got = nested_integral(n, sym.i, sym.j, c_class(other.i, other.j, n), rng)
                    assert got == pair_classes(A, GradedClass.from_symbol(other)), (sym, other)
                    against_c += 1
                    nonzero += got != 0
            for a in range(1, sym.dimension // 2 + 1):
                b = sym.dimension // 2 - a
                if sym.dimension % 2 or a + b > n:
                    continue

                def integrand(roots, a=a, b=b):
                    return (c2(roots, 2) - 2 * c2(roots, 1)) ** a * c2(roots, 1) ** b

                got = nested_integral(n, sym.i, sym.j, integrand, rng)
                assert got == pair_classes(A, eval_monomial(MonomialSpec(n, a, b))), (sym, a, b)
                against_monomials += 1
                nonzero += got != 0
    assert (against_c, against_monomials, nonzero) == (160, 96, 0)


def test_the_disjoint_pair_locus_is_not_a():
    # Λ_i × Λ_j with the two subspaces disjoint (no blow-up: the points never meet)
    # pairs nonzero with C_{k,l} in 50 of 80 cases where A pairs 0, so the all-zero
    # answer of the nested model above is a finding, not a blind spot of the method.
    rng = random.Random(13)
    cases = differ = 0
    for n in range(2, 8):
        for i in range(n):
            for j in range(i + 1, n - i):
                for k in range(1, n + 1):
                    l = 2 * n - i - j - k
                    if not k <= l <= n:
                        continue
                    values = set()
                    for w in weight_vectors(rng, n):
                        total = Fraction(0)
                        for a in range(i + 1):  # p_a in span(p_0..p_i)
                            for b in range(i + 1, i + j + 2):  # p_b in span(p_{i+1}..p_{i+j+1})
                                tangent = [w[a] - w[t] for t in range(i + 1) if t != a]
                                tangent += [w[b] - w[t] for t in range(i + 1, i + j + 2) if t != b]
                                roots = local_data(
                                    MonomialIdealDescriptor(IdealKind.I, a, b, n), w)[1]
                                total += Fraction(c_class(k, l, n)(roots), prod(tangent))
                        values.add(total)
                    (value,) = values
                    A = GradedClass.from_symbol(BasisSymbol("A", i, j, n))
                    C = GradedClass.from_symbol(BasisSymbol("C", k, l, n))
                    differ += value != pair_classes(A, C)
                    cases += 1
    assert (cases, differ) == (80, 50)


def test_products_with_c_by_localization():
    # B'_{n-1,n-1} . C_{i,j} and C_{n-1,n-1} . C_{i,j}, with B'_{n-1,n-1} = c2(E_2) - 2 c2(E_1)
    # and C_{n-1,n-1} = c2(E_1), pair with each BB model of complementary dimension as the
    # integrand of the triple product does: over P^n[2] against C_{k,l}, over the J_{k,l+1}
    # cell closure against B_{k,l} (twice the closure), over the nested locus against A_{k,l}.
    rng = random.Random(17)
    tops = {mul_bprime_top: lambda roots: c2(roots, 2) - 2 * c2(roots, 1),
            mul_c_top: lambda roots: c2(roots, 1)}
    cases = nonzero = nested_nonzero = 0
    for n in range(2, 7):
        for sym in enumerate_basis(n, "MS"):
            if sym.family is not Family.C:
                continue
            for mul, top in tops.items():
                product = mul(GradedClass.from_symbol(sym))
                c = c_class(sym.i, sym.j, n)

                def integrand(roots, top=top, c=c):
                    return top(roots) * c(roots)

                for other in enumerate_basis(n, "BB", codim=sym.dimension - 2):
                    k, l = other.i, other.j
                    if other.family is Family.C:
                        got = integer_integral(
                            n, lambda roots, k=k, l=l: integrand(roots) * c_class(k, l, n)(roots),
                            rng)
                    elif other.family is Family.B:
                        got = 2 * cell_integral(n, k, l, integrand, rng)
                    else:
                        got = nested_integral(n, k, l, integrand, rng)
                        nested_nonzero += got != 0
                    assert got == pair_classes(GradedClass.from_symbol(other), product), (
                        mul.__name__, sym, other)
                    cases += 1
                    nonzero += got != 0
    assert (cases, nonzero, nested_nonzero) == (556, 145, 35)
