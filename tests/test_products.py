import random
from fractions import Fraction

import pytest

from hilb2 import (
    BasisSymbol,
    GradedClass,
    InvalidInput,
    MonomialSpec,
    bprime_top_power,
    enumerate_basis,
    eval_monomial,
    mul_bprime_top,
    mul_c_top,
    pair_classes,
    pair_symbols,
    to_ms,
)

S = BasisSymbol


def cls(*pairs):
    return GradedClass(pairs[0][1].n, [(sym, c) for c, sym in pairs])


def test_to_ms_examples():
    assert to_ms(S("B", 1, 3, 4)) == cls((2, S("B'", 1, 3, 4)), (-2, S("A", 1, 3, 4)))
    assert to_ms(S("B", 1, 1, 2)) == cls((2, S("B'", 1, 1, 2)), (-4, S("C", 1, 1, 2)))
    assert to_ms(S("B", 0, 0, 3)) == GradedClass.from_symbol(S("B'", 0, 0, 3))
    for sym in (S("A", 0, 1, 2), S("B'", 1, 1, 2), S("C", 1, 2, 2), S("B'", 0, 0, 3)):
        assert to_ms(sym) == GradedClass.from_symbol(sym)  # an MS symbol stays as it is


def test_to_ms_of_an_ap_symbol():
    # A'_{i,j} = A_{i,j} - C_{i,j}, the C term dropped at i = 0
    assert to_ms(S("A'", 1, 3, 4)) == cls((1, S("A", 1, 3, 4)), (-1, S("C", 1, 3, 4)))
    assert to_ms(S("A'", 0, 1, 4)) == GradedClass.from_symbol(S("A", 0, 1, 4))


def test_to_ms_roundtrip_pairing():
    # the image has the same dimension and pairs against the complementary C
    # class exactly like the B.C table entry: 2 generically, 1 at the
    # point-class corner B_{0,0} (where C_{n,n} is the fundamental class)
    for n in range(2, 7):
        for sym in enumerate_basis(n, "ES"):
            if sym.family.value != "B":
                continue
            X = to_ms(sym)
            assert X.dimension() == sym.dimension
            target = S("C", n - sym.j, n - sym.i, n)
            total = sum(c * pair_symbols(s, target) for s, c in X.items())
            assert total == pair_symbols(sym, target)
            assert total == (1 if sym.dimension == 0 else 2)


def test_mul_bprime_top_examples():
    assert mul_bprime_top(GradedClass.from_symbol(S("A", 1, 3, 4))) == cls(
        (2, S("B'", 0, 2, 4))
    )
    assert mul_bprime_top(GradedClass.from_symbol(S("B", 1, 3, 4))).is_zero
    assert mul_bprime_top(GradedClass.from_symbol(S("B'", 2, 2, 4))) == cls(
        (2, S("B'", 1, 1, 4)), (2, S("B'", 0, 2, 4)), (-2, S("A", 0, 2, 4))
    )


def test_mul_bprime_top_b_family_shift():
    assert mul_bprime_top(GradedClass.from_symbol(S("B", 2, 3, 5))) == cls(
        (2, S("B", 0, 3, 5))
    )


def test_mul_bprime_top_balanced_c():
    assert mul_bprime_top(GradedClass.from_symbol(S("C", 3, 3, 5))) == cls(
        (1, S("B'", 2, 2, 5))
    )


def test_mul_bprime_top_general_c():
    # C_{i,j} -> A_{i-1,j-1} + B'_{i-1,j-1} + 2C_{i,j-2}, each term dropped out of range
    assert mul_bprime_top(GradedClass.from_symbol(S("C", 2, 4, 4))) == cls(
        (1, S("A", 1, 3, 4)), (1, S("B'", 1, 3, 4)), (2, S("C", 2, 2, 4))
    )
    assert mul_bprime_top(GradedClass.from_symbol(S("C", 1, 2, 4))) == cls(
        (1, S("A", 0, 1, 4)), (1, S("B'", 0, 1, 4))
    )
    assert mul_bprime_top(GradedClass.from_symbol(S("C", 1, 3, 4))) == cls(
        (1, S("A", 0, 2, 4)), (1, S("B'", 0, 2, 4)), (2, S("C", 1, 1, 4))
    )


def test_mul_bprime_top_of_an_ap_term():
    # 2B'_{0,2} from A_{1,3}, minus A_{0,2} + B'_{0,2} + 2C_{1,1} from C_{1,3}
    assert mul_bprime_top(GradedClass.from_symbol(S("A'", 1, 3, 4))) == cls(
        (1, S("B'", 0, 2, 4)), (-1, S("A", 0, 2, 4)), (-2, S("C", 1, 1, 4))
    )


def test_mul_c_top_examples():
    assert mul_c_top(GradedClass.from_symbol(S("A", 1, 3, 4))) == cls((1, S("A", 0, 2, 4)))
    assert mul_c_top(GradedClass.from_symbol(S("B'", 0, 2, 4))).is_zero
    assert mul_c_top(GradedClass.from_symbol(S("B'", 2, 2, 4))) == cls((1, S("B'", 1, 1, 4)))
    assert mul_c_top(GradedClass.from_symbol(S("C", 2, 3, 3))) == cls((1, S("C", 1, 2, 3)))
    assert mul_c_top(GradedClass.from_symbol(S("C", 1, 1, 3))).is_zero


def test_mul_c_top_shifts_b():
    # the shift, doubled at the corner that lands on the point class B_{0,0}
    assert mul_c_top(GradedClass.from_symbol(S("B", 1, 1, 3))) == cls((2, S("B", 0, 0, 3)))
    assert mul_c_top(GradedClass.from_symbol(S("B", 1, 2, 3))) == cls((1, S("B", 0, 1, 3)))
    assert mul_c_top(GradedClass.from_symbol(S("B", 0, 2, 3))).is_zero


def test_mul_c_top_shifts_an_ap_term():
    assert mul_c_top(GradedClass.from_symbol(S("A'", 1, 3, 4))) == cls((1, S("A'", 0, 2, 4)))
    assert mul_c_top(GradedClass.from_symbol(S("A'", 0, 1, 4))).is_zero


def in_ms(X):
    """X in MS coordinates, each term through ``to_ms``."""
    return sum((c * to_ms(s) for s, c in X.items()), GradedClass(X.n))


def every_symbol(n):
    """The symbols of all five families on ``P^n[2]``."""
    return sorted({*enumerate_basis(n, "ES"), *enumerate_basis(n, "MS"),
                   *enumerate_basis(n, "BB")}, key=lambda s: s[:3])


def ap_symbols(n):
    return [s for s in enumerate_basis(n, "ES") if s.family.value == "A'"]


def test_every_family_has_products_and_ms_coordinates():
    # Each product of a symbol of any family, put into MS coordinates, is the product
    # of the symbol's MS coordinates; and to_ms(A') pairs with every MS symbol as the
    # A' row of the pairing table does.
    products = pairings = 0
    for n in range(1, 9):
        for x in every_symbol(n):
            for mul in (mul_bprime_top, mul_c_top):
                assert in_ms(mul(GradedClass.from_symbol(x))) == mul(to_ms(x)), (mul.__name__, x)
                products += 1
            if x.family.value == "A'":
                for y in enumerate_basis(n, "MS", codim=x.dimension):
                    assert pair_classes(to_ms(x), GradedClass.from_symbol(y)) == pair_symbols(x, y)
                    pairings += 1
    assert (products, pairings) == (1200, 800)


def test_b_shift_agrees_with_the_basis_change():
    # C^b . B_{i,j}, put into MS coordinates, equals C^b . to_ms(B_{i,j}), for b = 1 .. n
    checked = 0
    for n in range(1, 9):
        for x in enumerate_basis(n, "BB"):
            if x.family.value != "B":
                continue
            shifted, image = GradedClass.from_symbol(x), to_ms(x)
            for b in range(1, n + 1):
                shifted, image = mul_c_top(shifted), mul_c_top(image)
                assert image == in_ms(shifted), (x, b)
                checked += 1
    assert checked == 750


def test_bprime_top_power_examples():
    assert bprime_top_power(5, 2) == cls(
        (2, S("B'", 3, 3, 5)), (2, S("B'", 2, 4, 5)), (-2, S("A", 2, 4, 5))
    )
    for n in (1, 3, 6):
        assert bprime_top_power(n, 1) == GradedClass.from_symbol(S("B'", n - 1, n - 1, n))
    assert bprime_top_power(4, 3) == cls(
        (4, S("B'", 1, 1, 4)), (4, S("B'", 0, 2, 4)), (-4, S("A", 0, 2, 4))
    )


def test_bprime_top_power_bad_exponent():
    with pytest.raises(InvalidInput, match=r"^exponent 0 outside \[1, 4\]$"):
        bprime_top_power(4, 0)
    with pytest.raises(InvalidInput, match=r"^exponent 5 outside \[1, 4\]$"):
        bprime_top_power(4, 5)


def test_closed_form_equals_iteration():
    for n in range(1, 13):
        X = GradedClass.from_symbol(S("B'", n - 1, n - 1, n))
        for k in range(1, n + 1):
            assert bprime_top_power(n, k) == X, (n, k)
            X = mul_bprime_top(X)


def derived_bprime_product(x):
    """``B'_{n-1,n-1} . x`` for a B' symbol x, derived rather than stated:
    the A, B and balanced-C rules applied to the basis-change identities
    ``2B'_{i,j} = B_{i,j} + 2A_{i,j}`` (i < j), ``B_{i,i} + 4C_{i,i}``
    (i > 0) and ``2B_{0,0}`` (i = j = 0), the B output put into MS
    coordinates through ``to_ms``, and the sum halved."""
    n, i, j = x.n, x.i, x.j
    if i < j:
        doubled = cls((1, S("B", i, j, n)), (2, S("A", i, j, n)))
    elif i > 0:
        doubled = cls((1, S("B", i, i, n)), (4, S("C", i, i, n)))
    else:
        doubled = cls((2, S("B", 0, 0, n)))
    return Fraction(1, 2) * in_ms(mul_bprime_top(doubled))


def test_stated_bprime_rule_equals_its_derivation():
    checked = 0
    for n in range(1, 13):
        for x in enumerate_basis(n, "MS"):
            if x.family.value == "B'":
                X = GradedClass.from_symbol(x)
                assert mul_bprime_top(X) == derived_bprime_product(x), x
                checked += 1
    assert checked == 364


def test_products_lower_dimension_by_two():
    for n in range(2, 8):
        for k in range(1, n):
            X = bprime_top_power(n, k)
            Y = mul_bprime_top(X)
            if not Y.is_zero:
                assert Y.dimension() == X.dimension() - 2
            Z = mul_c_top(X)
            if not Z.is_zero:
                assert Z.dimension() == X.dimension() - 2


def test_eval_monomial_examples():
    assert eval_monomial(MonomialSpec(4, 2, 0)) == cls(
        (2, S("B'", 2, 2, 4)), (2, S("B'", 1, 3, 4)), (-2, S("A", 1, 3, 4))
    )
    assert eval_monomial(MonomialSpec(4, 2, 1)) == cls(
        (2, S("B'", 1, 1, 4)), (2, S("B'", 0, 2, 4)), (-2, S("A", 0, 2, 4))
    )
    # a = 0: the C power shifts the fundamental class C_{4,4}
    assert eval_monomial(MonomialSpec(4, 0, 2)) == GradedClass.from_symbol(S("C", 2, 2, 4))
    assert eval_monomial(MonomialSpec(4, 0, 4)) == GradedClass(4)


def test_monomial_spec_validation():
    with pytest.raises(InvalidInput):
        MonomialSpec(4, 3, 2)  # codimension 10 > 8
    with pytest.raises(InvalidInput):
        MonomialSpec(4, -1, 0)
    MonomialSpec(4, 2, 2)  # boundary is fine


def test_eval_monomial_families_are_a_and_bprime():
    for n in range(2, 9):
        for a in range(1, n + 1):
            for b in range(0, n - a + 1):
                X = eval_monomial(MonomialSpec(n, a, b))
                assert all(s.family.value in ("A", "B'") for s, _ in X.items())


def test_triple_product_vanishing_small():
    # dimension-2m part of B'^k C^{n-m-k} pairs to zero with C_{n-2m,n}
    # whenever k <= m
    for n in range(4, 9):
        for m in range(1, n):
            if 2 * m + 1 >= n:
                break
            target = GradedClass.from_symbol(S("C", n - 2 * m, n, n))
            for k in range(1, m + 1):
                X = eval_monomial(MonomialSpec(n, k, n - m - k))
                assert pair_classes(X, target) == 0, (n, m, k)


# The engine as linear maps: ring laws on every MS generator for n <= 10, and
# linearity for n <= 7.

RING_N = range(1, 11)
SMALL_N = range(2, 8)


def test_projection_law():
    # pair(T.X, Y) = pair(X, T.Y) for T in {B'_{n-1,n-1}, C_{n-1,n-1}}, X an MS or
    # an A' symbol (the A' row of the table, on the left) and Y an MS symbol
    checked = 0
    for mul in (mul_bprime_top, mul_c_top):
        for n in RING_N:
            syms = enumerate_basis(n, "MS")
            one = {s: GradedClass.from_symbol(s) for s in syms + ap_symbols(n)}
            image = {s: mul(X) for s, X in one.items()}
            for x in one:
                for y in syms:
                    if x.dimension + y.dimension != 2 * n + 2:
                        continue
                    assert pair_classes(image[x], one[y]) == pair_classes(one[x], image[y]), (
                        mul.__name__, x, y)
                    checked += 1
    assert checked == 9886 + 3310


def test_c_and_bprime_products_commute():
    # compared in MS coordinates: the C shift keeps an A' term A'
    checked = 0
    for n in RING_N:
        for x in enumerate_basis(n, "MS") + ap_symbols(n):
            X = GradedClass.from_symbol(x)
            assert in_ms(mul_c_top(mul_bprime_top(X))) == in_ms(mul_bprime_top(mul_c_top(X))), x
            checked += 1
    assert checked == 660 + 220


def test_mul_bprime_top_is_additive():
    for n in SMALL_N:
        syms = enumerate_basis(n, "MS")
        for p, x in enumerate(syms):
            for y in syms[p:]:
                X, Y = 2 * GradedClass.from_symbol(x), Fraction(-1, 3) * GradedClass.from_symbol(y)
                assert mul_bprime_top(X + Y) == mul_bprime_top(X) + mul_bprime_top(Y), (x, y)


def test_eval_monomial_equals_iterated_c_products():
    # the iterated product is the reference for the single index shift
    for n in SMALL_N:
        for a in range(1, n + 1):
            X = bprime_top_power(n, a)
            for b in range(0, n - a + 1):
                assert eval_monomial(MonomialSpec(n, a, b)) == X, (n, a, b)
                X = mul_c_top(X)


def test_a_pure_c_power_shifts_the_fundamental_class():
    # C_{n-1,n-1}^b is C_{n-b,n-b}, and zero at b = n; the iterated product agrees
    checked = 0
    for n in range(1, 12):
        X = GradedClass.from_symbol(S("C", n, n, n))
        for b in range(n + 1):
            want = GradedClass(n) if b == n else GradedClass.from_symbol(S("C", n - b, n - b, n))
            assert eval_monomial(MonomialSpec(n, 0, b)) == want == X, (n, b)
            X = mul_c_top(X)
            checked += 1
    assert checked == 77


# Exact core: plain integers inside the rules, Fractions at the surface.

FRACTION_N = range(1, 8)


def all_fractions(X):
    return all(type(c) is Fraction for _, c in X.items())


def test_products_and_pairings_return_only_fractions():
    for n in FRACTION_N:
        for a in range(1, n + 1):
            assert all_fractions(bprime_top_power(n, a)), (n, a)
            for b in range(0, n - a + 1):
                assert all_fractions(eval_monomial(MonomialSpec(n, a, b))), (n, a, b)
        ms = enumerate_basis(n, "MS")
        for x in ms:
            X = Fraction(3, 2) * GradedClass.from_symbol(x)
            for mul in (mul_bprime_top, mul_c_top):
                assert all_fractions(mul(X)), (mul.__name__, x)
                assert all_fractions(mul(GradedClass.from_symbol(x))), (mul.__name__, x)
        for x in enumerate_basis(n, "BB") + ms:
            assert all_fractions(to_ms(x)), x
        for x in ms + enumerate_basis(n, "ES"):
            for y in ms:
                if x.codimension + y.codimension == 2 * n:
                    assert type(pair_symbols(x, y)) is Fraction, (x, y)


DENOMINATORS = (1, 2, 3, 7, 97, 2**61 - 1)


def test_products_of_wide_coefficients_are_sums_of_term_products():
    # one common denominator for coprime and very large denominators and
    # numerators far beyond machine words: the product of the class is the
    # sum of the products of its terms, each taken alone
    rng = random.Random(707)
    for n in SMALL_N:
        syms = enumerate_basis(n, "MS")
        for mul in (mul_bprime_top, mul_c_top):
            for _ in range(6):
                terms = [
                    (s, Fraction(rng.randint(-10**30, 10**30), rng.choice(DENOMINATORS)))
                    for s in syms if rng.random() < 0.5
                ]
                X = GradedClass(n, terms)
                got = mul(X)
                assert got == sum((mul(GradedClass(n, [t])) for t in terms), GradedClass(n))
                assert all_fractions(got), (mul.__name__, str(X))


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(-3, 7)])
def test_products_commute_with_rational_scalars(q):
    # integer and non-integer coefficients side by side in one class, then
    # seeded classes over the MS symbols of every grading at once
    rng = random.Random(606)
    for n in SMALL_N:
        syms = enumerate_basis(n, "MS")
        for mul in (mul_bprime_top, mul_c_top):
            for p, x in enumerate(syms):
                X = GradedClass(n, [(x, 1), (syms[(p * 7 + 3) % len(syms)], Fraction(5, 3))])
                assert mul(q * X) == q * mul(X), (mul.__name__, x)
                assert mul(X * 2) == mul(X) * 2, (mul.__name__, x)
            for _ in range(10):
                X = GradedClass(n, [(s, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                                    for s in rng.sample(syms, rng.randint(0, min(5, len(syms))))])
                assert mul(q * X) == q * mul(X), (mul.__name__, str(X))


def test_mul_bprime_top_builds_each_output_symbol_once(monkeypatch):
    X = bprime_top_power(40, 10)
    built = []
    new = BasisSymbol.__new__  # the one constructor; it validates every symbol

    def counting(cls, family, i, j, n):
        built.append((family, i, j))
        return new(cls, family, i, j, n)

    monkeypatch.setattr(BasisSymbol, "__new__", staticmethod(counting))
    Y = mul_bprime_top(X)
    monkeypatch.undo()
    assert Y == bprime_top_power(40, 11)
    assert len(built) <= len(Y.items()) == 21
    assert len(set(built)) == len(built)
    assert built and set(built) <= {(s.family, s.i, s.j) for s, _ in Y.items()}
