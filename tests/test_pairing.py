import random
from fractions import Fraction

import pytest

from hilb2 import (
    BasisId,
    GradedClass,
    InvalidGrading,
    InvalidInput,
    MixedAmbient,
    NotComplementary,
    NotHomogeneous,
    PairingConfig,
    UnsupportedBasisPair,
    UnsupportedFamilyPair,
    WrongBasis,
    dual_generator,
    effectivity_pairings,
    enumerate_basis,
    intersection_matrix,
    is_effective,
    is_nef,
    linear_combine,
    pair_classes,
    pair_symbols,
    to_ms,
    validate_symbol,
)

S = validate_symbol


def cls(*pairs):
    return linear_combine([(c, sym) for c, sym in pairs])


# Independent encoding of the complementary-codimension value tables, used
# as the oracle for the pattern checks below.
NONZERO_VALUE = {
    ("A", "A"): 1,
    ("A", "B'"): 1,
    ("B'", "A"): 1,
    ("B'", "C"): 1,
    ("C", "B'"): 1,
    ("A'", "A"): "cfg",
    ("B", "C"): 2,
}
ZERO_BLOCKS = {
    ("A", "C"),
    ("C", "A"),
    ("C", "C"),
    ("A'", "B'"),
    ("A'", "C"),
    ("B", "A"),
    ("B", "B'"),
}


def expected_value(x, y, ap_a=1):
    if (y.i, y.j) != (x.n - x.j, x.n - x.i):
        return 0
    key = (x.family.value, y.family.value)
    if key == ("B'", "B'"):
        return 2 if x.i == x.j else 1
    if key == ("B", "C") and (x.i, x.j) == (0, 0):
        return 1  # the point class B_{0,0} against the fundamental class C_{n,n}
    if key in ZERO_BLOCKS:
        return 0
    v = NONZERO_VALUE[key]
    return ap_a if v == "cfg" else v


def test_pair_symbols_examples():
    for n in (2, 3, 5):
        assert pair_symbols(S("A", 0, 1, n), S("A", n - 1, n, n)) == 1
        assert pair_symbols(S("B'", 1, 1, n), S("B'", n - 1, n - 1, n)) == 2
    for n in (3, 4, 6):
        assert pair_symbols(S("B", 1, 2, n), S("C", n - 2, n - 1, n)) == 2
    # A'.B' vanishes in every complementary-codimension instance
    for n in (2, 3, 4):
        for x in enumerate_basis(n, "ES"):
            if x.family.value != "A'":
                continue
            for y in enumerate_basis(n, "MS", codim=2 * n - x.codimension):
                if y.family.value == "B'":
                    assert pair_symbols(x, y) == 0


def test_pair_symbols_configurable_diagonal():
    cfg = PairingConfig(ap_a_diagonal=5)
    assert pair_symbols(S("A'", 0, 2, 2), S("A", 0, 2, 2), cfg) == 5
    assert pair_symbols(S("A'", 0, 2, 2), S("A", 0, 2, 2)) == 1


def test_pairing_config_validation():
    with pytest.raises(InvalidInput):
        PairingConfig(ap_a_diagonal=0)


def test_pair_symbols_errors():
    with pytest.raises(UnsupportedFamilyPair):
        pair_symbols(S("B", 1, 1, 2), S("B", 1, 1, 2))  # ES x ES
    with pytest.raises(UnsupportedFamilyPair):
        pair_symbols(S("A'", 0, 2, 2), S("B", 1, 1, 2))
    with pytest.raises(UnsupportedFamilyPair):
        pair_symbols(S("A", 0, 2, 2), S("A'", 0, 2, 2))  # only ES-first order supported
    with pytest.raises(NotComplementary):
        pair_symbols(S("A", 0, 1, 2), S("A", 0, 1, 2))
    with pytest.raises(MixedAmbient):
        pair_symbols(S("A", 0, 2, 2), S("A", 1, 3, 4))


def all_supported_pairs(n):
    ms = enumerate_basis(n, "MS")
    es_extra = [s for s in enumerate_basis(n, "ES") if s.family.value in ("A'", "B")]
    for x in ms + es_extra:
        for y in ms:
            if x.codimension + y.codimension == 2 * n:
                yield x, y


def test_zero_pattern_and_values_small_n():
    for n in range(1, 7):
        for x, y in all_supported_pairs(n):
            assert pair_symbols(x, y) == expected_value(x, y), (str(x), str(y))


def test_pair_symbols_symmetric_where_both_orders_supported():
    for n in range(1, 6):
        ms = enumerate_basis(n, "MS")
        for x in ms:
            for y in ms:
                if x.codimension + y.codimension == 2 * n:
                    assert pair_symbols(x, y) == pair_symbols(y, x)


def test_pair_classes_examples():
    X = cls((2, S("B'", 1, 1, 2)), (-4, S("C", 1, 1, 2)))
    assert pair_classes(X, GradedClass.from_symbol(S("B'", 1, 1, 2))) == 0
    assert pair_classes(GradedClass.zero(2), X) == 0
    assert pair_classes(X, GradedClass.zero(2)) == 0


def test_pair_classes_checks_the_ambient_of_the_zero_class():
    a = GradedClass.from_symbol(S("A", 0, 1, 3))
    for X, Y in ((GradedClass.zero(2), a), (a, GradedClass.zero(2)),
                 (GradedClass.zero(2), GradedClass.zero(3))):
        with pytest.raises(MixedAmbient):
            pair_classes(X, Y)
    assert pair_classes(GradedClass.zero(3), a) == 0


def test_pair_classes_errors():
    a = GradedClass.from_symbol(S("A", 0, 1, 3))
    mixed = cls((1, S("A", 0, 1, 3)), (1, S("A", 0, 3, 3)))
    with pytest.raises(NotComplementary):
        pair_classes(a, a)
    with pytest.raises(NotHomogeneous):
        pair_classes(mixed, a)
    with pytest.raises(MixedAmbient):
        pair_classes(a, GradedClass.from_symbol(S("A", 0, 1, 2)))


def test_intersection_matrix_es_ms_frozen_example():
    M = intersection_matrix(2, 2)
    assert [str(s) for s in M.row_symbols] == ["A'_{0,2}", "B_{1,1}", "C_{1,1}"]
    assert [str(s) for s in M.col_symbols] == ["A_{0,2}", "C_{1,1}", "B'_{1,1}"]
    assert M.entries == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )
    assert M.is_diagonal()


def test_intersection_matrix_ms_ms_frozen_examples():
    M = intersection_matrix(1, 1, "MS", "MS")
    assert [str(s) for s in M.row_symbols] == ["A_{0,1}"]
    assert [str(s) for s in M.col_symbols] == ["A_{0,1}"]
    assert M.entries == ((Fraction(1),),)

    M = intersection_matrix(2, 2, "MS", "MS")
    assert [str(s) for s in M.row_symbols] == ["A_{0,2}", "B'_{1,1}", "C_{1,1}"]
    assert [str(s) for s in M.col_symbols] == ["A_{0,2}", "B'_{1,1}", "C_{1,1}"]
    assert M.entries == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0)),
    )


def test_intersection_matrix_rejects_other_basis_pairs():
    with pytest.raises(UnsupportedBasisPair):
        intersection_matrix(2, 2, "ES", "ES")
    with pytest.raises(UnsupportedBasisPair):
        intersection_matrix(2, 2, "MS", "ES")
    with pytest.raises(UnsupportedBasisPair):
        intersection_matrix(2, 2, "BB", "MS")


def test_intersection_matrix_validates_like_enumerate_basis():
    with pytest.raises(InvalidInput, match="unknown basis 'XX'"):
        intersection_matrix(2, 2, rows="XX")
    with pytest.raises(InvalidInput, match="unknown basis 'XX'"):
        intersection_matrix(2, 2, cols="XX")
    for n in ("x", 0, 2.5):  # the ambient is checked before the grading
        with pytest.raises(InvalidInput, match="ambient dimension"):
            intersection_matrix(n, 1)
    with pytest.raises(InvalidGrading, match=r"^grading 5 outside \[0, 4\]$"):
        intersection_matrix(2, 5)


def test_es_ms_duality_small_n():
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            M = intersection_matrix(n, k)
            assert len(M.row_symbols) == len(M.col_symbols)
            assert M.is_diagonal()
            for r in range(len(M.row_symbols)):
                assert M.entries[r][r] > 0
            # columns are a permutation of the canonical enumeration
            assert sorted(map(str, M.col_symbols)) == sorted(
                map(str, enumerate_basis(n, "MS", codim=k))
            )


def test_es_ms_diagonal_uses_config():
    cfg = PairingConfig(ap_a_diagonal=7)
    M = intersection_matrix(3, 2, cfg=cfg)
    diag = {str(r): M.entries[idx][idx] for idx, r in enumerate(M.row_symbols)}
    assert diag["A'_{0,2}"] == 7
    # B rows pair to 2, C rows to 1 regardless of the configurable block
    for idx, r in enumerate(M.row_symbols):
        if r.family.value == "B":
            assert M.entries[idx][idx] == 2
        if r.family.value == "C":
            assert M.entries[idx][idx] == 1


def test_ms_ms_matrix_matches_block_pattern():
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            M = intersection_matrix(n, k, "MS", "MS")
            for r, x in enumerate(M.row_symbols):
                for c, y in enumerate(M.col_symbols):
                    assert M.entries[r][c] == expected_value(x, y), (str(x), str(y))


def test_dual_generator_bijection():
    for n in range(1, 7):
        for k in range(0, 2 * n + 1):
            es = enumerate_basis(n, "ES", codim=k)
            duals = [dual_generator(s) for s in es]
            assert len(set(duals)) == len(duals)
            assert set(duals) == set(enumerate_basis(n, "MS", dim=k))


def test_dual_basis_expansion_recovers_coefficients():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 5)
        k = rng.randint(0, 2 * n)
        gens = enumerate_basis(n, "MS", dim=k)
        X = GradedClass(
            n, [(s, Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for s in gens]
        )
        if X.is_zero:
            continue
        recovered = {}
        for e in enumerate_basis(n, "ES", codim=k):
            g = dual_generator(e)
            diag = pair_symbols(e, g)
            assert diag > 0
            recovered[g] = pair_classes(GradedClass.from_symbol(e), X) / diag
        assert {s: c for s, c in X.items()} == {
            s: c for s, c in recovered.items() if c
        }


def test_is_nef_examples():
    assert is_nef(GradedClass.from_symbol(S("B'", 1, 1, 2)))
    assert not is_nef(cls((1, S("A", 0, 2, 2)), (-1, S("C", 1, 1, 2))))
    assert is_nef(GradedClass.zero(3))


def test_is_nef_errors():
    with pytest.raises(WrongBasis):
        is_nef(GradedClass.from_symbol(S("B", 1, 1, 2)))
    with pytest.raises(NotHomogeneous):
        is_nef(cls((1, S("A", 0, 1, 2)), (1, S("C", 1, 1, 2))))
    with pytest.raises(InvalidInput):
        is_nef(GradedClass.from_symbol(S("B'", 1, 1, 2)), 3)


def test_is_effective_examples():
    X = cls((2, S("B'", 1, 1, 2)), (-4, S("C", 1, 1, 2)))  # to_ms(B_{1,1})
    assert is_effective(X)
    vec = effectivity_pairings(X)
    assert [str(s) for s, _ in vec] == ["A_{0,2}", "B'_{1,1}", "C_{1,1}"]
    assert [v for _, v in vec] == [0, 0, 2]
    assert not is_effective(GradedClass.from_symbol(S("A", 0, 2, 2)) * -1)
    for sym in enumerate_basis(3, "MS"):
        assert is_effective(GradedClass.from_symbol(sym))


def test_cone_tests_check_the_grading_of_the_zero_class():
    zero = GradedClass.zero(2)
    for test in (is_nef, is_effective):
        assert test(zero, 0) and test(zero, 4)
        for k in (-3, 5):
            with pytest.raises(InvalidGrading):
                test(zero, k)
    with pytest.raises(InvalidGrading):
        is_effective(GradedClass.from_symbol(S("A", 0, 2, 2)), 5)


def test_cone_sanity():
    for n in range(1, 6):
        for sym in enumerate_basis(n, "MS"):
            assert is_nef(GradedClass.from_symbol(sym))
        for sym in enumerate_basis(n, "ES"):
            if sym.family.value == "B":
                assert is_effective(to_ms(sym))
            elif sym.family.value == "C":
                assert is_effective(GradedClass.from_symbol(sym))


# Dense oracles: the double loops over pair_symbols that the sparse routes
# replace.  They visit every term pair, so they need no partner lookup.


def dense_pair_classes(X, Y, cfg=PairingConfig()):
    total = Fraction(0)
    for sx, a in X.items():
        for sy, b in Y.items():
            total += a * b * pair_symbols(sx, sy, cfg)
    return total


def dense_effectivity(X, cfg=PairingConfig()):
    return [
        (y, sum((a * pair_symbols(x, y, cfg) for x, a in X.items()), Fraction(0)))
        for y in enumerate_basis(X.n, "MS", codim=X.dimension())
    ]


def dense_entries(M, cfg):
    return tuple(
        tuple(pair_symbols(r, c, cfg) for c in M.col_symbols) for r in M.row_symbols
    )


def random_combination(rng, symbols):
    """A seeded class on a random subset of ``symbols``; possibly zero."""
    chosen = [s for s in symbols if rng.random() < 0.6]
    return GradedClass(
        symbols[0].n, [(s, Fraction(rng.randint(-4, 4), rng.randint(1, 3))) for s in chosen]
    )


CONFIGS = (PairingConfig(1), PairingConfig(3))


def test_sparse_pair_classes_matches_dense_oracle():
    rng = random.Random(303)
    for n in range(1, 8):
        for k in range(0, 2 * n + 1):
            ms_codim_k = enumerate_basis(n, "MS", codim=k)
            for first in ("MS", "ES"):
                dim_k = enumerate_basis(n, first, dim=k)
                for cfg in CONFIGS:
                    for _ in range(3):
                        X = random_combination(rng, dim_k)
                        Y = random_combination(rng, ms_codim_k)
                        assert pair_classes(X, Y, cfg) == dense_pair_classes(X, Y, cfg), (
                            n, k, str(X), str(Y))


def test_sparse_pair_classes_raises_what_the_dense_loop_raises():
    # Classes mixing all five families on both sides: both routes give the
    # same value, or both refuse the same family combination first.
    rng = random.Random(17)
    for n in range(1, 6):
        symbols = sorted(
            set(enumerate_basis(n, "BB") + enumerate_basis(n, "ES") + enumerate_basis(n, "MS")),
            key=lambda s: s.sort_key(),
        )
        for k in range(0, 2 * n + 1):
            dim_k = [s for s in symbols if s.dimension == k]
            codim_k = [s for s in symbols if s.codimension == k]
            for _ in range(4):
                X = random_combination(rng, dim_k)
                Y = random_combination(rng, codim_k)
                outcomes = []
                for route in (pair_classes, dense_pair_classes):
                    try:
                        outcomes.append(route(X, Y))
                    except UnsupportedFamilyPair as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1], (str(X), str(Y))


def test_pair_classes_refuses_unsupported_families_without_complementary_indices():
    B11 = GradedClass.from_symbol(S("B", 1, 1, 2))
    AP02 = GradedClass.from_symbol(S("A'", 0, 2, 2))
    with pytest.raises(UnsupportedFamilyPair):
        pair_classes(B11, AP02)


def test_sparse_effectivity_pairings_matches_dense_oracle():
    rng = random.Random(404)
    for n in range(1, 8):
        for k in range(0, 2 * n + 1):
            gens = enumerate_basis(n, "MS", dim=k)
            samples = [GradedClass(n, [(s, 1) for s in gens])]
            samples += [random_combination(rng, gens) for _ in range(4)]
            for X in samples:
                if X.is_zero:
                    continue
                for cfg in CONFIGS:
                    want = dense_effectivity(X, cfg)
                    assert effectivity_pairings(X, cfg) == want, (n, k, str(X))
                    assert is_effective(X, k, cfg) == all(v >= 0 for _, v in want)


def test_sparse_intersection_matrix_matches_dense_oracle():
    for n in range(1, 8):
        for k in range(0, 2 * n + 1):
            for rows in ("ES", "MS"):
                for cfg in CONFIGS:
                    M = intersection_matrix(n, k, rows, "MS", cfg)
                    assert M.entries == dense_entries(M, cfg), (n, k, rows)


def count_pair_symbols(monkeypatch):
    """Route every pair_symbols call inside hilb2.pairing through a counter."""
    import hilb2.pairing as pairing

    calls = []
    real = pairing.pair_symbols

    def counting(x, y, cfg=pairing.DEFAULT_CONFIG):
        calls.append((x, y))
        return real(x, y, cfg)

    monkeypatch.setattr(pairing, "pair_symbols", counting)
    return calls


def test_intersection_matrix_pairs_only_partner_columns(monkeypatch):
    calls = count_pair_symbols(monkeypatch)
    M = intersection_matrix(40, 40, "MS", "MS")
    rows = len(M.row_symbols)
    assert rows > 3
    assert 0 < len(calls) <= 3 * rows < rows * len(M.col_symbols)


def test_class_routes_pair_only_partner_terms(monkeypatch):
    calls = count_pair_symbols(monkeypatch)
    X = GradedClass(40, [(s, 1) for s in enumerate_basis(40, "MS", dim=40)])
    vec = effectivity_pairings(X)
    assert len(vec) == len(X.items())
    assert 0 < len(calls) <= 3 * len(X.items())
    calls.clear()
    assert is_effective(X)
    assert 0 < len(calls) <= 3 * len(X.items())
    calls.clear()
    Y = GradedClass(40, [(s, 1) for s in enumerate_basis(40, "MS", codim=40)])
    pair_classes(X, Y)
    assert 0 < len(calls) <= 3 * len(X.items())
