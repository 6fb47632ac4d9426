from math import comb

import pytest

from hilb2 import (
    BasisSymbol,
    Family,
    IdealKind,
    InvalidIndex,
    MonomialIdealDescriptor,
    bb_cell_of,
    chow_rank,
    enumerate_basis,
    enumerate_fixed_points,
)


def test_enumerate_examples():
    fps = enumerate_fixed_points(1)
    assert [str(fp) for fp in fps] == ["I_{0,1}", "J_{0,1}", "K_{0,1}"]
    assert len(enumerate_fixed_points(2)) == 9
    assert len(enumerate_fixed_points(4)) == 30


@pytest.mark.parametrize("n", range(1, 13))
def test_count_is_three_binomials(n):
    assert len(enumerate_fixed_points(n)) == 3 * comb(n + 1, 2)


def test_descriptor_validation():
    with pytest.raises(InvalidIndex):
        MonomialIdealDescriptor(IdealKind.I, 1, 1, 3)
    with pytest.raises(InvalidIndex):
        MonomialIdealDescriptor(IdealKind.J, 0, 4, 3)
    with pytest.raises(InvalidIndex, match=r"indices must be integers, got \(0\.5, 1\)"):
        MonomialIdealDescriptor(IdealKind.I, 0.5, 1, 2)
    with pytest.raises(InvalidIndex, match="indices must be integers"):
        MonomialIdealDescriptor(IdealKind.K, 0, "1", 2)


@pytest.mark.parametrize("kind", list(IdealKind), ids=[k.value for k in IdealKind])
def test_descriptor_from_a_name_is_the_descriptor_from_its_kind(kind):
    by_name, by_member = MonomialIdealDescriptor(kind.value, 0, 2, 2), MonomialIdealDescriptor(kind, 0, 2, 2)
    assert by_name.kind is kind
    assert by_name == by_member and hash(by_name) == hash(by_member)
    assert str(by_name) == str(by_member) and by_name.generators() == by_member.generators()


@pytest.mark.parametrize("kind", ["Z", "i", None, 0, Family.A], ids=repr)
def test_unknown_kind_is_invalid_index(kind):
    with pytest.raises(InvalidIndex, match="unknown kind"):
        MonomialIdealDescriptor(kind, 0, 1, 2)


def test_bb_cell_examples():
    sym, dim = bb_cell_of(MonomialIdealDescriptor(IdealKind.K, 0, 1, 1))
    assert (str(sym), dim) == ("C_{1,1}", 2)
    sym, dim = bb_cell_of(MonomialIdealDescriptor(IdealKind.J, 0, 1, 2))
    assert (str(sym), dim) == ("B_{0,0}", 0)
    sym, dim = bb_cell_of(MonomialIdealDescriptor(IdealKind.I, 1, 2, 3))
    assert (str(sym), dim) == ("A_{1,2}", 3)


def test_cells_are_bijective_with_bb_basis():
    for n in range(1, 9):
        cells = [bb_cell_of(fp)[0] for fp in enumerate_fixed_points(n)]
        assert len(cells) == len(set(cells))
        assert set(cells) == set(enumerate_basis(n, "BB"))


def test_cell_dimension_counts_match_ranks():
    for n in range(1, 13):
        by_dim = {}
        for fp in enumerate_fixed_points(n):
            _, dim = bb_cell_of(fp)
            by_dim[dim] = by_dim.get(dim, 0) + 1
        for k in range(0, 2 * n + 1):
            assert by_dim.get(k, 0) == chow_rank(n, 2 * n - k)


def test_generators():
    fp = MonomialIdealDescriptor(IdealKind.I, 0, 2, 3)
    assert fp.generators() == ["x0*x2", "x1", "x3"]
    fp = MonomialIdealDescriptor(IdealKind.J, 0, 1, 2)
    assert fp.generators() == ["x1^2", "x2"]
    fp = MonomialIdealDescriptor(IdealKind.K, 1, 3, 3)
    assert fp.generators() == ["x1^2", "x0", "x2"]
    # n-1 linear generators plus one quadric, for every fixed point
    for fp in enumerate_fixed_points(4):
        assert len(fp.generators()) == 4


def naive_generators(fp):
    """The generators formatted afresh for one point, variable by variable."""
    quad = {"I": f"x{fp.i}*x{fp.j}", "J": f"x{fp.j}^2", "K": f"x{fp.i}^2"}[fp.kind.value]
    return [quad] + [f"x{k}" for k in range(fp.n + 1) if k not in (fp.i, fp.j)]


def test_generators_match_naive_formatting():
    # interleave two ambient dimensions so the shared name list is rebuilt
    for n in range(1, 13):
        for fp, other in zip(enumerate_fixed_points(n), enumerate_fixed_points(n + 1)):
            assert fp.generators() == naive_generators(fp), fp
            assert other.generators() == naive_generators(other), other
