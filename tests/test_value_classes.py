"""The seven value classes are immutable named tuples that validate on
every construction path: the constructor, ``_replace``, ``copy`` and
``pickle``.  They unpack, index and compare equal to a plain tuple of their
fields."""

import copy
import pickle

import pytest

from hilb2 import (
    BasisSymbol,
    Family,
    IdealKind,
    IntersectionMatrix,
    InvalidIndex,
    InvalidInput,
    MonomialIdealDescriptor,
    MonomialSpec,
    PairingConfig,
    SecantProblem,
    TautBundle,
    intersection_matrix,
)

# class -> (a valid instance, fields that fail validation, the error they raise)
CASES = {
    BasisSymbol: (lambda: BasisSymbol(Family.BP, 1, 1, 2), (Family.BP, 1, 5, 2), InvalidIndex),
    MonomialSpec: (lambda: MonomialSpec(3, 1, 1), (3, 2, 2), InvalidInput),
    PairingConfig: (lambda: PairingConfig(2), (0,), InvalidInput),
    IntersectionMatrix: (lambda: intersection_matrix(2, 2), None, None),
    TautBundle: (lambda: TautBundle(3, 2), (3, 0), InvalidInput),
    SecantProblem: (lambda: SecantProblem(5, [2, 2, 3]), (5, (2,), 1, "other"), InvalidInput),
    MonomialIdealDescriptor: (
        lambda: MonomialIdealDescriptor(IdealKind.K, 0, 2, 2), (IdealKind.K, 2, 0, 2), InvalidIndex,
    ),
}
IDS = [cls.__name__ for cls in CASES]


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_attributes_cannot_be_assigned(cls):
    obj = CASES[cls][0]()
    for name in obj._fields:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equal_instances_hash_equally(cls):
    make = CASES[cls][0]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls):
    obj = CASES[cls][0]()
    for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(twin) is cls
        assert twin == obj


@pytest.mark.parametrize("cls", [c for c in CASES if CASES[c][1]], ids=lambda c: c.__name__)
def test_every_construction_path_validates(cls):
    make, bad, error = CASES[cls]
    with pytest.raises(error):
        cls(*bad)
    obj = make()
    with pytest.raises(error):
        obj._replace(**dict(zip(obj._fields, bad)))
    # An instance that skipped validation is refused again by copy and pickle.
    forged = tuple.__new__(cls, bad)
    with pytest.raises(error):
        copy.copy(forged)
    with pytest.raises(error):
        pickle.loads(pickle.dumps(forged))


def test_value_classes_are_tuples_of_their_fields():
    sym = BasisSymbol(Family.C, 1, 2, 2)
    family, i, j, n = sym
    assert (family, i, j, n) == (Family.C, 1, 2, 2) == sym
    assert sym[1:3] == (1, 2)
    assert MonomialSpec(3, 1, 1) == (3, 1, 1)
    assert sym._replace(j=1) == BasisSymbol(Family.C, 1, 1, 2)


def test_basis_symbol_repr_is_unchanged():
    assert repr(BasisSymbol(Family.BP, 1, 1, 2)) == "BasisSymbol(B'_{1,1}, n=2)"
    assert str(BasisSymbol(Family.BP, 1, 1, 2)) == "B'_{1,1}"


def test_reprs_name_their_fields():
    assert repr(MonomialSpec(3, 1, 0)) == "MonomialSpec(n=3, a=1, b=0)"
    assert repr(PairingConfig()) == "PairingConfig(ap_a_diagonal=1)"
    assert repr(SecantProblem(5, [2, 2])) == "SecantProblem(n=5, degrees=(2, 2), mu1=1, variant='proof')"


def test_intersection_matrix_repr_omits_entries():
    M = intersection_matrix(2, 2)
    text = repr(M)
    assert text.startswith("IntersectionMatrix(n=2, k=2, rows=<BasisId.ES: 'ES'>, cols=<BasisId.MS: 'MS'>, ")
    assert "row_symbols=(BasisSymbol(A'_{0,2}, n=2)" in text
    assert "entries" not in text and "Fraction" not in text
    assert M.entry(1, 1) == 2


def test_secant_problem_stores_degrees_as_a_tuple():
    p = SecantProblem(5, [2, 2, 3], mu1=2, variant="intro")
    assert p.degrees == (2, 2, 3) and type(p.degrees) is tuple
    assert p == SecantProblem(5, (2, 2, 3), 2, "intro")
    assert hash(p) == hash(SecantProblem(5, iter([2, 2, 3]), 2, "intro"))
    assert p.m == 2
