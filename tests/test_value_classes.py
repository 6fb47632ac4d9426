"""The seven value classes are immutable named tuples that validate on
every construction path: the constructor, ``_replace``, ``copy`` and
``pickle``.  They unpack, index and compare equal to a plain tuple of their
fields.  Their integer fields, like every integer argument of the library,
take an ``int`` and refuse a ``bool``."""

import copy
import pickle

import pytest

from hilb2 import (
    BasisSymbol,
    Family,
    GradedClass,
    IdealKind,
    IntersectionMatrix,
    InvalidIndex,
    InvalidInput,
    MonomialIdealDescriptor,
    MonomialSpec,
    PairingConfig,
    SecantProblem,
    TautBundle,
    ValidationError,
    bprime_top_power,
    chow_rank,
    enumerate_basis,
    intersection_matrix,
    is_effective,
    is_nef,
    parse_class,
    parse_symbol,
    secant_oracle,
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


# One integer slot of a constructor or entry point each, as a function of the
# value put there; every other argument is valid.
_POINT = GradedClass.from_symbol(BasisSymbol(Family.BP, 0, 0, 2))
INTEGER_SLOTS = {
    "chow_rank n": lambda x: chow_rank(x, 0),
    "chow_rank k": lambda x: chow_rank(2, x),
    "enumerate_basis dim": lambda x: enumerate_basis(2, "MS", dim=x),
    "GradedClass n": lambda x: GradedClass(x),
    "BasisSymbol i": lambda x: BasisSymbol(Family.A, x, 2, 2),
    "BasisSymbol j": lambda x: BasisSymbol(Family.A, 0, x, 2),
    "BasisSymbol n": lambda x: BasisSymbol(Family.B, 0, 0, x),
    "MonomialIdealDescriptor i": lambda x: MonomialIdealDescriptor(IdealKind.I, x, 2, 2),
    "MonomialIdealDescriptor j": lambda x: MonomialIdealDescriptor(IdealKind.I, 0, x, 2),
    "MonomialIdealDescriptor n": lambda x: MonomialIdealDescriptor(IdealKind.I, 0, 1, x),
    "MonomialSpec n": lambda x: MonomialSpec(x, 1, 0),
    "MonomialSpec a": lambda x: MonomialSpec(2, x, 0),
    "MonomialSpec b": lambda x: MonomialSpec(2, 1, x),
    "bprime_top_power n": lambda x: bprime_top_power(x, 1),
    "bprime_top_power k": lambda x: bprime_top_power(2, x),
    "TautBundle n": lambda x: TautBundle(x, 2),
    "TautBundle d": lambda x: TautBundle(2, x),
    "SecantProblem n": lambda x: SecantProblem(x, (2,)),
    "SecantProblem degree": lambda x: SecantProblem(5, (2, x)),
    "SecantProblem mu1": lambda x: SecantProblem(5, (2, 2), mu1=x),
    "secant_oracle degree": lambda x: secant_oracle(5, (2, x)),
    "PairingConfig": lambda x: PairingConfig(x),
    "intersection_matrix n": lambda x: intersection_matrix(x, 1),
    "intersection_matrix k": lambda x: intersection_matrix(2, x),
    "is_nef k": lambda x: is_nef(_POINT, x),
    "is_effective k": lambda x: is_effective(_POINT, x),
    "parse_class n": lambda x: parse_class({"n": x, "terms": []}),
    "parse_symbol i": lambda x: parse_symbol({"family": "A", "i": x, "j": 2}, 2),
}


@pytest.mark.parametrize("call", INTEGER_SLOTS.values(), ids=INTEGER_SLOTS)
def test_a_bool_is_refused_like_a_float(call):
    raised = []
    for value in (1.5, True, False):
        with pytest.raises(ValidationError) as info:
            call(value)
        raised.append(type(info.value))
    assert raised[1] is raised[0] and raised[2] is raised[0]
