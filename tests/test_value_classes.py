"""The five value classes are immutable named tuples.  All but
``IntersectionMatrix``, a three-field result record that
``intersection_matrix`` builds, validate on every construction path: the constructor, ``_replace``,
``copy`` and ``pickle``.  They unpack, index and compare equal to a plain
tuple of their fields.  Their integer fields, like every integer argument
of the library, take an ``int`` and refuse a ``bool``; a class coefficient
refuses a ``bool`` as it refuses a float.  ``GradedClass``, which is not a
tuple, copies and pickles through its validating constructor too.  A call
that takes one of these values refuses anything else, a plain tuple of the
same fields too, with ``InvalidInput`` naming the call."""

import copy
import pickle
from fractions import Fraction

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
    SecantProblem,
    ValidationError,
    bb_cell_of,
    bprime_top_power,
    chern_taut,
    chow_rank,
    dual_generator,
    effectivity_pairings,
    emit_class,
    enumerate_basis,
    eval_monomial,
    intersection_matrix,
    is_effective,
    is_nef,
    mul_bprime_top,
    mul_c_top,
    parse_class,
    parse_symbol,
    secant_degree_mu_closed,
    secant_degree_mu_intersection,
    secant_oracle,
    to_ms,
)
from hilb2.cli import EXIT_VALIDATION, run_command

# class -> (a valid instance, fields that fail validation, the error they raise)
CASES = {
    BasisSymbol: (lambda: BasisSymbol(Family.BP, 1, 1, 2), (Family.BP, 1, 5, 2), InvalidIndex),
    MonomialSpec: (lambda: MonomialSpec(3, 1, 1), (3, 2, 2), InvalidInput),
    IntersectionMatrix: (lambda: intersection_matrix(2, 2), None, None),
    SecantProblem: (lambda: SecantProblem(6, [2, 2, 3, 2]), (6, (2, 0)), InvalidInput),
    MonomialIdealDescriptor: (
        lambda: MonomialIdealDescriptor(IdealKind.K, 0, 2, 2), (IdealKind.K, 2, 0, 2), InvalidIndex,
    ),
}
IDS = [cls.__name__ for cls in CASES]
# class -> a valid instance, for every class that copies and pickles
ROUND_TRIP = {
    **{cls: make for cls, (make, _, _) in CASES.items()},
    GradedClass: lambda: GradedClass(
        2, [(BasisSymbol(Family.C, 1, 1, 2), -3), (BasisSymbol(Family.A, 0, 1, 2), Fraction(1, 2))]
    ),
}
COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


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


@pytest.mark.parametrize("cls", ROUND_TRIP, ids=lambda c: c.__name__)
def test_copy_and_pickle_round_trip(cls):
    obj = ROUND_TRIP[cls]()
    for twin in (route(obj) for route in COPIES.values()):
        assert type(twin) is cls
        assert twin == obj


@pytest.mark.parametrize("route", COPIES.values(), ids=COPIES)
def test_a_graded_class_is_copied_through_its_constructor(route, monkeypatch):
    obj = ROUND_TRIP[GradedClass]()
    built = []
    init = GradedClass.__init__
    monkeypatch.setattr(GradedClass, "__init__",
                        lambda self, n, terms=(): built.append(n) or init(self, n, terms))
    twin = route(obj)
    assert built == [2]
    assert twin == obj and twin is not obj
    # An instance that skipped validation is refused again.
    forged = object.__new__(GradedClass)
    object.__setattr__(forged, "n", 0)
    object.__setattr__(forged, "_terms", ())
    with pytest.raises(InvalidInput):
        route(forged)


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


_PAIR_ARGS = ["pair", "--n", "2", "--x", '{"family":"A\'","i":0,"j":2}',
              "--y", '{"family":"A","i":0,"j":2}']
# The twist is a plain argument: every path that passes it in (positional,
# keyword, command line) refuses the same value with the same message.  So does
# each command that reads the --dprime-diag foil, which only the CLI takes.  Each
# path is a call with the value to pass.
CALL_PATHS = {
    "ap_a_diagonal": (0, "ap_a_diagonal must be an integer >= 1, got 0", [
        lambda d: _cli(["--dprime-diag", str(d), *_PAIR_ARGS]),
        lambda d: _cli(["--dprime-diag", str(d), "matrix", "--n", "2", "--k", "2"]),
    ]),
    "twist": (0, "line bundle twist must be an integer >= 1, got 0", [
        lambda d: chern_taut(3, d),
        lambda d: chern_taut(n=3, d=d),
        lambda d: _cli(["chern", "--n", "3", "--d", str(d)]),
    ]),
}


def _cli(argv):
    code, text = run_command(argv)
    if code == EXIT_VALIDATION:
        raise InvalidInput(text.removeprefix("error: "))
    assert code == 0, text
    return text


@pytest.mark.parametrize("name", CALL_PATHS)
def test_every_call_path_validates(name):
    bad, message, paths = CALL_PATHS[name]
    for call in paths:
        with pytest.raises(InvalidInput) as info:
            call(bad)
        assert str(info.value) == message
        call(2)


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
    assert repr(SecantProblem(5, [2, 2, 2, 2])) == "SecantProblem(n=5, degrees=(2, 2, 2, 2))"


def test_intersection_matrix_holds_only_what_varies():
    # n, k and the two bases are the call's own arguments, so the record keeps none of them.
    assert IntersectionMatrix._fields == ("row_symbols", "col_symbols", "entries")
    # A plain namedtuple, not a value_type: its _make is the namedtuple's own.
    assert IntersectionMatrix._make.__func__.__qualname__ == "IntersectionMatrix._make"
    assert IntersectionMatrix("x", None, 1) == ("x", None, 1)
    M = intersection_matrix(2, 2)
    assert M.row_symbols[0] == BasisSymbol(Family.AP, 0, 2, 2)
    assert M.entries[1][1] == 2
    assert repr(M).startswith("IntersectionMatrix(row_symbols=(BasisSymbol(A'_{0,2}, n=2)")


def test_secant_problem_stores_degrees_as_a_tuple():
    p = SecantProblem(6, [2, 2, 3, 2])
    assert p.degrees == (2, 2, 3, 2) and type(p.degrees) is tuple
    assert p == SecantProblem(6, (2, 2, 3, 2))
    assert hash(p) == hash(SecantProblem(6, iter([2, 2, 3, 2])))
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
    "chern_taut n": lambda x: chern_taut(x, 2),
    "chern_taut d": lambda x: chern_taut(2, x),
    "SecantProblem n": lambda x: SecantProblem(x, (2, 2, 2)),
    "SecantProblem degree": lambda x: SecantProblem(4, (2, 2, x)),
    "secant_oracle degree": lambda x: secant_oracle(4, (2, 2, x)),
    "intersection_matrix n": lambda x: intersection_matrix(x, 1),
    "intersection_matrix k": lambda x: intersection_matrix(2, x),
    "is_nef k": lambda x: is_nef(_POINT, x),
    "is_effective k": lambda x: is_effective(_POINT, x),
    "parse_class n": lambda x: parse_class({"n": x, "terms": []}),
    "parse_symbol i": lambda x: parse_symbol({"family": "A", "i": x, "j": 2}, 2),
}


# The coefficient entry points: a bool is not read as 0 or 1.
_A01 = BasisSymbol(Family.A, 0, 1, 2)
COEFFICIENT_SLOTS = {
    "GradedClass coefficient": lambda x: GradedClass(2, [(_A01, x)]),
    "GradedClass repeated coefficient": lambda x: GradedClass(2, [(_A01, 1), (_A01, x)]),
    "scalar *": lambda x: GradedClass.from_symbol(_A01) * x,
    "scalar * (right)": lambda x: x * GradedClass.from_symbol(_A01),
}
SLOTS = {**INTEGER_SLOTS, **COEFFICIENT_SLOTS}


@pytest.mark.parametrize("call", SLOTS.values(), ids=SLOTS)
def test_a_bool_is_refused_like_a_float(call):
    raised = []
    for value in (1.5, True, False):
        with pytest.raises(ValidationError) as info:
            call(value)
        raised.append(type(info.value))
    assert raised[1] is raised[0] and raised[2] is raised[0]


# Each call that takes one value class, with a plain tuple of such a value's fields.
_CLASS_FIELDS = (2, tuple(_POINT.items()))
TYPED_CALLS = {
    **dict.fromkeys((is_nef, is_effective, effectivity_pairings, mul_bprime_top, mul_c_top,
                     emit_class), _CLASS_FIELDS),
    **dict.fromkeys((to_ms, dual_generator), (Family.B, 1, 1, 2)),
    bb_cell_of: (IdealKind.J, 0, 1, 2),
    eval_monomial: (4, 1, 1),
    **dict.fromkeys((secant_degree_mu_closed, secant_degree_mu_intersection), (4, (2, 2, 2))),
}


@pytest.mark.parametrize("call", TYPED_CALLS, ids=[call.__name__ for call in TYPED_CALLS])
def test_a_wrong_typed_operand_is_refused_naming_the_call(call):
    for value in (None, TYPED_CALLS[call]):
        with pytest.raises(InvalidInput, match=rf"^{call.__name__} takes a [A-Za-z]+, got "):
            call(value)
