"""Start-up pays only for what is used.

``import hilb2`` imports no submodule, ``import hilb2.cli`` avoids
``dataclasses`` and ``inspect``, and a subcommand loads only the engine
modules its handler imports.  The module checks run in fresh interpreters,
because this test process has long since imported everything; a module the
bare interpreter already loads at start-up is not blamed on the package.
Nothing here is timed.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hilb2

ROOT = Path(__file__).resolve().parent.parent

# The public API, by defining module: the 44 names of ``hilb2.__all__``.
PUBLIC = {
    "chow": [
        "BasisId", "BasisSymbol", "Family", "GradedClass", "chow_rank", "enumerate_basis",
    ],
    "chern_secant": [
        "SecantProblem", "chern_taut", "secant_degree_mu_closed",
        "secant_degree_mu_intersection", "secant_oracle",
    ],
    "errors": [
        "Hilb2Error", "InvalidGrading", "InvalidIndex", "InvalidInput", "MixedAmbient",
        "NotComplementary", "NotHomogeneous", "ParseError", "UnsupportedError",
        "UnsupportedFamilyPair", "UnsupportedMonomial", "ValidationError", "WrongBasis",
    ],
    "fixed_points": ["IdealKind", "MonomialIdealDescriptor", "bb_cell_of", "enumerate_fixed_points"],
    "pairing": [
        "IntersectionMatrix", "effectivity_pairings", "intersection_matrix", "is_effective",
        "is_nef", "pair_classes", "pair_symbols",
    ],
    "products": [
        "MonomialSpec", "bprime_top_power", "eval_monomial", "mul_bprime_top",
        "mul_c_top", "to_ms",
    ],
    "serialize": ["emit_class", "parse_class", "parse_symbol"],
}

# Names the API once had, each a second path to an operation it keeps, a
# record that only carried one call's arguments, a wrapper around one division,
# an error type that duplicated a sibling or named a refusal the package no
# longer makes, or a lookup that a refusal guarded and a table already lists.
REMOVED = ["validate_symbol", "linear_combine", "partner_indices", "has_complementary_indices",
           "class_to_json", "PairingConfig", "DEFAULT_CONFIG", "TautBundle", "secant_degree",
           "InvalidExponent", "UnsupportedFamily", "UnsupportedBasisPair", "UnsupportedTerm",
           "dual_generator"]

ENGINE = ["hilb2.products", "hilb2.chern_secant", "hilb2.fixed_points", "hilb2.serialize", "csv"]


def modules_after(code: str) -> set[str]:
    """The modules a fresh interpreter has loaded after running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = f"{code}\nimport sys\nprint('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return modules_after("pass")


def loaded_by(code: str, bare: set[str]) -> set[str]:
    return modules_after(code) - bare


def test_import_hilb2_loads_no_submodule(bare):
    assert {m for m in loaded_by("import hilb2", bare) if m.startswith("hilb2.")} == set()


def test_first_use_loads_only_the_defining_module(bare):
    loaded = loaded_by("import hilb2\nhilb2.chow_rank", bare)
    assert {m for m in loaded if m.startswith("hilb2")} == {"hilb2", "hilb2.chow", "hilb2.errors"}
    # a submodule is reachable as an attribute of the package, as before
    loaded = loaded_by("import hilb2\nassert hilb2.products.mul_c_top", bare)
    assert {m for m in loaded if m.startswith("hilb2")} >= {"hilb2.products"}


def test_import_cli_loads_neither_dataclasses_nor_inspect(bare):
    loaded = loaded_by("import hilb2.cli", bare)
    assert "hilb2.cli" in loaded
    assert {"dataclasses", "inspect"} & loaded == set()


def test_rank_loads_no_engine_module_it_does_not_use(bare):
    code = ("from hilb2.cli import run_command\n"
            "assert run_command(['rank', '--n', '3', '--codim', '1', '--format', 'json'])[0] == 0")
    loaded = loaded_by(code, bare)
    assert "hilb2.pairing" not in loaded  # --dprime-diag is checked by chow.require_int
    assert sorted(set(ENGINE) & loaded) == []


# Subcommands that never pair: each runs, --dprime-diag given, without loading ``pairing``.
NO_PAIRING = {
    "rank": ["rank", "--n", "3", "--codim", "1"],
    "basis": ["basis", "--n", "3", "--basis", "BB", "--all"],
    "fixed-points": ["fixed-points", "--n", "3", "--generators"],
    "power": ["power", "--n", "4", "--k", "2", "--c-exp", "1"],
}


@pytest.mark.parametrize("argv", NO_PAIRING.values(), ids=NO_PAIRING)
def test_a_subcommand_that_never_pairs_does_not_load_pairing(argv, bare):
    code = ("from hilb2.cli import run_command\n"
            f"assert run_command({[*argv, '--dprime-diag', '2']!r})[0] == 0")
    assert "hilb2.pairing" not in loaded_by(code, bare)


def test_all_is_the_public_api():
    assert hilb2.__all__ == sorted(name for names in PUBLIC.values() for name in names)
    assert len(hilb2.__all__) == 44


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_not_public(name):
    assert name not in dir(hilb2)
    with pytest.raises(AttributeError, match=name):
        getattr(hilb2, name)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_resolves_to_its_defining_module(module):
    defining = importlib.import_module(f"hilb2.{module}")
    assert getattr(hilb2, module) is defining
    for name in PUBLIC[module]:
        assert getattr(hilb2, name) is getattr(defining, name), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from hilb2 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(hilb2.__all__)
    assert set(hilb2.__all__) <= set(dir(hilb2))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hilb2.no_such_name
    with pytest.raises(ImportError):
        exec("from hilb2 import no_such_name", {})
