"""Exact intersection-theory calculator for P^{n[2]}, the Hilbert scheme of
two points on projective n-space.

Everything is exact: coefficients are arbitrary-precision rationals and no
floating point enters any computation.  See the README for an overview and
the ``hilb2`` command line tool for the same functionality from a shell.

The public names below are loaded on first use: ``import hilb2`` imports no
submodule, and the first access to a name imports the module defining it.
"""

from importlib import import_module

__version__ = "0.1.0"

# Module -> the public names it defines, the one list of the package's API.
_EXPORTS = {
    "chow": (
        "BasisId", "BasisSymbol", "Family", "GradedClass", "chow_rank", "enumerate_basis",
    ),
    "chern_secant": (
        "SecantProblem", "chern_taut", "secant_degree_mu_closed",
        "secant_degree_mu_intersection", "secant_oracle",
    ),
    "errors": (
        "Hilb2Error", "InvalidGrading", "InvalidIndex", "InvalidInput", "MixedAmbient",
        "NotComplementary", "NotHomogeneous", "ParseError", "UnsupportedError",
        "UnsupportedFamilyPair", "UnsupportedMonomial", "ValidationError", "WrongBasis",
    ),
    "fixed_points": (
        "IdealKind", "MonomialIdealDescriptor", "bb_cell_of", "enumerate_fixed_points",
    ),
    "pairing": (
        "IntersectionMatrix", "dual_generator", "effectivity_pairings",
        "intersection_matrix", "is_effective", "is_nef", "pair_classes", "pair_symbols",
    ),
    "products": (
        "MonomialSpec", "bprime_top_power", "eval_monomial", "mul_bprime_top",
        "mul_c_top", "to_ms",
    ),
    "serialize": ("emit_class", "parse_class", "parse_symbol"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines a public name (or a submodule named in
    ``_EXPORTS``) and keep the result as a module attribute."""
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
