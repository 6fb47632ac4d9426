"""Command line interface.

Subcommands: rank, basis, fixed-points, pair, matrix, power, chern, secant,
cone.  Global flags ``--format json|text`` (csv additionally for matrices)
and ``--dprime-diag N`` (the configurable A'.A pairing diagonal) may appear
anywhere in the arguments, spelled in full.  Exit codes: 0 success, 2
validation or usage error, 3 unsupported operation.  JSON output follows
``schemas/cli_output.schema.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from collections import namedtuple

# Each handler imports the engine modules it needs, so a subcommand loads
# only those; ``pairing`` (and through it ``chow``) validates --dprime-diag
# on every subcommand.
from .chow import chow_rank, enumerate_basis
from .errors import InvalidInput, UnsupportedError, ValidationError
from .pairing import PairingConfig

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNSUPPORTED = 3

# The one result type of every handler; only ``matrix`` has a csv rendering.
_Output = namedtuple("_Output", "result text warnings csv", defaults=((), None))


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ``InvalidInput``, so they share the error path."""

    def error(self, message):
        raise InvalidInput(f"{self.prog}: {message}")


def _int_or_text(text: str):
    """An int, or the text for ``PairingConfig`` to refuse once --format is read."""
    try:
        return int(text)
    except ValueError:
        return text


# The global flags, taken out of argv wherever they appear.  No prefix
# matching: "--d" (chern's twist) must not read as --dprime-diag.
_GLOBALS = _Parser(prog="hilb2", add_help=False, allow_abbrev=False)
_GLOBALS.add_argument(
    "--format", choices=("text", "json", "csv"), default="text",
    help="output format (csv is available for matrix only; default text)",
)
_GLOBALS.add_argument(
    "--dprime-diag", type=_int_or_text, default=1, metavar="N",
    help="value of the A'.A pairing diagonal (default 1)",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hilb2", parents=[_GLOBALS], allow_abbrev=False,
        description="Exact intersection-theory calculator for the Hilbert scheme "
        "of two points on P^n.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rank", help="rank of a graded Chow group")
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--codim", type=int)
    g.add_argument("--dim", type=int)

    p = sub.add_parser("basis", help="list basis symbols")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basis", choices=("BB", "ES", "MS"), required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--codim", type=int)
    g.add_argument("--dim", type=int)
    g.add_argument("--all", action="store_true")

    p = sub.add_parser("fixed-points", help="torus-fixed monomial ideals")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--generators", action="store_true", help="include ideal generators")

    p = sub.add_parser("pair", help="intersection number of two symbols")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", required=True, metavar="JSON", help='e.g. {"family":"B\'","i":1,"j":1}')
    p.add_argument("--y", required=True, metavar="JSON")

    p = sub.add_parser("matrix", help="complementary-codimension pairing matrix")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="rows have dimension k, columns codimension k")
    p.add_argument("--rows", choices=("ES", "MS"), default="ES")
    p.add_argument("--cols", choices=("MS",), default="MS")

    p = sub.add_parser("power", help="evaluate B'_{n-1,n-1}^k . C_{n-1,n-1}^b")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True, help="exponent of B'_{n-1,n-1} (k >= 1)")
    p.add_argument("--c-exp", type=int, default=0, metavar="B", help="exponent of C_{n-1,n-1}")

    p = sub.add_parser("chern", help="Chern classes of the tautological bundle of O(d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("secant", help="degree of the secant variety of a complete intersection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", required=True, metavar="D1,D2,...")
    p.add_argument("--mu1", type=int, default=1)
    p.add_argument("--variant", choices=("proof", "intro"), default="proof")
    p.add_argument("--check-oracle", action="store_true",
                   help="compare against the classical chord/curve formulas and the intersection route")

    p = sub.add_parser("cone", help="nef / effective cone membership")
    p.add_argument("--class", dest="class_doc", required=True, metavar="JSON",
                   help="class document in MS coordinates")
    p.add_argument("--test", choices=("nef", "effective"), required=True)
    p.add_argument("--k", type=int, default=None)

    return parser


def _parse_degrees(text: str) -> list[int]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            out.append(int(piece))
        except ValueError:
            raise InvalidInput(f"bad degree {piece!r} in --degrees") from None
    return out


def _cmd_rank(args, cfg):
    n = args.n
    codim = args.codim if args.codim is not None else 2 * n - args.dim
    rank = chow_rank(n, codim)
    result = {"n": n, "codim": codim, "dim": 2 * n - codim, "rank": rank}
    return _Output(result, str(rank))


def _cmd_basis(args, cfg):
    from .serialize import symbol_to_doc

    symbols = enumerate_basis(args.n, args.basis, dim=args.dim, codim=args.codim)
    kind = "dim" if args.dim is not None else "codim" if args.codim is not None else "all"
    k = args.dim if args.dim is not None else args.codim
    result = {
        "n": args.n,
        "basis": args.basis,
        "grading": {"kind": kind, "k": k},
        "symbols": [symbol_to_doc(s) for s in symbols],
    }
    return _Output(result, " ".join(str(s) for s in symbols))


def _cmd_fixed_points(args, cfg):
    from .fixed_points import bb_cell_of, enumerate_fixed_points
    from .serialize import symbol_to_doc

    records, lines = [], []
    points = enumerate_fixed_points(args.n)
    for fp in points:
        cell, dim = bb_cell_of(fp)
        rec = {
            "kind": fp.kind.value,
            "i": fp.i,
            "j": fp.j,
            "cell": symbol_to_doc(cell),
            "cell_dim": dim,
        }
        line = f"{fp} -> {cell} (dim {dim})"
        if args.generators:
            gens = fp.generators()
            rec["generators"] = gens
            line += "  ideal (" + ", ".join(gens) + ")"
        records.append(rec)
        lines.append(line)
    result = {"n": args.n, "count": len(points), "fixed_points": records}
    return _Output(result, "\n".join(lines))


def _cmd_pair(args, cfg):
    from .pairing import pair_symbols
    from .serialize import parse_symbol, symbol_to_doc

    x = parse_symbol(args.x, args.n)
    y = parse_symbol(args.y, args.n)
    value = pair_symbols(x, y, cfg)
    result = {
        "n": args.n,
        "x": symbol_to_doc(x),
        "y": symbol_to_doc(y),
        "value": str(value),
    }
    return _Output(result, str(value))


def _cmd_matrix(args, cfg):
    import csv

    from .pairing import intersection_matrix
    from .serialize import symbol_to_doc

    M = intersection_matrix(args.n, args.k, args.rows, args.cols, cfg)
    header = [""] + [str(s) for s in M.col_symbols]
    grid = [
        [str(r)] + [str(v) for v in row]
        for r, row in zip(M.row_symbols, M.entries)
    ]
    widths = [max(len(line[c]) for line in [header] + grid) for c in range(len(header))]
    text_lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(line, widths))
        for line in [header] + grid
    ]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + grid)
    result = {
        "n": args.n,
        "k": args.k,
        "rows": args.rows,
        "cols": args.cols,
        "row_symbols": [symbol_to_doc(s) for s in M.row_symbols],
        "col_symbols": [symbol_to_doc(s) for s in M.col_symbols],
        "entries": [[str(v) for v in row] for row in M.entries],
    }
    return _Output(result, "\n".join(text_lines), csv=buf.getvalue().rstrip("\n"))


def _cmd_power(args, cfg):
    from .products import MonomialSpec, eval_monomial
    from .serialize import emit_class

    X = eval_monomial(MonomialSpec(args.n, args.k, args.c_exp))
    result = {
        "n": args.n,
        "bprime_exponent": args.k,
        "c_exponent": args.c_exp,
        "class": emit_class(X),
    }
    return _Output(result, str(X))


def _cmd_chern(args, cfg):
    from .chern_secant import TautBundle, chern_taut
    from .serialize import emit_class

    c1, c2 = chern_taut(TautBundle(args.n, args.d))
    result = {"n": args.n, "d": args.d, "c1": emit_class(c1), "c2": emit_class(c2)}
    return _Output(result, f"c1 = {c1}\nc2 = {c2}")


def _cmd_secant(args, cfg):
    from .chern_secant import (SecantProblem, secant_degree, secant_degree_mu_intersection,
                               secant_oracle)

    degrees = _parse_degrees(args.degrees)
    problem = SecantProblem(args.n, degrees, mu1=args.mu1, variant=args.variant)
    warnings = []
    if any(d == 1 for d in degrees):
        warnings.append(
            "degree-1 hypersurfaces make X degenerate in P^n; the count is for its linear span"
        )
    degree = secant_degree(problem)  # the exponential closed route, run once
    deg_mu = int(degree * args.mu1)
    result = {
        "n": args.n,
        "degrees": degrees,
        "m": problem.m,
        "mu1": args.mu1,
        "variant": args.variant,
        "degree_times_mu1": deg_mu,
        "degree": str(degree),
        "oracle": None,
        "oracle_match": None,
    }
    lines = [f"deg(Sec X) * mu1 = {deg_mu}", f"deg(Sec X) = {degree}"]
    if args.check_oracle:
        checks = {"intersection": secant_degree_mu_intersection(problem)}
        oracle = secant_oracle(args.n, degrees)
        if oracle is not None:
            checks["classical"] = oracle
        result["oracle"] = oracle
        ok = all(v == deg_mu for v in checks.values())
        result["oracle_match"] = ok
        for name, v in checks.items():
            lines.append(f"{name} = {v}")
        lines.append("OK" if ok else "MISMATCH")
    return _Output(result, "\n".join(lines), warnings)


def _cmd_cone(args, cfg):
    from .pairing import _checked_pairings, is_nef
    from .serialize import parse_class, symbol_to_doc

    X = parse_class(args.class_doc)
    if args.test == "nef":
        member, extra = is_nef(X, args.k), {}
    else:
        vector = _checked_pairings(X, args.k, cfg)  # the one vector is_effective reads
        member = all(v >= 0 for _, v in vector)
        extra = {"pairings": [{"symbol": symbol_to_doc(s), "value": str(v)} for s, v in vector]}
    k = args.k
    if k is None and not X.is_zero:
        k = X.codimension() if args.test == "nef" else X.dimension()
    result = {"n": X.n, "test": args.test, "k": k, "member": member, **extra}
    return _Output(result, "true" if member else "false")


_HANDLERS = {
    "rank": _cmd_rank,
    "basis": _cmd_basis,
    "fixed-points": _cmd_fixed_points,
    "pair": _cmd_pair,
    "matrix": _cmd_matrix,
    "power": _cmd_power,
    "chern": _cmd_chern,
    "secant": _cmd_secant,
    "cone": _cmd_cone,
}


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, output text)."""
    args = argparse.Namespace(command=None)  # the subparser names the command
    help_text = io.StringIO()
    try:
        _, rest = _GLOBALS.parse_known_args(list(argv), args)
        with contextlib.redirect_stdout(help_text):
            _build_parser().parse_args(rest, args)
        out = _HANDLERS[args.command](args, PairingConfig(ap_a_diagonal=args.dprime_diag))
        if args.format == "csv" and out.csv is None:
            raise InvalidInput("csv format is available for the matrix command only")
        code, body = EXIT_OK, {"result": out.result}
        if out.warnings:
            body["warnings"] = out.warnings
        warned = [f"warning: {w}" for w in out.warnings]
        text = out.csv if args.format == "csv" else "\n".join([*warned, out.text])
    except SystemExit:  # --help, after printing the help text
        return EXIT_OK, help_text.getvalue().rstrip("\n")
    except (ValidationError, UnsupportedError) as exc:
        code = EXIT_VALIDATION if isinstance(exc, ValidationError) else EXIT_UNSUPPORTED
        body = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        text = f"error: {exc}"
    if args.format == "json":  # one envelope for results and errors
        return code, json.dumps({"command": args.command, **body}, indent=2)
    return code, text


def main(argv=None) -> int:
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        stream = sys.stderr if code else sys.stdout
        try:
            print(text, file=stream, flush=True)
        except BrokenPipeError:  # the reader left (``| head``): the flush at exit goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
