"""The three benchmark workloads: seeded inputs, the calls each op makes
into ``hilb2``, and the checks against ``reference``.

A workload hands out *rounds*: lists of ops, each a ``(kind, n, run)``
triple whose ``run(ctx)`` makes its program calls through ``ctx.call`` (timed,
and traced when tracing is on) and its checks through ``ctx.check``.  Rounds
are stratified: every round holds the same mix of op kinds and rungs, and
the seed draws the parameters inside each slot.  A run measures whole
rounds, so two seeds do the same mix of work and their figures agree.
"""

from __future__ import annotations

import csv
import io
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import reference as ref

LADDER = (10, 40, 160)

# The closed subset-sum route visits 2^r subsets for r hypersurface degrees,
# so it runs only up to this cap (16 degrees take about 0.25 s on a 2-vCPU Xeon VM).
CLOSED_CAP_R = 16
CLOSED_CAP_LABEL = f"closed secant route only for r <= {CLOSED_CAP_R} degrees (cost 2^r)"

# (n, m) pool of the secant workload: few pairs per rung, so later problems
# reuse the program's monomial-weight cache.  At n=160 one cold pair costs
# seconds (r >= 81 monomials), so the rung has a single m.
SECANT_POOL = {10: (0, 1, 2, 3, 4), 40: (0, 1, 7, 13, 19), 160: (79,)}
SECANT_DEGREES = (1, 2, 2, 3, 3, 4)

# Classes workload: ops per rung and round, documents per op, and the term
# cap per document.  An op is a batch so that op times cluster by rung; the
# counts put p50 inside the 40 cluster and p90 inside the 160 cluster, where
# samples are dense, so the percentiles do not jump between clusters.
CLASSES_OPS = {10: 6, 40: 11, 160: 3}
DOCS_PER_OP = 6
TERMS_MAX = 24
CHAIN_STEPS = 4


def sym_of(s) -> tuple:
    """A program BasisSymbol as a reference tuple."""
    return (s.family.value, s.i, s.j)


def as_dict(X) -> dict:
    return {sym_of(s): c for s, c in X.items()}


def stratum(rng: Random, lo: int, hi: int, part: int, parts: int) -> int:
    """A value of [lo, hi] drawn from the ``part``-th of ``parts`` equal slices."""
    span = hi - lo + 1
    a = lo + span * part // parts
    b = lo + span * (part + 1) // parts - 1
    return rng.randint(a, max(a, b))


def random_coeff(rng: Random, negative: bool) -> Fraction:
    c = Fraction(rng.randint(1, 9), rng.choice((1, 1, 1, 2, 3)))
    return -c if negative else c


class Secant:
    """Secant degrees by the closed route, the intersection route and the
    classical oracles, as ``hilb2 secant --check-oracle`` answers them."""

    name = "secant"
    setup_module = "hilb2"

    def __init__(self, seed: int, src: Path):
        self.rng = Random(seed)
        from hilb2 import (SecantProblem, secant_degree_mu_closed,
                           secant_degree_mu_intersection, secant_oracle)
        self.api = (SecantProblem, secant_degree_mu_closed,
                    secant_degree_mu_intersection, secant_oracle)
        self.lookups = 0
        self.weights: set = set()  # (n, m, k) monomial weights the route needs
        self.closed_calls = 0
        self.closed_subsets = 0
        self.terms_out = 0
        self.degree_count = 0
        self.problems = 0

    def round(self, r: int) -> list:
        ops = []
        for n, ms in SECANT_POOL.items():
            for m in ms:
                degrees = tuple(self.rng.choice(SECANT_DEGREES) for _ in range(n - m))
                ops.append(("secant", n, self._op(n, degrees)))
        self.rng.shuffle(ops)
        return ops

    def _op(self, n, degrees):
        def run(ctx):
            Problem, closed, intersection, oracle = self.api
            m, r = n - len(degrees), len(degrees)
            e = ref.elementary(degrees)
            want = sum(e[k] << (k - 1) for k in range(m + 1, r + 1))
            p = ctx.call("chern_secant.SecantProblem", Problem, n, degrees)
            if r <= CLOSED_CAP_R:
                got = ctx.call("chern_secant.closed", closed, p)
                ctx.check(got == want, f"closed route {got} != reference {want}")
                self.closed_calls += 1
                self.closed_subsets += ref.closed_subsets(r, m)
            got = ctx.call("chern_secant.intersection", intersection, p)
            ctx.check(got == want, f"intersection route {got} != reference {want}")
            if m <= 1:
                got = ctx.call("chern_secant.oracle", oracle, n, degrees)
                own = ref.classical(n, degrees)
                ctx.check(got == own == want, f"oracle {got}, own oracle {own}, reference {want}")
            for k in range(1, r + 1):
                if e[k]:
                    self.lookups += 1
                    self.weights.add((n, m, k))
            self.degree_count += r
            self.problems += 1
        return run

    def replay(self, ctx) -> None:
        """Recompute each monomial weight the route needed, through
        ``eval_monomial`` and ``pair_classes``, so their cost shows as layers."""
        from hilb2 import (BasisSymbol, Family, GradedClass, MonomialSpec,
                           eval_monomial, pair_classes)
        for n, m, k in sorted(self.weights):
            target = ctx.call("chow.GradedClass", GradedClass.from_symbol,
                              BasisSymbol(Family.C, n - 2 * m, n, n))
            X = ctx.call("products.eval_monomial", eval_monomial, MonomialSpec(n, k, n - m - k))
            w = ctx.call("pairing.pair_classes", pair_classes, X, target)
            want = 2 ** (k - 1) if k >= m + 1 else 0
            ctx.check(w == want, f"weight (n={n}, m={m}, k={k}) = {w}, paper says {want}")
            self.terms_out += len(X.items())

    def properties(self) -> dict:
        return {
            "n_rungs": list(LADDER),
            "closed_cap": CLOSED_CAP_LABEL,
            "pool": {n: list(ms) for n, ms in SECANT_POOL.items()},
            "weight_reuse_ratio": self.reuse_ratio(),
            "degrees_per_problem": self.degree_count / max(self.problems, 1),
        }

    def reuse_ratio(self) -> float:
        return 1 - len(self.weights) / self.lookups if self.lookups else 0.0

    def layer_counts(self) -> dict:
        return {
            "chern_secant.closed_subsets": self.closed_subsets / max(self.closed_calls, 1),
            "chern_secant.weight_reuse_ratio": self.reuse_ratio(),
            "chern_secant.closed_cap_r": CLOSED_CAP_R,
            "products.eval_monomial_calls": len(self.weights),
            "products.terms_out": self.terms_out / max(len(self.weights), 1),
        }


class Classes:
    """MS-coordinate class documents through parse, cone test, products and
    emit; plus intersection matrices and the iterated ``B'`` chain per rung."""

    name = "classes"
    setup_module = "hilb2"

    def __init__(self, seed: int, src: Path):
        import hilb2
        self.h = hilb2
        self.rng = Random(seed)
        self.parsed = 0
        self.terms = 0
        self.tested = 0
        self.nonzero = 0

    def round(self, r: int) -> list:
        ops = [("classes", n, self._op(n)) for n, count in CLASSES_OPS.items() for _ in range(count)]
        self.rng.shuffle(ops)
        return ops

    def _op(self, n: int):
        """One request at rung ``n``: documents spread over all gradings, one
        matrix pair near the middle grading, and one segment of the chain."""
        rng = self.rng
        tests = ["nef", "effective"] * (DOCS_PER_OP // 2)
        rng.shuffle(tests)
        parts = [self._cone(n, test, stratum(rng, 0, 2 * n, part, DOCS_PER_OP))
                 for part, test in enumerate(tests)]
        parts.append(self._matrix(n, rng.randint(3 * n // 4, 5 * n // 4)))
        parts.append(self._chain(n, rng.randint(1, n)))

        def run(ctx):
            for part in parts:
                part(ctx)
        return run

    def _document(self, n: int, test: str, grading: int) -> tuple[dict, str]:
        rng = self.rng
        dim = grading if test == "effective" else 2 * n - grading
        pool = ref.symbols(n, ref.MS, dim)
        chosen = rng.sample(pool, rng.randint(1, min(len(pool), TERMS_MAX)))
        negative = rng.random() < 0.4
        spec = {s: random_coeff(rng, negative and t == 0) for t, s in enumerate(chosen)}
        rng.shuffle(chosen)
        doc = {"n": n, "basis": "MS", "terms": [
            {**ref.sym_doc(s), "coeff": str(spec[s])} for s in chosen]}
        return spec, json.dumps(doc)

    def _cone(self, n: int, test: str, grading: int):
        spec, text = self._document(n, test, grading)

        def run(ctx):
            h = self.h
            X = ctx.call("serialize.parse_class", h.parse_class, text)
            ctx.check(as_dict(X) == spec, "parse_class terms differ from the document")
            self.parsed += 1
            self.terms += len(spec)
            if test == "nef":
                got = ctx.call("pairing.is_nef", h.is_nef, X, grading)
                want = all(c >= 0 for c in spec.values())
                ctx.check(got == want, f"is_nef {got}, coefficient signs say {want}")
            else:
                got = ctx.call("pairing.is_effective", h.is_effective, X, grading)
                vec = ctx.call("pairing.effectivity_pairings", h.effectivity_pairings, X)
                own = ref.effectivity_vector(spec, n)
                ctx.check([sym_of(y) for y, _ in vec] == ref.symbols_codim(n, ref.MS, grading),
                          "effectivity_pairings generators differ from the codim-k MS basis")
                ctx.check({sym_of(y): v for y, v in vec if v} == {y: v for y, v in own.items() if v},
                          "effectivity pairings differ from the reference table")
                want = all(v >= 0 for v in own.values())
                ctx.check(got == want, f"is_effective {got}, reference pairings say {want}")
                self.tested += len(vec)
                self.nonzero += sum(1 for _, v in vec if v)
            supported = [(s, c) for s, c in X.items() if s.family.value != "C" or s.i == s.j]
            X1 = ctx.call("chow.GradedClass", h.GradedClass, n, supported[0::2])
            X2 = ctx.call("chow.GradedClass", h.GradedClass, n, supported[1::2])
            total = ctx.call("chow.add", operator.add, X1, X2)
            Y = ctx.call("products.mul_bprime_top", h.mul_bprime_top, total)
            Y1 = ctx.call("products.mul_bprime_top", h.mul_bprime_top, X1)
            Y2 = ctx.call("products.mul_bprime_top", h.mul_bprime_top, X2)
            ctx.check(Y == ctx.call("chow.add", operator.add, Y1, Y2), "mul_bprime_top is not additive")
            shiftable = [(s, c) for s, c in X.items() if s.family.value in ("A", "B'")]
            Xc = ctx.call("chow.GradedClass", h.GradedClass, n, shiftable)
            Z = ctx.call("products.mul_c_top", h.mul_c_top, Xc)
            ctx.check(as_dict(Z) == ref.c_shift({sym_of(s): c for s, c in shiftable}, n),
                      "mul_c_top differs from the index shift")
            doc = ctx.call("serialize.emit_class", h.emit_class, X)
            ctx.check(doc == ref.class_doc(spec, n), "emit_class differs from the reference document")
            back = ctx.call("serialize.parse_class", h.parse_class, doc)
            ctx.check(back == X, "parse_class(emit_class(X)) != X")
        return run

    def _matrix(self, n: int, k: int):
        def run(ctx):
            h = self.h
            E = ctx.call("pairing.intersection_matrix", h.intersection_matrix, n, k, "ES", "MS")
            rows = [sym_of(s) for s in E.row_symbols]
            ctx.check(rows == ref.symbols(n, ref.ES, k), "ES rows differ from the dim-k ES basis")
            ok = all(
                (v > 0) if r == c else (v == 0)
                for r, row in enumerate(E.entries) for c, v in enumerate(row)
            ) and all(
                E.entries[r][r] == ref.pair(x, sym_of(E.col_symbols[r]), n)
                for r, x in enumerate(rows)
            )
            ctx.check(ok, f"ES x MS matrix (n={n}, k={k}) is not a positive diagonal")
            M = ctx.call("pairing.intersection_matrix", h.intersection_matrix, n, k, "MS", "MS")
            T = ctx.call("pairing.intersection_matrix", h.intersection_matrix, n, 2 * n - k, "MS", "MS")
            basis = ctx.call("chow.enumerate_basis", h.enumerate_basis, n, "MS", dim=k)
            ctx.check([sym_of(s) for s in basis] == [sym_of(s) for s in M.row_symbols]
                      == ref.symbols(n, ref.MS, k), "MS dim-k basis differs from the reference")
            row_at = {s: t for t, s in enumerate(T.row_symbols)}
            col_at = {s: t for t, s in enumerate(T.col_symbols)}
            sym_ok = all(
                v == T.entries[row_at[y]][col_at[x]]
                for x, row in zip(M.row_symbols, M.entries)
                for y, v in zip(M.col_symbols, row)
            )
            ctx.check(sym_ok, f"MS x MS matrix (n={n}, k={k}) is not symmetric")
            table_ok = all(
                dict((sym_of(y), v) for y, v in zip(M.col_symbols, row) if v)
                == {y: v for y in ref.partners(sym_of(x), n) if (v := ref.pair(sym_of(x), y, n))}
                for x, row in zip(M.row_symbols, M.entries)
            )
            ctx.check(table_ok, f"MS x MS matrix (n={n}, k={k}) differs from the pairing table")
        return run

    def _chain(self, n: int, k0: int):
        def run(ctx):
            h = self.h
            X = ctx.call("products.bprime_top_power", h.bprime_top_power, n, k0)
            ctx.check(as_dict(X) == ref.bprime_power(n, k0), f"B'^{k0} differs from the closed form")
            for k in range(k0 + 1, min(n, k0 + CHAIN_STEPS) + 1):
                X = ctx.call("products.mul_bprime_top", h.mul_bprime_top, X)
                P = ctx.call("products.bprime_top_power", h.bprime_top_power, n, k)
                ctx.check(X == P and as_dict(X) == ref.bprime_power(n, k),
                          f"iterated B'^{k} (n={n}) differs from the closed form")
        return run

    def properties(self) -> dict:
        return {
            "n_rungs": list(LADDER),
            "closed_cap": CLOSED_CAP_LABEL,
            "terms_per_class": self.terms / max(self.parsed, 1),
            "terms_max": TERMS_MAX,
        }

    def layer_counts(self) -> dict:
        return {
            "serialize.terms": self.terms / max(self.parsed, 1),
            "pairing.generators_tested": self.tested,
            "pairing.nonzero_ratio": self.nonzero / max(self.tested, 1),
        }


# ---------------------------------------------------------------- cli

SUBCOMMANDS = ("rank", "basis", "fixed-points", "pair", "matrix", "power", "chern", "secant", "cone")


def _doc_arg(sym) -> str:
    return json.dumps(ref.sym_doc(sym))


def _out(result, text, warnings=(), csv_text=None):
    return {"result": result, "text": text, "warnings": list(warnings), "csv": csv_text}


def expect_rank(n, codim):
    r = ref.rank(n, codim)
    return _out({"n": n, "codim": codim, "dim": 2 * n - codim, "rank": r}, str(r))


def expect_basis(n, basis, kind, k):
    fams = ref.BASES[basis]
    if kind == "dim":
        syms = ref.symbols(n, fams, k)
    elif kind == "codim":
        syms = ref.symbols_codim(n, fams, k)
    else:
        syms = ref.all_symbols(n, fams)
    result = {"n": n, "basis": basis, "grading": {"kind": kind, "k": k},
              "symbols": [ref.sym_doc(s) for s in syms]}
    return _out(result, " ".join(ref.sym_text(s) for s in syms))


def expect_fixed_points(n, generators):
    records, lines = [], []
    for kind, i, j, cell, dim, gens in ref.fixed_points(n):
        rec = {"kind": kind, "i": i, "j": j, "cell": ref.sym_doc(cell), "cell_dim": dim}
        line = f"{kind}_{{{i},{j}}} -> {ref.sym_text(cell)} (dim {dim})"
        if generators:
            rec["generators"] = gens
            line += "  ideal (" + ", ".join(gens) + ")"
        records.append(rec)
        lines.append(line)
    return _out({"n": n, "count": len(records), "fixed_points": records}, "\n".join(lines))


def expect_pair(n, x, y, diag):
    v = str(Fraction(ref.pair(x, y, n, diag)))
    return _out({"n": n, "x": ref.sym_doc(x), "y": ref.sym_doc(y), "value": v}, v)


def expect_matrix(n, k, rows, diag):
    row_syms = ref.symbols(n, ref.BASES[rows], k)
    if rows == "ES":
        dual = {"A'": "A", "B": "C", "C": "B'"}
        col_syms = [(dual[f], n - j, n - i) for f, i, j in row_syms]
    else:
        col_syms = ref.symbols_codim(n, ref.MS, k)
    entries = [[str(Fraction(ref.pair(r, c, n, diag))) for c in col_syms] for r in row_syms]
    header = [""] + [ref.sym_text(s) for s in col_syms]
    grid = [[ref.sym_text(r)] + row for r, row in zip(row_syms, entries)]
    widths = [max(len(line[c]) for line in [header] + grid) for c in range(len(header))]
    text = "\n".join("  ".join(cell.rjust(w) for cell, w in zip(line, widths))
                     for line in [header] + grid)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(grid)
    result = {"n": n, "k": k, "rows": rows, "cols": "MS",
              "row_symbols": [ref.sym_doc(s) for s in row_syms],
              "col_symbols": [ref.sym_doc(s) for s in col_syms], "entries": entries}
    return _out(result, text, csv_text=buf.getvalue().rstrip("\n"))


def expect_power(n, a, b):
    X = ref.monomial(n, a, b)
    return _out({"n": n, "bprime_exponent": a, "c_exponent": b, "class": ref.class_doc(X, n)},
                ref.class_text(X))


def expect_chern(n, d):
    c1, c2 = ref.chern(n, d)
    return _out({"n": n, "d": d, "c1": ref.class_doc(c1, n), "c2": ref.class_doc(c2, n)},
                f"c1 = {ref.class_text(c1)}\nc2 = {ref.class_text(c2)}")


def expect_secant(n, degrees, mu1, variant, check):
    m = n - len(degrees)
    e = ref.elementary(degrees)
    shift = 1 if variant == "proof" else 1 + m
    deg_mu = sum(e[k] * Fraction(2) ** (k - shift) for k in range(m + 1, len(degrees) + 1))
    deg_mu = int(deg_mu)
    degree = str(Fraction(deg_mu, mu1))
    result = {"n": n, "degrees": list(degrees), "m": m, "mu1": mu1, "variant": variant,
              "degree_times_mu1": deg_mu, "degree": degree, "oracle": None, "oracle_match": None}
    lines = [f"deg(Sec X) * mu1 = {deg_mu}", f"deg(Sec X) = {degree}"]
    if check:
        checks = {"intersection": ref.secant_mu(n, degrees)}
        oracle = ref.classical(n, degrees)
        if oracle is not None:
            checks["classical"] = oracle
        result["oracle"] = oracle
        result["oracle_match"] = all(v == deg_mu for v in checks.values())
        lines += [f"{name} = {v}" for name, v in checks.items()]
        lines.append("OK" if result["oracle_match"] else "MISMATCH")
    warnings = []
    if 1 in degrees:
        warnings.append("degree-1 hypersurfaces make X degenerate in P^n; the count is for its linear span")
    return _out(result, "\n".join(lines), warnings)


def expect_cone(n, spec, test, k):
    if test == "nef":
        member = all(c >= 0 for c in spec.values())
        result = {"n": n, "test": test, "k": k, "member": member}
    else:
        own = ref.effectivity_vector(spec, n)
        member = all(v >= 0 for v in own.values())
        pairings = [{"symbol": ref.sym_doc(y), "value": str(Fraction(own.get(y, 0)))}
                    for y in ref.symbols_codim(n, ref.MS, k)]
        result = {"n": n, "test": test, "k": k, "member": member, "pairings": pairings}
    return _out(result, "true" if member else "false")


class Cli:
    """All nine subcommands as one-shot ``python -m hilb2.cli`` processes."""

    name = "cli"
    setup_module = "hilb2.cli"

    def __init__(self, seed: int, src: Path):
        import jsonschema
        self.rng = Random(seed)
        schema = json.loads((src / "hilb2" / "schemas" / "cli_output.schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.calls = 0
        self.errors = 0
        self.bytes_out = 0
        self.argvs: list = []

    # Each slot returns (argv, n, expected): expected is either a pair of the
    # output format and an ``expect_*`` record, or an error record
    # {"exit": code, "type": exception name or None, "format": ...}.
    def round(self, r: int) -> list:
        rng = self.rng

        def rung(slot):
            return LADDER[(r + slot) % 3]

        slots = [
            self._rank(rung(0), "text"), self._rank(rung(1), "json"),
            self._basis(rung(2), "dim", "json"), self._basis(rung(0), "codim", "text"),
            self._basis(10, "all", "json"), self._fixed_points(10, False, "text"),
            self._pair(rung(1), "json"), self._pair(rung(2), "text"),
            self._matrix(10, "json", rng.randint(0, 20)), self._matrix(10, "text", rng.randint(0, 20)),
            self._power(rung(0), "text"), self._power(rung(1), "json"),
            self._chern(rung(2), "json"), self._chern(rung(0), "text"),
            self._secant("text"), self._secant("json"),
            self._cone(rung(1) if rung(1) < 160 else 10, "nef", "json"),
            self._cone(40 if r % 2 else 10, "effective", "json"),
            # The large outputs, of similar cost and fixed size (so the largest
            # process, peak_rss_mb, does not depend on the seed): 5 calls in
            # 27 put p90 inside their cluster rather than at its edge.
            self._basis(40, "all", "json"), self._basis(40, "all", "json"),
            self._fixed_points(40, True, "text"),
            self._matrix(160, "csv", 110), self._matrix(160, "csv", 210),
        ]
        errors = self.error_cases()
        start = 4 * r % len(errors)
        for t in range(4):
            slots.append(errors[(start + t) % len(errors)](rng))
        ops = [("cli", n, self._op(argv, expected)) for argv, n, expected in slots]
        rng.shuffle(ops)
        return ops

    def _rank(self, n, fmt):
        codim = self.rng.randint(0, 2 * n)
        return ["rank", "--n", str(n), "--codim", str(codim), "--format", fmt], n, (fmt, expect_rank(n, codim))

    def _basis(self, n, kind, fmt):
        basis = self.rng.choice(("BB", "ES", "MS"))
        argv = ["basis", "--n", str(n), "--basis", basis, "--format", fmt]
        k = None
        if kind == "all":
            argv.append("--all")
        else:
            k = self.rng.randint(0, 2 * n)
            argv += [f"--{kind}", str(k)]
        return argv, n, (fmt, expect_basis(n, basis, kind, k))

    def _fixed_points(self, n, generators, fmt):
        argv = ["fixed-points", "--n", str(n), "--format", fmt] + (["--generators"] if generators else [])
        return argv, n, (fmt, expect_fixed_points(n, generators))

    def _pair(self, n, fmt):
        rng = self.rng
        dim = rng.randint(0, 2 * n)
        x = rng.choice(ref.symbols(n, rng.choice((ref.MS, ref.ES)), dim))
        partners = ref.partners(x, n)
        y = rng.choice(partners) if partners and rng.random() < 0.7 else rng.choice(
            ref.symbols(n, ref.MS, 2 * n - dim))
        diag = rng.choice((1, 1, 3))
        argv = ["--dprime-diag", str(diag), "pair", "--n", str(n), "--x", _doc_arg(x),
                "--y", _doc_arg(y), "--format", fmt]
        return argv, n, (fmt, expect_pair(n, x, y, diag))

    def _matrix(self, n, fmt, k):
        rng = self.rng
        rows = rng.choice(("ES", "MS"))
        diag = rng.choice((1, 2))
        argv = ["matrix", "--n", str(n), "--k", str(k), "--rows", rows,
                "--dprime-diag", str(diag), "--format", fmt]
        return argv, n, (fmt, expect_matrix(n, k, rows, diag))

    def _power(self, n, fmt):
        a = self.rng.randint(1, n)
        b = self.rng.randint(0, n - a)
        argv = ["power", "--n", str(n), "--k", str(a), "--c-exp", str(b), "--format", fmt]
        return argv, n, (fmt, expect_power(n, a, b))

    def _chern(self, n, fmt):
        d = self.rng.randint(1, 6)
        return ["chern", "--n", str(n), "--d", str(d), "--format", fmt], n, (fmt, expect_chern(n, d))

    def _secant(self, fmt):
        rng, n = self.rng, 10
        m = rng.choice(SECANT_POOL[n])
        degrees = [rng.choice(SECANT_DEGREES) for _ in range(n - m)]
        mu1 = rng.choice((1, 1, 2, 3))
        variant = "intro" if rng.random() < 0.2 else "proof"
        check = variant == "proof"
        argv = ["secant", "--n", str(n), "--degrees", ",".join(map(str, degrees)),
                "--mu1", str(mu1), "--variant", variant, "--format", fmt]
        if check:
            argv.append("--check-oracle")
        return argv, n, (fmt, expect_secant(n, degrees, mu1, variant, check))

    def _cone(self, n, test, fmt):
        rng = self.rng
        k = rng.randint(0, 2 * n)
        dim = k if test == "effective" else 2 * n - k
        pool = ref.symbols(n, ref.MS, dim)
        chosen = rng.sample(pool, rng.randint(1, min(len(pool), TERMS_MAX)))
        negative = rng.random() < 0.4
        spec = {s: random_coeff(rng, negative and t == 0) for t, s in enumerate(chosen)}
        doc = {"n": n, "terms": [{**ref.sym_doc(s), "coeff": str(c)} for s, c in spec.items()]}
        argv = ["cone", "--class", json.dumps(doc), "--test", test, "--k", str(k), "--format", fmt]
        return argv, n, (fmt, expect_cone(n, spec, test, k))

    def error_cases(self) -> list:
        """Malformed or out-of-range calls, each with its expected exit code."""
        def err(code, kind, fmt="json"):
            return {"exit": code, "type": kind, "format": fmt}

        def es_pair(rng):
            n = rng.choice(LADDER)
            x = (rng.choice(("A'", "B")), 0, 1 if rng.random() < 0.5 else 0)
            x = x if ref.valid(*x, n) else ("A'", 0, 1)
            y = ("A'", n - 1, n)
            return (["pair", "--n", str(n), "--x", _doc_arg(x), "--y", _doc_arg(y), "--format", "json"],
                    n, err(3, "UnsupportedFamilyPair"))

        def bad_grading(rng):
            n = rng.choice(LADDER)
            k = 2 * n + rng.randint(1, 5)
            return (["basis", "--n", str(n), "--basis", "MS", "--dim", str(k), "--format", "json"],
                    n, err(2, "InvalidGrading"))

        def bad_json(rng):
            text = rng.choice(('{"n": 3, "terms": [', "not json", '{"n": 3, "terms": [{"family": "A"'))
            return (["cone", "--class", text, "--test", "nef", "--format", "json"], 10, err(2, "ParseError"))

        def csv_elsewhere(rng):
            n = rng.choice(LADDER)
            return (["rank", "--n", str(n), "--codim", "1", "--format", "csv"], n, err(2, None, "text"))

        def bad_index(rng):
            n = rng.choice(LADDER)
            i = rng.randint(1, n)
            x, y = ("A", i, i - 1), ("A", 0, 1)
            return (["pair", "--n", str(n), "--x", _doc_arg(x), "--y", _doc_arg(y), "--format", "json"],
                    n, err(2, "InvalidIndex"))

        def pure_c_power(rng):
            n = rng.choice(LADDER)
            return (["power", "--n", str(n), "--k", "0", "--c-exp", str(rng.randint(0, n)),
                     "--format", "json"], n, err(3, "UnsupportedMonomial"))

        def secant_too_big(rng):
            n = 10
            degrees = ",".join(str(rng.randint(1, 4)) for _ in range(rng.randint(1, 5)))
            return (["secant", "--n", str(n), "--degrees", degrees, "--format", "json"],
                    n, err(2, "InvalidInput"))

        def matrix_grading(rng):
            n = rng.choice(LADDER)
            return (["matrix", "--n", str(n), "--k", str(-rng.randint(1, 5)), "--format", "json"],
                    n, err(2, "InvalidGrading"))

        def float_coeff(rng):
            doc = {"n": 10, "terms": [{"family": "A", "i": 4, "j": 6, "coeff": rng.choice((1.5, 0.25, 2.0))}]}
            return (["cone", "--class", json.dumps(doc), "--test", "effective", "--format", "json"],
                    10, err(2, "ParseError"))

        def wrong_basis(rng):
            n = rng.choice((10, 40))
            doc = {"n": n, "terms": [{"family": "A'", "i": 0, "j": n, "coeff": "1"}]}
            return (["cone", "--class", json.dumps(doc), "--test", "nef", "--format", "json"],
                    n, err(2, "WrongBasis"))

        def not_complementary(rng):
            n = rng.choice(LADDER)
            return (["pair", "--n", str(n), "--x", _doc_arg(("A", 0, 1)), "--y", _doc_arg(("A", 0, 2)),
                     "--format", "json"], n, err(2, "NotComplementary"))

        def usage(rng):
            n = rng.choice(LADDER)
            return (["rank", "--n", str(n)], n, err(2, None, "text"))

        return [es_pair, bad_grading, bad_json, csv_elsewhere, bad_index, pure_c_power,
                secant_too_big, matrix_grading, float_coeff, wrong_basis, not_complementary, usage]

    def _op(self, argv, expected):
        def run(ctx):
            sub = next(a for a in argv if a in SUBCOMMANDS)
            proc = ctx.call(f"cli.process.{sub}", subprocess.run,
                            [sys.executable, "-m", "hilb2.cli", *argv],
                            capture_output=True, text=True, env=self.env, timeout=120)
            self.calls += 1
            self.bytes_out += len(proc.stdout) + len(proc.stderr)
            self.argvs.append((sub, argv))
            if isinstance(expected, dict):
                self.errors += 1
                self._check_error(ctx, proc, expected)
            else:
                self._check_output(ctx, proc, sub, *expected)
        return run

    def _check_error(self, ctx, proc, want):
        ctx.check(proc.returncode == want["exit"], f"exit {proc.returncode}, expected {want['exit']}")
        ctx.check(proc.stdout == "", "error output went to stdout")
        if want["format"] == "json":
            envelope = self._envelope(ctx, proc.stderr)
            if envelope is not None:
                got = envelope.get("error", {}).get("type")
                ctx.check(got == want["type"], f"error type {got}, expected {want['type']}")
        else:
            ctx.check(proc.stderr.startswith(("error:", "usage:")), "no error message on stderr")

    def _envelope(self, ctx, text):
        try:
            envelope = json.loads(text)
        except json.JSONDecodeError:
            ctx.check(False, "output is not JSON")
            return None
        errors = list(self.validator.iter_errors(envelope))
        ctx.check(not errors, f"envelope fails the schema: {errors[0].message[:120]}" if errors else "")
        return envelope

    def _check_output(self, ctx, proc, sub, fmt, want):
        ctx.check(proc.returncode == 0, f"exit {proc.returncode}: {proc.stderr[:200]}")
        if fmt == "json":
            envelope = self._envelope(ctx, proc.stdout)
            expected = {"command": sub, "result": want["result"]}
            if want["warnings"]:
                expected["warnings"] = want["warnings"]
            if envelope is not None:
                ctx.check(envelope == expected, "JSON result differs from the reference")
            return
        if fmt == "csv":
            text = want["csv"]
        else:
            text = "\n".join(f"warning: {w}" for w in want["warnings"]) + "\n" + want["text"] \
                if want["warnings"] else want["text"]
        ctx.check(proc.stdout == (text + "\n" if text else ""), f"{fmt} output differs from the reference")

    def replay(self, ctx) -> None:
        """Time each call's argv in process through ``run_command``, and the
        fixed-point enumeration behind ``fixed-points``."""
        from hilb2.cli import run_command
        from hilb2.fixed_points import bb_cell_of, enumerate_fixed_points
        for sub, argv in self.argvs:
            ctx.call(f"cli.run_command.{sub}", run_command, argv)
            if sub == "fixed-points":
                n = int(argv[argv.index("--n") + 1])
                points = ctx.call("fixed_points.enumerate_fixed_points", enumerate_fixed_points, n)
                ctx.call("fixed_points.bb_cell_of", list, map(bb_cell_of, points))

    def properties(self) -> dict:
        return {
            "n_rungs": list(LADDER),
            "closed_cap": "cli secant calls use n = 10 only: the CLI's closed route has no cap",
            "error_path_share": self.errors / max(self.calls, 1),
            "bytes_out_per_call": self.bytes_out / max(self.calls, 1),
        }

    def layer_counts(self) -> dict:
        return {
            "cli.bytes_out": self.bytes_out / max(self.calls, 1),
            "cli.error_path_share": self.errors / max(self.calls, 1),
        }
