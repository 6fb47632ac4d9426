"""Benchmark of the hilb2 calculator.

    python3 bench/run.py --workload secant|classes|cli|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.  One
client issues ops in a closed loop (the next op starts when the previous one
has finished; no threads) for ``--seconds``, in whole rounds of the workload
(see ``workloads.py``).  Every op's output is checked against ``reference.py``,
which shares no code with ``src/``.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
hold the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  A traced run also writes its spans to ``bench/out/``.
``--workload all`` runs each workload in its own interpreter and merges them.
See ``bench/README.md`` for the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SPAWNS = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

SUBCOMMANDS = ("rank", "basis", "fixed-points", "pair", "matrix", "power", "chern", "secant", "cone")
# Per-layer timings: metric name -> span name; the value is mean ms per call.
CALL_METRICS = {
    "chern_secant.closed_ms": "chern_secant.closed",
    "chern_secant.intersection_ms": "chern_secant.intersection",
    "chern_secant.oracle_ms": "chern_secant.oracle",
    "products.eval_monomial_ms": "products.eval_monomial",
    "pairing.pair_classes_ms": "pairing.pair_classes",
    "serialize.parse_class_ms": "serialize.parse_class",
    "serialize.emit_class_ms": "serialize.emit_class",
    "pairing.is_effective_ms": "pairing.is_effective",
    "pairing.effectivity_pairings_ms": "pairing.effectivity_pairings",
    "pairing.is_nef_ms": "pairing.is_nef",
    "pairing.intersection_matrix_ms": "pairing.intersection_matrix",
    "products.mul_bprime_top_ms": "products.mul_bprime_top",
    "products.mul_c_top_ms": "products.mul_c_top",
    "products.bprime_top_power_ms": "products.bprime_top_power",
    "chow.add_ms": "chow.add",
    "chow.enumerate_basis_ms": "chow.enumerate_basis",
    "fixed_points.enumerate_fixed_points_ms": "fixed_points.enumerate_fixed_points",
    **{f"cli.run_command_ms.{sub}": f"cli.run_command.{sub}" for sub in SUBCOMMANDS},
}
# Self time per module (span time minus its child spans), in ms per op;
# "bench" is the benchmark's own checks around the calls.
MODULES = ("chow", "pairing", "products", "chern_secant", "serialize", "fixed_points", "cli", "bench")
COUNTS = {  # metric -> unit; filled by the workload that does the work, else 0
    "chern_secant.closed_subsets": "count",
    "chern_secant.weight_reuse_ratio": "ratio",
    "chern_secant.closed_cap_r": "count",
    "products.eval_monomial_calls": "count",
    "products.terms_out": "count",
    "serialize.terms": "count",
    "pairing.generators_tested": "count",
    "pairing.nonzero_ratio": "ratio",
    "cli.bytes_out": "B",
    "cli.error_path_share": "ratio",
}
RUNGS = (10, 40, 160)
PER_LAYER = {
    **{name: "ms" for name in CALL_METRICS},
    **{f"{module}.self_ms": "ms" for module in MODULES},
    **COUNTS,
    "cli.interpreter_ms": "ms",
    "cli.import_ms": "ms",
    **{f"rung.{n}.op_ms_p50": "ms" for n in RUNGS},
    "trace.ops_per_s": "1/s",
    "trace.untraced_ops_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
}


class Op:
    __slots__ = ("id", "kind", "n", "busy", "errors", "span", "start")

    def __init__(self, op_id, kind, n):
        self.id, self.kind, self.n = op_id, kind, n
        self.busy = 0.0
        self.errors: list[str] = []


class Context:
    """Times each program call of the current op; with tracing on, also keeps
    one span per call: (name, start, end, parent span index, op id)."""

    def __init__(self, trace: bool):
        self.spans: list | None = [] if trace else None
        self.op: Op | None = None

    def begin(self, op_id, kind, n) -> Op:
        self.op = op = Op(op_id, kind, n)
        if self.spans is not None:
            op.span = len(self.spans)
            self.spans.append(None)
        op.start = time.perf_counter()
        return op

    def end(self) -> None:
        op = self.op
        if self.spans is not None:
            self.spans[op.span] = (f"op.{op.kind}", op.start, time.perf_counter(), None, op.id)

    def call(self, name, fn, *args, **kwargs):
        op = self.op
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            op.busy += t1 - t0
            if self.spans is not None:
                self.spans.append((name, t0, t1, op.span, op.id))

    def check(self, ok, message) -> None:
        if not ok:
            self.op.errors.append(message)


def run_op(ctx, op_id, kind, n, body) -> Op:
    op = ctx.begin(op_id, kind, n)
    try:
        body(ctx)
    except Exception as exc:  # an op that raises is a failed op; the run goes on
        op.errors.append(f"{type(exc).__name__}: {exc}")
    ctx.end()
    return op


def closed_loop(workload, ctx, seconds, setup) -> tuple[list, int]:
    """Whole rounds, one op after another, until ``seconds`` have passed.
    Between rounds, ``setup`` takes its samples, spread over the run."""
    ops: list[Op] = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        setup.sample_due((time.perf_counter() - start) / seconds)
        for kind, n, body in workload.round(rounds):
            ops.append(run_op(ctx, len(ops), kind, n, body))
        rounds += 1
    return ops, rounds


class Setup:
    """Time from spawning a fresh interpreter to its first line of code and
    to having imported ``module``; sampled ``SETUP_SPAWNS`` times spread over
    the run, so one slow moment of a shared machine does not set the median."""

    CODE = ("import time; t0 = time.clock_gettime(time.CLOCK_MONOTONIC); "
            "import {}; print(repr(t0), repr(time.clock_gettime(time.CLOCK_MONOTONIC)))")

    def __init__(self, module: str, env):
        self.code = self.CODE.format(module)
        self.env = env
        self.start: list[float] = []
        self.imported: list[float] = []

    def sample(self) -> None:
        t = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run([sys.executable, "-c", self.code], env=self.env,
                             capture_output=True, text=True, check=True, timeout=60)
        t0, t1 = map(float, out.stdout.split())
        self.start.append(t0 - t)
        self.imported.append(t1 - t)

    def sample_due(self, fraction: float) -> None:
        if len(self.start) < SETUP_SPAWNS and fraction * SETUP_SPAWNS >= len(self.start):
            self.sample()

    def metrics(self) -> dict:
        while len(self.start) < SETUP_SPAWNS:
            self.sample()
        return {
            "setup_s": statistics.median(self.imported),
            "cli.interpreter_ms": statistics.median(self.start) * 1000,
            "cli.import_ms": statistics.median(b - a for a, b in zip(self.start, self.imported)) * 1000,
        }


def latency_metrics(ops) -> dict:
    lat = [op.busy for op in ops]
    out = {
        "ops_per_s": len(lat) / sum(lat),
        "op_ms_p50": statistics.median(lat) * 1000,
        "op_ms_p90": statistics.quantiles(lat, n=10)[8] * 1000 if len(lat) > 1 else lat[0] * 1000,
    }
    for n in RUNGS:
        rung = [op.busy for op in ops if op.n == n]
        out[f"rung.{n}.op_ms_p50"] = statistics.median(rung) * 1000 if rung else 0.0
    return out


def layer_metrics(spans, n_ops) -> dict:
    """Mean ms per call of each traced function, and self time per module per op."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    total: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    self_time: dict = defaultdict(float)
    for idx, (name, t0, t1, parent, _) in enumerate(spans):
        total[name] += t1 - t0
        calls[name] += 1
        module = "bench" if name.startswith("op.") else name.split(".")[0]
        self_time[module] += t1 - t0 - child[idx]
    out = {metric: 1000 * total[span] / calls[span] if calls[span] else 0.0
           for metric, span in CALL_METRICS.items()}
    out.update({f"{m}.self_ms": 1000 * self_time[m] / n_ops for m in MODULES})
    return out


def environment(seed: int, cap: str) -> dict:
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_sha": git_sha(),
        "seed": seed,
        "cap": cap,
    }


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def child_run(args, workload: str, trace: int) -> tuple[list[str], dict]:
    """Run one workload in a fresh interpreter; its output lines and result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} run failed with exit code {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_workload(args) -> dict:
    import workloads

    workload = {"secant": workloads.Secant, "classes": workloads.Classes,
                "cli": workloads.Cli}[args.workload](args.seed, SRC)
    untraced = child_run(args, args.workload, 0)[1] if args.trace else None
    setup = Setup(workload.setup_module, dict(os.environ, PYTHONPATH=str(SRC)))
    ctx = Context(trace=bool(args.trace))
    ops, rounds = closed_loop(workload, ctx, args.seconds, setup)
    setup = setup.metrics()
    props = workload.properties()
    failed = [op for op in ops if op.errors]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(environment(args.seed, props["closed_cap"])))
    print("inputs " + json.dumps(props))
    print(f"ops {len(ops)} attempted in {rounds} rounds, {len(failed)} failed, "
          f"ops_failed_ratio {len(failed) / len(ops)}")
    for op in failed[:50]:
        print(f"FAILED op {op.id} {op.kind} n={op.n}: {'; '.join(op.errors)}")

    lat = latency_metrics(ops)
    if args.trace:
        replay = getattr(workload, "replay", None)
        if replay is not None:
            op = run_op(ctx, "replay", "replay", None, replay)
            failed += [op] if op.errors else []
            for message in op.errors:
                print(f"FAILED replay: {message}")
        metrics = {name: 0.0 for name in PER_LAYER}
        metrics.update(layer_metrics(ctx.spans, len(ops)))
        metrics.update(workload.layer_counts())
        metrics.update({k: setup[k] for k in ("cli.interpreter_ms", "cli.import_ms")})
        metrics.update({k: v for k, v in lat.items() if k.startswith("rung.")})
        base = untraced["metrics"]["ops_per_s"]["value"]
        metrics["trace.ops_per_s"] = lat["ops_per_s"]
        metrics["trace.untraced_ops_per_s"] = base
        metrics["trace.overhead_ratio"] = base / lat["ops_per_s"]
        units = PER_LAYER
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as fh:
            for span in ctx.spans:
                fh.write(json.dumps(span) + "\n")
        print(f"spans {len(ctx.spans)} written to {path.relative_to(ROOT)}")
    else:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": setup["setup_s"],
            **{k: lat[k] for k in ("ops_per_s", "op_ms_p50", "op_ms_p90")},
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
        }
        units = END_TO_END
        beyond = len(ops) // 10
        if beyond < 10:
            print(f"note: only {beyond} samples lie beyond p90; use more --seconds")

    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    correct = not failed and (untraced is None or untraced["correct"])
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args) -> dict:
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("secant", "classes", "cli"):
        lines, result = child_run(args, workload, args.trace)
        print("\n".join(lines))
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("secant", "classes", "cli", "all"), default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hilb2" / "__init__.py").is_file():
        print(f"error: no hilb2 sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
