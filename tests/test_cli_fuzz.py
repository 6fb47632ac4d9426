"""Seeded fuzz test of the command line.

About 300 argument lists over all nine subcommands, with ambient dimensions
in [-1, 12], gradings and exponents outside their ranges, malformed class
and symbol documents, non-integer ``--n`` text (which the library refuses, as
it does an out-of-range ``--n``) and some usage errors (a missing required
flag).  Every run must end in exit code 0, 2 or 3
without an exception, and every ``--format json`` output must validate
against ``cli_output.schema.json``.  Secant calls list at most 8 degrees:
the closed route visits ``2^r`` subsets and has no cap of its own.
"""

import json
import random
from pathlib import Path

import jsonschema
import pytest

from hilb2 import enumerate_basis
from hilb2.cli import run_command

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "hilb2" / "schemas"
CLI_SCHEMA = json.loads((SCHEMA_DIR / "cli_output.schema.json").read_text())
VALIDATOR = jsonschema.Draft202012Validator(CLI_SCHEMA)

SEED = 20261018
CASES = 300
COMMANDS = ("rank", "basis", "fixed-points", "pair", "matrix", "power", "chern", "secant",
            "cone")
FAMILIES = ("A", "A'", "B", "B'", "C")
UNKNOWN_FAMILIES = ("D", "a", "B''", "", "AP")


def some_n(rng):
    return rng.randint(-1, 12)


def grading(rng, n):
    """A grading in ``[0, 2n]`` most of the time, else one outside it."""
    if rng.random() < 0.6:
        return rng.randint(0, max(2 * n, 0))
    return rng.choice([-1, 2 * n + 1, rng.randint(-5, 30)])


def symbol_doc(rng, n, family=None, i=None, j=None):
    """A symbol record, by default with random (maybe out of range) indices."""
    i = rng.randint(-1, max(n, 0) + 1) if i is None else i
    j = rng.randint(i, max(n, 0) + 1) if j is None else j
    return {"family": family or rng.choice(FAMILIES), "i": i, "j": j}


def ms_class_doc(rng, n, dim):
    """A class document in MS coordinates of dimension ``dim``."""
    symbols = enumerate_basis(n, "MS", dim=dim) if n >= 1 else []
    terms = []
    for sym in symbols:
        if rng.random() < 0.6:
            num, den = rng.randint(-9, 9), rng.randint(1, 4)
            coeff = str(num) if den == 1 else f"{num}/{den}"
            terms.append({**symbol_doc(rng, n, sym.family.value, sym.i, sym.j), "coeff": coeff})
    if not terms or rng.random() < 0.1:  # maybe out of range, maybe another grading
        terms.append({**symbol_doc(rng, n, rng.choice(["A", "B'", "C"])), "coeff": "1"})
    return {"n": n, "basis": "MS", "terms": terms}


def nested(rng):
    """Arrays or objects nested past the decoder's depth limit, maybe cut short."""
    depth = rng.randint(990, 3000)
    text = rng.choice(["[" * depth + "]" * depth, '{"a": ' * depth + "1" + "}" * depth])
    return text[: rng.randint(depth, len(text))]


def malformed(rng, doc):
    """Damage a document in one of the ways the parser must refuse."""
    text = json.dumps(doc)
    kind = rng.randrange(9)
    if kind == 0:  # truncated JSON
        return text[: rng.randint(0, max(len(text) - 1, 0))]
    if kind == 1:  # deep nesting
        return nested(rng)
    doc = json.loads(text)
    record = doc["terms"][0] if doc.get("terms") else doc
    if kind == 2:  # float coefficient
        record["coeff"] = rng.choice([1.5, 0.25, 2.0, -0.0])
    elif kind == 3:  # JSON integer coefficient
        record["coeff"] = rng.randint(-3, 3)
    elif kind == 4:  # unknown family
        record["family"] = rng.choice(UNKNOWN_FAMILIES)
    elif kind == 5:  # wrong types for the indices or n
        key = rng.choice(["i", "j", "n"])
        target = doc if key == "n" else record
        target[key] = rng.choice(["1", 1.0, None, [1], True])
    elif kind == 6:  # wrong container types
        doc = rng.choice([[doc], "doc", 3, None, {"n": doc.get("n"), "terms": {"a": 1}}])
    elif kind == 7:  # a coefficient outside the string grammar
        record["coeff"] = rng.choice([" 1", "1e2", "+3", "1/0", "1/-2", "", "٣"])
    else:  # missing fields
        for key in rng.sample(["n", "terms", "family", "i", "j", "coeff"], 2):
            record.pop(key, None)
            doc.pop(key, None)
    return json.dumps(doc)


def class_arg(rng, n, dim):
    doc = ms_class_doc(rng, n, dim)
    if rng.random() < 0.1:  # a family outside MS coordinates
        doc["terms"][0]["family"] = rng.choice(["A'", "B"])
    return malformed(rng, doc) if rng.random() < 0.4 else json.dumps(doc)


def symbol_args(rng, n):
    """``--x`` and ``--y``: often a symbol and a complementary partner."""
    valid = enumerate_basis(n, rng.choice(["ES", "MS"])) if n >= 1 else []
    if valid and rng.random() < 0.8:
        sym = rng.choice(valid)
        x = symbol_doc(rng, n, sym.family.value, sym.i, sym.j)
    else:
        x = symbol_doc(rng, n)
    if rng.random() < 0.6:
        family = rng.choice(["A", "B'", "C"] * 3 + ["A'", "B"])  # ES x ES is refused
        y = symbol_doc(rng, n, family, n - x["j"], n - x["i"])
    else:
        y = symbol_doc(rng, n)
    x, y = (malformed(rng, d) if rng.random() < 0.15 else json.dumps(d) for d in (x, y))
    return ["--x", x, "--y", y]


def secant_args(rng, n):
    """Mostly a valid problem (``2m + 1 < n``, at most 8 degrees), else not."""
    lo, hi = n // 2 + 1, min(n, 8)
    r = rng.randint(lo, hi) if lo <= hi and rng.random() < 0.8 else rng.randint(1, 8)
    degrees = [str(rng.choice([1, 0, -1]) if rng.random() < 0.05 else rng.randint(2, 4))
               for _ in range(r)]
    if rng.random() < 0.05:
        degrees[rng.randrange(r)] = rng.choice(["x", "", "2.5"])
    # "=" keeps a list that starts with "-1," from reading as an option
    args = ["--degrees=" + ",".join(degrees), "--mu1", str(rng.choice([1, 1, 2, 3, 0, -1])),
            "--variant", rng.choice(["proof", "intro"])]
    return args + (["--check-oracle"] if rng.random() < 0.5 else [])


def subcommand_args(rng, command):
    n = some_n(rng)
    args = ["--n", str(n)]
    if command == "rank":
        args += [rng.choice(["--codim", "--dim"]), str(grading(rng, n))]
    elif command == "basis":
        args += ["--basis", rng.choice(["BB", "ES", "MS"])]
        args += rng.choice([[], ["--all"], ["--dim", str(grading(rng, n))],
                            ["--codim", str(grading(rng, n))]])
    elif command == "fixed-points":
        args += ["--generators"] if rng.random() < 0.5 else []
    elif command == "pair":
        args += symbol_args(rng, n)
    elif command == "matrix":
        args += ["--k", str(grading(rng, n)), "--rows", rng.choice(["ES", "MS"])]
    elif command == "power":
        k = rng.randint(1, max(n, 1)) if rng.random() < 0.7 else rng.randint(-1, n + 1)
        k = 0 if rng.random() < 0.1 else k  # pure powers of C are refused
        b = rng.randint(0, max(n - k, 0)) if rng.random() < 0.7 else rng.randint(-1, n + 1)
        args += ["--k", str(k), "--c-exp", str(b)]
    elif command == "chern":
        args += ["--d", str(rng.randint(-2, 6))]
    elif command == "secant":
        args += secant_args(rng, n)
    else:  # cone
        dim, test = rng.randint(0, max(2 * n, 0)), rng.choice(["nef", "effective"])
        args = ["--class", class_arg(rng, n, dim), "--test", test]
        own_k = dim if test == "effective" else 2 * n - dim
        args += rng.choice([[], [], ["--k", str(own_k)], ["--k", str(grading(rng, n))]])
    return args


def usage_error(rng, argv):
    """Break the argument list: give the integer ``--n``, the first flag of all but
    ``cone``, text that is not an integer, or drop the first flag, which every
    subcommand requires."""
    if argv[1] == "--n" and rng.random() < 0.5:
        return argv[:2] + [rng.choice(["x", "2.5", ""])] + argv[3:]
    return argv[:1] + argv[3:]


def fuzz_cases():
    rng = random.Random(SEED)
    breaker = random.Random(SEED + 1)  # leaves the other cases as they were
    cases = []
    for case in range(CASES):
        command = COMMANDS[case % len(COMMANDS)]
        argv = [command] + subcommand_args(rng, command)
        if breaker.random() < 0.05:
            argv = usage_error(breaker, argv)
        csv_share = 0.3 if command == "matrix" else 0.03  # csv is for matrices only
        fmt = "csv" if rng.random() < csv_share else rng.choice(["text", "json", "json"])
        flags = ["--format", fmt]
        if rng.random() < 0.3:
            flags += ["--dprime-diag", str(rng.choice([1, 2, 3, 0, -1]))]
        cases.append((command, flags + argv if rng.random() < 0.5 else argv + flags))
    return cases


def test_cli_fuzz_ends_in_a_contract_exit_code():
    seen = {code: 0 for code in (0, 2, 3)}
    usage_errors = 0
    for command, argv in fuzz_cases():
        code, text = run_command(argv)  # an exception fails the test here
        assert code in seen, argv
        seen[code] += 1
        usage_errors += f"hilb2 {command}: " in text  # argparse names the subcommand
        if argv[argv.index("--format") + 1] == "json":
            doc = json.loads(text)
            errors = sorted(VALIDATOR.iter_errors(doc), key=str)
            assert not errors, (argv, errors[0].message)
            assert doc["command"] == command
            assert ("result" in doc) == (code == 0), argv
    assert all(seen.values()), seen
    assert usage_errors >= 5, usage_errors


@pytest.mark.parametrize("argv", [
    ["rank", "--n", "2", "--codim"],
    ["secant", "--n", "4"],
    ["cone", "--class", "{}", "--test", "ample"],
    ["basis", "--n", "2", "--basis", "MS", "--dim", "1", "--codim", "1"],
])
def test_usage_errors_exit_2(argv):
    code, text = run_command(argv + ["--format", "json"])
    assert code == 2, argv
    doc = json.loads(text)
    assert not list(VALIDATOR.iter_errors(doc)), doc
    assert doc["command"] == argv[0]
    assert doc["error"]["type"] == "InvalidInput"
    assert doc["error"]["message"].startswith(f"hilb2 {argv[0]}: ")
    code, text = run_command(argv)
    assert code == 2, argv
    assert text.startswith(f"error: hilb2 {argv[0]}: ")
