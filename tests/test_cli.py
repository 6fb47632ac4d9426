import contextlib
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import jsonschema
import pytest

from hilb2 import (BasisSymbol, Family, SecantProblem, enumerate_basis, intersection_matrix,
                   pair_symbols, secant_degree_mu_closed)
from hilb2.chow import in_range
from hilb2.cli import _HANDLERS, run_command
from hilb2.serialize import symbol_to_doc

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "src" / "hilb2" / "schemas"
CLI_SCHEMA = json.loads((SCHEMA_DIR / "cli_output.schema.json").read_text())


def run_json(argv):
    code, text = run_command(list(argv) + ["--format", "json"])
    doc = json.loads(text)
    jsonschema.validate(doc, CLI_SCHEMA)
    return code, doc


def test_rank_example():
    code, text = run_command(["rank", "--n", "2", "--codim", "2"])
    assert (code, text) == (0, "3")


def test_rank_by_dimension():
    code, text = run_command(["rank", "--n", "3", "--dim", "3"])
    assert (code, text) == (0, "4")


def test_pair_example():
    code, text = run_command(
        ["pair", "--n", "2", "--x", '{"family":"B\'","i":1,"j":1}',
         "--y", '{"family":"B\'","i":1,"j":1}']
    )
    assert (code, text) == (0, "2")


def test_secant_check_oracle_example():
    code, text = run_command(["secant", "--n", "4", "--degrees", "2,2,2", "--check-oracle"])
    assert code == 0
    assert "16" in text
    assert text.splitlines()[-1] == "OK"


def test_secant_intro_variant_mismatch_is_reported():
    code, text = run_command(
        ["secant", "--n", "4", "--degrees", "2,2,2", "--variant", "intro", "--check-oracle"]
    )
    assert code == 0
    assert text.splitlines()[-1] == "MISMATCH"


@pytest.mark.parametrize("n, degrees, mu1", [(4, (2, 2, 2), 1), (5, (2, 3, 2, 2), 3),
                                           (7, (2, 3, 2, 2, 3), 2), (3, (2, 3, 2), 2)])
def test_secant_intro_is_the_closed_sum_shifted_right_by_m(n, degrees, mu1):
    p = SecantProblem(n, degrees)
    shifted = secant_degree_mu_closed(p) >> p.m
    code, doc = run_json(["secant", "--n", str(n), "--degrees", ",".join(map(str, degrees)),
                          "--mu1", str(mu1), "--variant", "intro"])
    assert code == 0
    result = doc["result"]
    assert (result["variant"], result["degree_times_mu1"]) == ("intro", shifted)
    assert result["degree"] == str(Fraction(shifted, mu1))


@pytest.mark.parametrize("value, message", [
    ("0", "secant order mu1 must be an integer >= 1, got 0"),
    ("True", "secant order mu1 must be an integer >= 1, got 'True'"),
    ("x", "secant order mu1 must be an integer >= 1, got 'x'"),
], ids=["0", "True", "x"])
def test_secant_mu1_is_checked_by_the_cli(value, message):
    # The secant order is checked after the problem, its 2m+1 < n domain included,
    # whether or not its text is an integer.
    def run(n, degrees):
        return run_command(["secant", "--n", n, "--degrees", degrees, "--mu1", value])

    assert run("4", "2,2,2") == (2, f"error: {message}")
    assert run("3", "2,2") == (2, "error: need 2m+1 < n for the secant degree; got m=1, n=3")
    assert run("4", "2,0,2") == (2, "error: hypersurface degree must be an integer >= 1, got 0")


# Each integer flag, with "{}" for its value, in a call that is valid with an integer there.
INTEGER_FLAGS = {
    "rank --n": ["rank", "--n", "{}", "--codim", "1"],
    "rank --codim": ["rank", "--n", "3", "--codim", "{}"],
    "rank --dim": ["rank", "--n", "3", "--dim", "{}"],
    "basis --n": ["basis", "--n", "{}", "--basis", "MS"],
    "basis --codim": ["basis", "--n", "3", "--basis", "MS", "--codim", "{}"],
    "basis --dim": ["basis", "--n", "3", "--basis", "MS", "--dim", "{}"],
    "fixed-points --n": ["fixed-points", "--n", "{}"],
    "pair --n": ["pair", "--n", "{}", "--x", '{"family":"A","i":0,"j":1}',
                 "--y", '{"family":"A","i":0,"j":1}'],
    "matrix --n": ["matrix", "--n", "{}", "--k", "1"],
    "matrix --k": ["matrix", "--n", "2", "--k", "{}"],
    "power --n": ["power", "--n", "{}", "--k", "1"],
    "power --k": ["power", "--n", "4", "--k", "{}"],
    "power --c-exp": ["power", "--n", "4", "--k", "1", "--c-exp", "{}"],
    "chern --n": ["chern", "--n", "{}", "--d", "2"],
    "chern --d": ["chern", "--n", "3", "--d", "{}"],
    "secant --n": ["secant", "--n", "{}", "--degrees", "2,x"],
    "secant --degrees": ["secant", "--n", "4", "--degrees", "2,{},2"],
    "secant --mu1": ["secant", "--n", "4", "--degrees", "2,2,2", "--mu1", "{}"],
    "cone --k": ["cone", "--class", '{"n":2,"terms":[]}', "--test", "nef", "--k", "{}"],
    "--dprime-diag": ["rank", "--n", "3", "--codim", "1", "--dprime-diag", "{}"],
}


@pytest.mark.parametrize("text", ["x", "2.5", "", "True"])
@pytest.mark.parametrize("flag", INTEGER_FLAGS)
def test_a_malformed_integer_flag_is_refused_as_an_out_of_range_one(flag, text):
    # The library call that checks the argument refuses the text: the error type and
    # message of -1 in that slot, with the text in place of -1.
    def error(value):
        code, doc = run_json([arg.replace("{}", value) for arg in INTEGER_FLAGS[flag]])
        assert code == 2
        return doc["error"]

    if flag != "secant --n":  # its degrees hold an "x" of their own
        assert run_command([arg.replace("{}", "1") for arg in INTEGER_FLAGS[flag]])[0] == 0
    refused = error("-1")
    assert refused["message"].count("-1") == 1
    assert error(text) == {**refused, "message": refused["message"].replace("-1", repr(text))}


@pytest.mark.parametrize("argv, error", [
    (["rank", "--n", "x", "--codim", "1"],
     ("InvalidInput", "ambient dimension must be an integer >= 1, got 'x'")),
    (["basis", "--n", "3", "--basis", "MS", "--dim", "x"],
     ("InvalidGrading", "grading 'x' outside [0, 6]")),
    (["power", "--n", "4", "--k", "1", "--c-exp", "y"],
     ("InvalidInput", "exponent b must be an integer >= 0, got 'y'")),
    (["pair", "--n", "x", "--x", '{"family":"A","i":0,"j":1}', "--y", '{"family":"C","i":1,"j":2}'],
     ("InvalidIndex", "ambient dimension must be an integer >= 1, got 'x'")),
    (["secant", "--n", "3", "--degrees", "2,x"],
     ("InvalidInput", "hypersurface degree must be an integer >= 1, got 'x'")),
])
def test_a_malformed_integer_flag_gets_the_library_message(argv, error):
    code, doc = run_json(argv)
    assert (code, doc["error"]) == (2, dict(zip(("type", "message"), error)))
    assert run_command(argv) == (2, f"error: {error[1]}")


def test_secant_degree_one_warning():
    code, text = run_command(["secant", "--n", "4", "--degrees", "2,2,1"])
    assert code == 0
    assert text.startswith("warning:")


def test_validation_errors_exit_2():
    for argv in (
        ["rank", "--n", "2", "--codim", "9"],
        ["secant", "--n", "3", "--degrees", "2,2"],
        ["pair", "--n", "2", "--x", '{"family":"C","i":0,"j":1}',
         "--y", '{"family":"C","i":1,"j":1}'],
        ["cone", "--class", "not json", "--test", "nef"],
        ["power", "--n", "4", "--k", "-1"],
    ):
        code, text = run_command(argv)
        assert code == 2, argv
        assert text.startswith("error:")


@pytest.mark.parametrize("dim", ["7", "-2"])
def test_rank_reports_the_dimension_as_typed(dim):
    argv = ["rank", "--n", "3", "--dim", dim]
    assert run_command(argv) == (2, f"error: dimension {dim} outside [0, 6]")
    code, doc = run_json(argv)
    assert code == 2
    assert doc["error"] == {"type": "InvalidGrading", "message": f"dimension {dim} outside [0, 6]"}


def test_unsupported_operations_exit_3():
    for argv in (
        ["pair", "--n", "2", "--x", '{"family":"B","i":1,"j":1}',
         "--y", '{"family":"B","i":1,"j":1}'],
        ["power", "--n", "4", "--k", "0", "--c-exp", "2"],
    ):
        code, text = run_command(argv)
        assert code == 3, argv
        assert text.startswith("error:")


@pytest.mark.parametrize("n", [2, 3, 5])
def test_pair_refuses_a_second_factor_without_a_rule_before_its_grading(n):
    # B_{0,0} . A'_{n-1,n}: the codimensions do not add up to 2n, but the
    # A' second factor is what is refused.
    argv = ["pair", "--n", str(n), "--x", '{"family":"B","i":0,"j":0}',
            "--y", f'{{"family":"A\'","i":{n - 1},"j":{n}}}']
    code, doc = run_json(argv)
    assert code == 3
    assert doc["error"] == {"type": "UnsupportedFamilyPair",
                            "message": "no intersection rule for B . A'"}


def test_pair_reports_non_complementary_codimensions():
    argv = ["pair", "--n", "2", "--x", '{"family":"A","i":0,"j":1}',
            "--y", '{"family":"A","i":0,"j":2}']
    assert run_command(argv) == (2, "error: codim 3 + codim 2 != 4")
    code, doc = run_json(argv)
    assert code == 2
    assert doc["error"] == {"type": "NotComplementary", "message": "codim 3 + codim 2 != 4"}


def test_bad_flags_exit_2():
    code, _ = run_command(["rank", "--n", "2"])
    assert code == 2
    code, _ = run_command(["nosuchcommand"])
    assert code == 2


def test_help_exits_zero():
    for argv in (["--help"], ["-h"], ["rank", "--help"], ["--format", "json", "rank", "-h"]):
        code, text = run_command(argv)
        assert code == 0
        assert text.startswith("usage: hilb2"), argv


def test_calls_share_one_parser_and_leave_no_state_in_it():
    from hilb2 import cli

    # help, a subcommand's help, a mutually exclusive group left unset, a usage error
    probes = (["--help"], ["rank", "--help"], ["rank", "--n", "2"],
              ["basis", "--n", "2", "--bogus"], ["--format", "json", "rank", "--n", "2", "--dim"])
    fresh = []
    for argv in probes:
        cli._build_parser.cache_clear()
        fresh.append(run_command(argv))
    cli._build_parser.cache_clear()
    run_command(["pair", "--n", "3", "--x", '{"family":"A","i":0,"j":1}',
                 "--y", '{"family":"A","i":2,"j":3}'])
    run_command(["basis", "--n", "2", "--basis", "MS", "--all"])
    assert [run_command(argv) for argv in probes] == fresh
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1 + len(probes))


def test_json_outputs_validate_against_schema():
    invocations = [
        ["rank", "--n", "2", "--codim", "2"],
        ["basis", "--n", "3", "--basis", "MS", "--dim", "3"],
        ["fixed-points", "--n", "2", "--generators"],
        ["pair", "--n", "2", "--x", '{"family":"B\'","i":1,"j":1}',
         "--y", '{"family":"B\'","i":1,"j":1}'],
        ["matrix", "--n", "2", "--k", "2"],
        ["matrix", "--n", "3", "--k", "3", "--rows", "MS"],
        ["power", "--n", "4", "--k", "2", "--c-exp", "1"],
        ["chern", "--n", "3", "--d", "2"],
        ["secant", "--n", "4", "--degrees", "2,2,3", "--check-oracle"],
        ["secant", "--n", "4", "--degrees", "2,1,2"],  # warning included
        ["cone", "--class", '{"n":2,"terms":[{"family":"B\'","i":1,"j":1,"coeff":"2"},'
         '{"family":"C","i":1,"j":1,"coeff":"-4"}]}', "--test", "effective"],
        ["cone", "--class", '{"n":2,"terms":[{"family":"A","i":0,"j":2,"coeff":"-1"}]}',
         "--test", "nef"],
    ]
    for argv in invocations:
        code, doc = run_json(argv)
        assert code == 0, argv
        assert "result" in doc


def test_json_error_envelope_validates():
    code, text = run_command(["rank", "--n", "2", "--codim", "9", "--format", "json"])
    assert code == 2
    doc = json.loads(text)
    jsonschema.validate(doc, CLI_SCHEMA)
    assert doc["error"]["type"] == "InvalidGrading"


def test_matrix_csv_golden():
    code, text = run_command(["matrix", "--n", "2", "--k", "2", "--format", "csv"])
    assert code == 0
    assert text.splitlines() == [
        ',"A_{0,2}","C_{1,1}","B\'_{1,1}"',
        '"A\'_{0,2}",1,0,0',
        '"B_{1,1}",0,2,0',
        '"C_{1,1}",0,0,1',
    ]


def test_csv_limited_to_matrix():
    code, text = run_command(["rank", "--n", "2", "--codim", "2", "--format", "csv"])
    assert code == 2


def test_csv_is_refused_before_the_handler_runs(monkeypatch):
    refusal = (2, "error: csv format is available for the matrix command only")
    # a call that is also bad for its handler (a pure C power, exit 3) exits 2 for csv
    assert run_command(["power", "--n", "4", "--k", "0"])[0] == 3
    assert run_command(["power", "--n", "4", "--k", "0", "--format", "csv"]) == refusal

    def must_not_run(args):
        raise AssertionError("the handler ran")

    monkeypatch.setitem(_HANDLERS, "basis", must_not_run)
    assert run_command(["basis", "--n", "800", "--basis", "MS", "--all", "--format", "csv"]) == refusal


def test_matrix_headers_match_enumeration():
    # MS x MS matrices carry the canonical enumeration on both sides
    code, doc = run_json(["matrix", "--n", "3", "--k", "2", "--rows", "MS"])
    rows = [(s["family"], s["i"], s["j"]) for s in doc["result"]["row_symbols"]]
    cols = [(s["family"], s["i"], s["j"]) for s in doc["result"]["col_symbols"]]
    assert rows == [(s.family.value, s.i, s.j) for s in enumerate_basis(3, "MS", dim=2)]
    assert cols == [(s.family.value, s.i, s.j) for s in enumerate_basis(3, "MS", codim=2)]
    # ES x MS columns are the complementary reordering of the enumeration
    code, doc = run_json(["matrix", "--n", "3", "--k", "2"])
    cols = [(s["family"], s["i"], s["j"]) for s in doc["result"]["col_symbols"]]
    canonical = [(s.family.value, s.i, s.j) for s in enumerate_basis(3, "MS", codim=2)]
    assert sorted(cols) == sorted(canonical)


def test_matrix_has_no_cols_option():
    # MS is the only column basis, so the schema's one "cols" value is written, not read
    code, doc = run_json(["matrix", "--n", "2", "--k", "2", "--cols", "MS"])
    assert code == 2
    assert doc["error"] == {"type": "InvalidInput",
                            "message": "hilb2: unrecognized arguments: --cols MS"}
    assert run_json(["matrix", "--n", "2", "--k", "2"])[1]["result"]["cols"] == "MS"
    code, text = run_command(["matrix", "--help"])
    assert code == 0 and "--rows" in text and "--cols" not in text


def test_dprime_diag_flag():
    code, text = run_command(
        ["pair", "--n", "2", "--x", '{"family":"A\'","i":0,"j":2}',
         "--y", '{"family":"A","i":0,"j":2}', "--dprime-diag", "9"]
    )
    assert (code, text) == (0, "9")
    # flag may also precede the subcommand
    code, text = run_command(
        ["--dprime-diag", "9", "pair", "--n", "2",
         "--x", '{"family":"A\'","i":0,"j":2}', "--y", '{"family":"A","i":0,"j":2}']
    )
    assert (code, text) == (0, "9")


def test_dprime_diag_scales_exactly_the_a_prime_values():
    # The library states A'.A = 1; --dprime-diag d is a CLI-only foil, like --variant
    # intro: pair and matrix give d times the library's value where the first factor
    # is an A' symbol, and the library's value everywhere else.
    pairs = 0
    for n in range(1, 7):
        for k in range(2 * n + 1):
            M = intersection_matrix(n, k)
            for d in (1, 2, 3):
                code, text = run_command(["--dprime-diag", str(d), "matrix", "--n", str(n),
                                          "--k", str(k), "--rows", "ES", "--format", "csv"])
                want = [[str(x)] + [str(v * (d if x.family is Family.AP else 1)) for v in row]
                        for x, row in zip(M.row_symbols, M.entries)]
                assert (code, list(csv.reader(text.splitlines()))[1:]) == (0, want), (n, k, d)
        for x in enumerate_basis(n, "ES") + enumerate_basis(n, "MS"):
            k, l = n - x.j, n - x.i  # y: an MS symbol at x's complementary indices
            y = next(BasisSymbol(f, k, l, n) for f in (Family.A, Family.BP, Family.C)
                     if in_range(f, k, l, n))
            d = 1 + pairs % 3  # each d in turn
            code, text = run_command(["--dprime-diag", str(d), "pair", "--n", str(n),
                                      "--x", json.dumps(symbol_to_doc(x)),
                                      "--y", json.dumps(symbol_to_doc(y))])
            want = pair_symbols(x, y) * (d if x.family is Family.AP else 1)
            assert (code, text) == (0, str(want)), (x, y, d)
            pairs += 1
    assert pairs == 336


def test_dprime_diag_is_validated_on_every_subcommand():
    # rank never pairs, yet a bad --dprime-diag is still refused
    code, doc = run_json(["rank", "--n", "3", "--codim", "1", "--dprime-diag", "0"])
    assert code == 2
    assert doc["command"] == "rank"
    assert doc["error"]["type"] == "InvalidInput"
    assert "ap_a_diagonal must be an integer >= 1" in doc["error"]["message"]


# One valid call of each subcommand: only --dprime-diag can make it fail.
VALID = {
    "rank": ["rank", "--n", "3", "--codim", "1"],
    "basis": ["basis", "--n", "3", "--basis", "MS", "--dim", "3"],
    "fixed-points": ["fixed-points", "--n", "2"],
    "pair": ["pair", "--n", "2", "--x", '{"family":"A\'","i":0,"j":2}',
             "--y", '{"family":"A","i":0,"j":2}'],
    "matrix": ["matrix", "--n", "2", "--k", "2"],
    "power": ["power", "--n", "4", "--k", "2"],
    "chern": ["chern", "--n", "3", "--d", "2"],
    "secant": ["secant", "--n", "4", "--degrees", "2,2,2"],
    "cone": ["cone", "--test", "nef", "--class", '{"n":2,"terms":[]}'],
}


@pytest.mark.parametrize("value, shown", [("0", "0"), ("x", "'x'")])
@pytest.mark.parametrize("command", VALID)
def test_bad_dprime_diag_exits_2_on_every_subcommand(command, value, shown):
    assert sorted(VALID) == sorted(_HANDLERS)
    argv = VALID[command]
    assert run_command(argv)[0] == 0
    message = f"ap_a_diagonal must be an integer >= 1, got {shown}"
    assert run_command([*argv, "--dprime-diag", value]) == (2, f"error: {message}")
    code, doc = run_json([*argv, "--dprime-diag", value])
    assert (code, doc) == (2, {"command": command,
                               "error": {"type": "InvalidInput", "message": message}})


def test_dprime_diag_is_checked_before_the_subcommand_runs():
    assert run_command(["rank", "--n", "0", "--codim", "0", "--dprime-diag", "0"]) == (
        2, "error: ap_a_diagonal must be an integer >= 1, got 0")


def test_basis_text_output():
    code, text = run_command(["basis", "--n", "3", "--basis", "MS", "--dim", "3"])
    assert (code, text) == (0, "A_{0,3} A_{1,2} B'_{1,2} C_{1,2}")


def test_cone_text_output():
    code, text = run_command(
        ["cone", "--class", '{"n":2,"terms":[{"family":"A","i":0,"j":2,"coeff":"-1"}]}',
         "--test", "effective"]
    )
    assert (code, text) == (0, "false")


def test_deeply_nested_class_document_is_a_parse_error():
    # json.loads raises RecursionError past the interpreter's depth limit
    for text in ("[" * 1000, "[" * 1000 + "]" * 1000, '{"n": 2, "terms": ' + "[" * 5000 + "}"):
        code, doc = run_json(["cone", "--class", text, "--test", "nef"])
        assert code == 2
        assert doc["error"]["type"] == "ParseError"
        assert "nested too deeply" in doc["error"]["message"]
        code, out = run_command(["cone", "--class", text, "--test", "nef"])
        assert (code, out) == (2, "error: invalid JSON: nested too deeply to decode")


def test_deeply_nested_symbol_document_is_a_parse_error():
    nested = '{"a": ' * 1500 + "1" + "}" * 1500
    for argv in (
        ["pair", "--n", "2", "--x", nested, "--y", '{"family":"A","i":0,"j":1}'],
        ["pair", "--n", "2", "--x", '{"family":"A","i":0,"j":1}', "--y", nested],
    ):
        code, doc = run_json(argv)
        assert code == 2
        assert doc["error"]["type"] == "ParseError"
        assert "nested too deeply" in doc["error"]["message"]


RANK_ARGS = ["rank", "--n", "3", "--codim", "1"]


@pytest.mark.parametrize("argv", [
    ["--format", "json", *RANK_ARGS],
    [*RANK_ARGS, "--format", "json"],
    ["--format=json", *RANK_ARGS],
    [*RANK_ARGS, "--format=json"],
    ["rank", "--format", "json", "--n", "3", "--codim", "1"],
    ["--dprime-diag", "2", "rank", "--n", "3", "--format=json", "--codim", "1"],
])
def test_global_flags_anywhere(argv):
    code, text = run_command(argv)
    assert code == 0
    assert json.loads(text) == {"command": "rank",
                                "result": {"n": 3, "codim": 1, "dim": 5, "rank": 2}}


def test_dprime_diag_after_subcommand_option_values():
    pair = ["pair", "--n", "2", "--x", '{"family":"A\'","i":0,"j":2}',
            "--y", '{"family":"A","i":0,"j":2}']
    assert run_command([*pair[:4], "--dprime-diag=9", *pair[4:]]) == (0, "9")


def test_chern_twist_is_not_read_as_dprime_diag():
    code, doc = run_json(["chern", "--n", "3", "--d", "2"])
    assert code == 0
    assert doc["result"]["d"] == 2
    code, doc = run_json(["chern", "--n", "3", "--d", "2", "--dprime-diag", "5"])
    assert code == 0
    assert doc["result"]["d"] == 2


@pytest.mark.parametrize("argv", [
    [*RANK_ARGS, "--form", "json"],
    ["--form", "json", *RANK_ARGS],
    [*RANK_ARGS, "--dprime", "2"],
])
def test_abbreviated_global_flag_is_a_usage_error(argv):
    code, text = run_command(argv)
    assert code == 2
    assert text.startswith("error: hilb2: ")


def test_subcommand_options_keep_prefix_matching():
    assert run_command(["rank", "--n", "3", "--co", "1"]) == (0, "2")
    assert run_command(["basis", "--n", "2", "--bas", "MS", "--di", "1"]) == (0, "A_{0,1} B'_{0,1}")


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["--dprime-diag", "2"]])
def test_usage_error_without_a_subcommand_names_none(argv):
    code, doc = run_json(argv)
    assert code == 2
    assert doc == {"command": None, "error": {"type": "InvalidInput", "message": doc["error"]["message"]}}
    assert doc["error"]["message"].startswith("hilb2: ")


@pytest.mark.parametrize("argv", [
    [*RANK_ARGS, "--dprime-diag", "x", "--format", "json"],
    ["--format", "json", *RANK_ARGS, "--dprime-diag", "x"],
])
def test_non_integer_dprime_diag_is_refused_in_the_requested_format(argv):
    code, text = run_command(argv)
    assert code == 2
    assert json.loads(text) == {"command": "rank", "error": {
        "type": "InvalidInput", "message": "ap_a_diagonal must be an integer >= 1, got 'x'"}}
    assert run_command(RANK_ARGS + ["--dprime-diag", "x"]) == (
        2, "error: ap_a_diagonal must be an integer >= 1, got 'x'")


def test_bad_format_value_is_a_usage_error():
    code, text = run_command([*RANK_ARGS, "--format", "xml"])
    assert code == 2
    assert text.startswith("error: hilb2: argument --format: invalid choice: 'xml'")


def test_subcommand_help_omits_global_flags():
    top = run_command(["--help"])[1]
    assert "--format" in top and "--dprime-diag" in top
    sub = run_command(["rank", "--help"])[1]
    assert "--codim" in sub
    assert "--format" not in sub and "--dprime-diag" not in sub


def test_secant_runs_the_closed_route_once(monkeypatch):
    import hilb2.chern_secant as cs

    calls = []
    closed = cs.secant_degree_mu_closed
    monkeypatch.setattr(cs, "secant_degree_mu_closed", lambda p: calls.append(p) or closed(p))
    code, text = run_command(["secant", "--n", "4", "--degrees", "2,2,2", "--mu1", "2"])
    assert (code, text) == (0, "deg(Sec X) * mu1 = 16\ndeg(Sec X) = 8")
    assert len(calls) == 1


def test_matrix_renders_each_entry_once(monkeypatch):
    # The text, csv and json renderings share one string per entry.
    calls = []
    render = Fraction.__str__
    monkeypatch.setattr(Fraction, "__str__", lambda v: calls.append(v) or render(v))
    code, out = run_json(["matrix", "--n", "3", "--k", "3", "--rows", "MS"])
    assert code == 0 and len(out["result"]["entries"]) == 4  # chow_rank(3, 3)
    assert len(calls) == 4 * 4


def test_cone_effective_builds_the_pairing_vector_once(monkeypatch):
    import hilb2.pairing as pairing

    calls = []
    vector = pairing.effectivity_pairings
    monkeypatch.setattr(pairing, "effectivity_pairings", lambda X: calls.append(X) or vector(X))
    doc = '{"n":2,"terms":[{"family":"A","i":0,"j":2,"coeff":"1"},{"family":"C","i":1,"j":1,"coeff":"-1"}]}'
    code, out = run_json(["cone", "--class", doc, "--test", "effective"])
    assert code == 0 and len(calls) == 1
    assert out["result"]["member"] is False
    assert [p["value"] for p in out["result"]["pairings"]] == ["1", "-1", "0"]
    # The checks of is_effective still come first, with their messages.
    ap = '{"n":2,"terms":[{"family":"A\'","i":0,"j":2,"coeff":"1"}]}'
    assert run_command(["cone", "--class", ap, "--test", "effective"]) == (
        2, "error: is_effective expects MS coordinates; found families [\"A'\"]")
    assert run_command(["cone", "--class", doc, "--test", "effective", "--k", "1"]) == (
        2, "error: class has dimension 2, not 1")


def test_closed_stdout_ends_without_a_traceback():
    """``hilb2 ... | head -1``: the reader leaves after one line of about 600 KB."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "hilb2.cli", "fixed-points", "--n", "40", "--generators"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"I_{0,1} -> A_{0,1}")
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    assert b"Traceback" not in stderr and stderr == b""


def run_hilb2(*argv):
    """``python -m hilb2.cli`` in a fresh process: exit code, stdout and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-m", "hilb2.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@contextlib.contextmanager
def int_text_limit(digits):
    """``digits`` as the cap on int <-> str conversion in this process until the end;
    0 is no cap, as in ``hilb2``'s."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(digits)
    try:
        yield
    finally:
        set_limit(limit)


NINES = "9" * 4300  # the most digits that Python converts by default


def test_a_secant_answer_over_the_digit_limit_is_printed():
    degrees = (int("9" * 3000), 2, 2)
    code, out, err = run_hilb2("secant", "--n", "4", "--degrees", ",".join(map(str, degrees)))
    with int_text_limit(0):
        want = str(secant_degree_mu_closed(SecantProblem(4, degrees)))
    assert len(want) > len(NINES)
    assert (code, out, err) == (0, f"deg(Sec X) * mu1 = {want}\ndeg(Sec X) = {want}\n", "")


def test_a_rank_over_the_digit_limit_is_printed_as_json():
    code, out, err = run_hilb2("rank", "--n", NINES, "--dim", "0", "--format", "json")
    assert (code, err) == (0, "")
    with int_text_limit(0):
        n = int(NINES)
        assert json.loads(out) == {"command": "rank",
                                   "result": {"n": n, "codim": 2 * n, "dim": 0, "rank": 1}}


def test_an_error_message_over_the_digit_limit_is_printed():
    code, out, err = run_hilb2("matrix", "--n", NINES, "--k", "-1")
    with int_text_limit(0):
        assert (code, out, err) == (2, "", f"error: grading -1 outside [0, {2 * int(NINES)}]\n")
    i = "9" * 5000
    code, out, err = run_hilb2("pair", "--n", "2", "--x", f'{{"family":"A","i":{i},"j":1}}',
                               "--y", '{"family":"A","i":0,"j":1}')
    assert (code, out) == (2, "")
    assert err == (f"error: A_{{{i},1}} is not a valid class on P^2[2]: "
                   "family requires 0 <= i < j <= n\n")


def test_run_command_echoes_no_text_over_the_digit_limit():
    # Under Python's default cap, an integer flag over it reaches the library as text, and
    # the message cuts that text to its first characters and its length.
    with int_text_limit(getattr(sys.int_info, "default_max_str_digits", 0)):
        code, text = run_command(["rank", "--n", "9" * 5000, "--dim", "0"])
    assert code == 2
    assert len(text) < 200
    if getattr(sys.int_info, "default_max_str_digits", 0):
        assert text == ("error: ambient dimension must be an integer >= 1, got "
                        "'99999999999999999999'... (5000 characters)")


def test_the_hilb2_process_reads_coefficients_over_the_digit_limit():
    coeff = "7" * (len(NINES) + 1)
    doc = json.dumps({"n": 2, "terms": [{"family": "C", "i": 1, "j": 1, "coeff": coeff}]})
    assert run_hilb2("cone", "--class", doc, "--test", "nef") == (0, "true\n", "")
    if getattr(sys, "get_int_max_str_digits", lambda: 0)():  # run_command keeps the limit
        assert run_command(["cone", "--class", doc, "--test", "nef"])[0] == 2
