import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from hilb2 import enumerate_basis
from hilb2.cli import run_command

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


def test_unsupported_operations_exit_3():
    for argv in (
        ["pair", "--n", "2", "--x", '{"family":"B","i":1,"j":1}',
         "--y", '{"family":"B","i":1,"j":1}'],
        ["power", "--n", "4", "--k", "0", "--c-exp", "2"],
    ):
        code, text = run_command(argv)
        assert code == 3, argv
        assert text.startswith("error:")


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


def test_dprime_diag_is_validated_on_every_subcommand():
    # rank never pairs, yet a bad --dprime-diag is still refused
    code, doc = run_json(["rank", "--n", "3", "--codim", "1", "--dprime-diag", "0"])
    assert code == 2
    assert doc["command"] == "rank"
    assert doc["error"]["type"] == "InvalidInput"
    assert "ap_a_diagonal must be an integer >= 1" in doc["error"]["message"]


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


def test_cone_effective_builds_the_pairing_vector_once(monkeypatch):
    import hilb2.pairing as pairing

    calls = []
    vector = pairing.effectivity_pairings
    monkeypatch.setattr(pairing, "effectivity_pairings", lambda X, cfg: calls.append(X) or vector(X, cfg))
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
