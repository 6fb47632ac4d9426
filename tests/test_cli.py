import json
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
    code, text = run_command(["--help"])
    assert code == 0
    assert "hilb2" in text


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
