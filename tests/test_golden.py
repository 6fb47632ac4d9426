"""Replay the recorded CLI corpus and require byte-identical results.

``golden/cli_corpus.json`` holds one ``{"argv", "code", "text"}`` record per
``hilb2`` invocation: every subcommand, the text/json/csv formats,
``--dprime-diag``, ``--variant intro`` and the exit-2 and exit-3 paths.  The
CLI output is a contract: a change that alters a record says so and
re-records it deliberately, by replacing that record's ``code`` and ``text``
with what ``run_command(argv)`` returns under ``COLUMNS=80`` (argparse wraps
its usage lines to the terminal width).  The file keeps one record per line.
"""

import json
from pathlib import Path

import pytest

from hilb2.cli import run_command

CORPUS = json.loads((Path(__file__).resolve().parent / "golden" / "cli_corpus.json").read_text())


@pytest.mark.parametrize(
    "case", CORPUS, ids=[f"{k:02d}-{' '.join(c['argv'][:1]) or 'none'}" for k, c in enumerate(CORPUS)]
)
def test_cli_output_matches_corpus(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage text to the terminal width
    assert run_command(case["argv"]) == (case["code"], case["text"])
