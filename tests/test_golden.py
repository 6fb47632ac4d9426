"""Replay the recorded CLI corpus and require byte-identical results.

``golden/cli_corpus.json`` holds one ``{"argv", "code", "text"}`` record per
``hilb2`` invocation: every subcommand, the text/json/csv formats,
``--dprime-diag``, ``--variant intro`` and the exit-2 and exit-3 paths.  The
CLI output is a contract: a change that alters a record says so and
re-records it deliberately, by replacing that record's ``code`` and ``text``
with what ``run_command(argv)`` returns.  No record depends on the terminal
width: usage errors print one ``error:`` line, not argparse's wrapped usage
text.  The file keeps one record per line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hilb2.cli import _HANDLERS, run_command

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads((ROOT / "tests" / "golden" / "cli_corpus.json").read_text())


def _entry_point_cases():
    """The first record of each subcommand, then the first exit-2 and exit-3 records."""
    picks = [next(c for c in CORPUS if sub in c["argv"]) for sub in _HANDLERS]
    picks += [next(c for c in CORPUS if c["code"] == code) for code in (2, 3)]
    return picks


@pytest.mark.parametrize(
    "case", CORPUS, ids=[f"{k:02d}-{' '.join(c['argv'][:1]) or 'none'}" for k, c in enumerate(CORPUS)]
)
def test_cli_output_matches_corpus(case):
    assert run_command(case["argv"]) == (case["code"], case["text"])


@pytest.mark.parametrize(
    "case", _entry_point_cases(), ids=lambda c: f"{CORPUS.index(c):02d}-{c['argv'][0]}"
)
def test_entry_point_writes_what_run_command_returns(case):
    """``python -m hilb2.cli`` in a fresh process: the same exit code, and the
    same bytes (plus a newline) on stdout, or on stderr for a failure."""
    code, text = run_command(case["argv"])
    assert (code, text) == (case["code"], case["text"])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "hilb2.cli", *case["argv"]], env=env,
                          capture_output=True, timeout=60)
    printed = (text + "\n").encode() if text else b""
    assert proc.returncode == code
    assert (proc.stdout, proc.stderr) == ((b"", printed) if code else (printed, b""))
