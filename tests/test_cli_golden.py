"""CLI outputs replayed byte for byte against recorded goldens.

tests/golden/cli.json lists in-process ``cli.run`` invocations over
tests/data/*, covering every subcommand with positive and negative answers,
malformed inputs and incompatibility witnesses, each with the exit code,
stdout and stderr it produced.  Every one must replay exactly.  Paths in
argv are relative to the repository root, which the test makes the working
directory, so diagnostics that echo a path match on any checkout.

tests/golden/help.json holds the --help text of the top level and of
every subcommand, printed 80 columns wide by the Python version it names;
argparse lays help out differently across versions (3.10 titles the
options section "optional arguments:"), so it replays on that version only.
On every version, tests/test_cli.py checks each subcommand's help against
the parser with all subcommands.

To regenerate after an intended output change, from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py

This re-runs the argv lists already in the files and rewrites their
outputs; to add a case, append {"argv": [...]} to the file first.  Review
the diff of the file before committing it.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from torquo.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))
HELP_GOLDEN = GOLDEN.with_name("help.json")
HELP = json.loads(HELP_GOLDEN.read_text(encoding="utf-8"))
PYTHON = "%d.%d" % sys.version_info[:2]


def _replay(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i:02d}-{case['argv'][0]}" for i, case in enumerate(CASES)]
)
def test_cli_output_matches_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _replay(case["argv"]) == case


def _replay_help(argv: list[str]) -> dict:
    """_replay for a --help argv: argparse prints help to sys.stdout."""
    printed = io.StringIO()
    with redirect_stdout(printed):
        case = _replay(argv)
    return {**case, "stdout": case["stdout"] + printed.getvalue()}


@pytest.mark.skipif(PYTHON != HELP["python"], reason=f"help recorded on {HELP['python']}")
@pytest.mark.parametrize("case", HELP["cases"], ids=lambda case: "-".join(case["argv"]))
def test_help_matches_golden(case, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert _replay_help(case["argv"]) == case


def _write(path: Path, document: object) -> None:
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    os.chdir(ROOT)
    os.environ["COLUMNS"] = "80"
    _write(GOLDEN, [_replay(case["argv"]) for case in CASES])
    _write(HELP_GOLDEN, {
        "python": PYTHON, "cases": [_replay_help(case["argv"]) for case in HELP["cases"]]
    })
