"""CLI outputs replayed byte for byte against recorded goldens.

tests/golden/cli.json lists in-process ``cli.run`` invocations over
tests/data/*, covering every subcommand with positive and negative answers,
malformed inputs and incompatibility witnesses, each with the exit code,
stdout and stderr it produced.  Every one must replay exactly.  Paths in
argv are relative to the repository root, which the test makes the working
directory, so diagnostics that echo a path match on any checkout.

To regenerate after an intended output change, from the repository root:

    PYTHONPATH=src python tests/test_cli_golden.py

This re-runs the argv lists already in the file and rewrites their
outputs; to add a case, append {"argv": [...]} to the file first.  Review
the diff of the file before committing it.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import pytest

from torquo.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))


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


if __name__ == "__main__":
    os.chdir(ROOT)
    cases = [_replay(case["argv"]) for case in CASES]
    GOLDEN.write_text(json.dumps(cases, indent=1, sort_keys=True) + "\n", encoding="utf-8")
