"""Self-test of the benchmark: its checkers catch wrong answers, and a
tiny-input run emits every metric named in BENCHMARK.json.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import torquo as T  # noqa: E402

import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def answers_of(workload):
    workload.fresh()
    answers, latencies = workload.unit()
    assert latencies and min(latencies) >= 0
    assert workload.check(answers) == []
    return answers


def wrong_query(req: dict, answer):
    kind = req["kind"]
    if kind.startswith("point"):
        return not answer
    if kind.startswith("compat"):
        return "violation" if answer is None else None
    if kind == "coherence":
        image = answer[1]
        shifted = T.TorusPoint(tuple(c + Fraction(1, 3) for c in image.t.coords))
        return None, T.ModelPoint(shifted, image.face, image.tag)
    if kind.startswith("eq"):
        pairs, witness = answer
        if witness is None:
            m = pairs[0].complex.m
            identity = T.UnimodularMatrix(T.IntMatrix.identity(pairs[0].n).rows)
            return pairs, T.EquivalenceWitness(tuple(range(m)), identity, (1,) * m)
        return pairs, T.EquivalenceWitness(witness.facet_map, witness.torus_map, (-witness.signs[0],) + witness.signs[1:])
    return T.Face((0,)) if answer is None else None


def test_enumerate_checker_counts_wrong_answers():
    workload = W.Enumerate(1, tiny=True)
    answers = answers_of(workload)
    assert len(workload.check([answers[0][:-1], answers[1]])) == 1
    assert len(workload.check([list(reversed(answers[0])), answers[1][1:]])) == 2


def test_classify_checker_counts_wrong_answers():
    workload = W.Classify(1, tiny=True)
    (classes,) = answers_of(workload)
    moved = [list(c) for c in classes]
    moved[1].append(moved[0].pop())
    assert len(workload.check([moved])) == 1
    assert len(workload.check([classes[:-1]])) == 1


def test_queries_checker_counts_every_wrong_answer():
    workload = W.Queries(2, tiny=True)
    answers = answers_of(workload)
    assert {req["kind"] for req in workload.requests} == set(W.QUERY_COUNTS)
    wrong = [wrong_query(req, a) for req, a in zip(workload.requests, answers)]
    assert len(workload.check(wrong)) == len(answers)


def test_cli_checker_counts_every_wrong_answer():
    workload = W.Cli(3, tiny=True)
    try:
        answers = answers_of(workload)
    finally:
        workload.close()
    assert {req["kind"] for req in workload.requests} == set(W.CLI_COUNTS)
    flipped = [({0: 2, 2: 0, 1: 0}[code], out, err) for code, out, err in answers]
    assert len(workload.check(flipped)) == len(answers)
    garbled = [(code, "{}", err) for code, out, err in answers]
    assert len(workload.check(garbled)) == len(answers)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["enumerate", "classify", "queries", "cli"])
def test_tiny_run_emits_every_metric(workload: str, trace: str):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    *_, detail_line, result_line = proc.stdout.splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)["detail"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert detail["error_rate"] == 0
    assert {"nproc", "python", "executable", "commit", "src_lines"} <= set(detail["machine"])
    if trace == "0":
        assert detail["first_result_s"] > 0 and detail["samples"] >= 2


def test_refuses_to_run_without_sources(tmp_path: Path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "enumerate", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
