"""Benchmark of torquo: seeded workloads, checked answers, two levels of metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

NAME is one of enumerate, classify, queries, cli (see workloads.py for why
each exists).  With --trace 0 the run repeats the workload's fixed unit of
work for S seconds and reports the end-to-end metrics; with --trace 1 it
runs the unit once untraced and once with span tracing and reports the
per-layer metrics.  The second-to-last stdout line holds the details
(error rate, time to first result, sample counts, machine and source
metadata); the last line is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 1 when any answer is
wrong, 2 when the checkout holds no torquo sources.  --all runs every
workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NAMES = ("enumerate", "classify", "queries", "cli")
# enough latency samples to leave at least ten above p90
MIN_SAMPLES = 100
SETUP_RUNS = 5
STARTUP_RUNS = 5
clock = time.perf_counter


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "torquo" / "__init__.py").is_file():
        print(f"error: no torquo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # children (cli commands, probes) import this checkout's torquo
    os.environ["PYTHONPATH"] = str(SRC)
    if args.all:
        return run_all(args)
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        if args.setup_probe:
            print(time.monotonic())
            return 0
        run = traced_run if args.trace else timed_run
        detail, attempted, failures, metrics = run(workload, args)
    finally:
        workload.close()
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        attempted=attempted, error_rate=len(failures) / attempted, failures=failures[:10],
        machine=machine(),
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# untraced: end-to-end metrics


def timed_run(workload, args) -> tuple[dict, int, list[str], dict]:
    walls, latencies, firsts, failures = [], [], [], []
    attempted = 0
    min_samples = 2 if args.tiny else MIN_SAMPLES
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    begin = clock()
    while True:
        workload.fresh()
        t0 = clock()
        answers, lat = workload.unit()
        walls.append(clock() - t0)
        if len(walls) == 1:
            # read before the benchmark's own records grow with the repetitions
            peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        latencies += lat
        firsts.append(lat[0])
        attempted += len(answers)
        failures += workload.check(answers)
        if clock() - begin >= args.seconds and len(latencies) >= min_samples:
            break
    setups = setup_times(args)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    detail = {
        "reps": len(walls),
        "wall_s_per_rep": walls,
        "samples": len(latencies),
        "samples_above_p90": sum(x > p90 for x in latencies),
        "first_result_s": statistics.median(firsts),
        "setup_s_runs": setups,
    }
    requests = getattr(workload, "requests", None)
    if requests:
        kinds = [req["kind"] for req in requests] * len(walls)
        by_kind: dict[str, list[float]] = {}
        for kind, x in zip(kinds, latencies):
            by_kind.setdefault(kind, []).append(x)
        detail["p50_ms_by_kind"] = {k: statistics.median(v) * 1000 for k, v in sorted(by_kind.items())}
    if hasattr(workload, "seen"):
        detail["seen_pair_share"] = workload.seen / (len(walls) * len(requests))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        # the mean over the run: a shared machine's speed can drift in
        # phases, and a median of a few repetitions lands in one phase
        "wall_s": (statistics.fmean(walls), "s"),
        "p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "p90_ms": (p90 * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return detail, attempted, failures, metrics


def setup_times(args) -> list[float]:
    """Process start to first timed operation, in fresh processes."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]) - t0)
    return times


# ---------------------------------------------------------------------------
# traced: per-layer metrics


def traced_run(workload, args) -> tuple[dict, int, list[str], dict]:
    import workloads

    failures: list[str] = []
    attempted = 0

    def once(tracer: spans.Tracer | None = None) -> float:
        """One unit; traced when a tracer is given.  Checks run untraced."""
        nonlocal attempted
        workload.fresh()
        if tracer is not None:
            tracer.install()
            workload.tracer = tracer
        try:
            t0 = clock()
            answers, _ = workload.unit()
            wall = clock() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
                workload.tracer = None
        attempted += len(answers)
        failures.extend(workload.check(answers))
        return wall

    untraced = once()
    if args.workload == "cli":
        workload.trace_dir = workloads.OUT / f"trace-cli-seed{args.seed}"
        workload.trace_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    traced = once(tracer)
    summary = spans.merge([tracer.summary(), *getattr(workload, "child_summaries", [])])
    tracer.dump(workloads.OUT / f"trace-{args.workload}-seed{args.seed}.spans")
    jobs2_speedup = 0.0
    if args.workload == "enumerate":
        # untraced jobs=1 against jobs=2 on the same inputs (2 workers, 2 cores)
        workload.jobs = 2
        jobs2_speedup = untraced / once()
        workload.jobs = 1
    import_s, interpreter_s = startup_times()
    requests = len(workload.requests) if args.workload == "cli" else 0
    metrics = layer_metrics(summary)
    metrics.update({
        "classify.enumerate_characteristic.jobs2_speedup": (jobs2_speedup, "ratio"),
        "cli.parse_problem_per_request": (
            ratio(summary["calls"].get("problemfile.parse_problem", 0), requests), "ratio"),
        "cli.import_s": (import_s, "s"),
        "cli.interpreter_s": (interpreter_s, "s"),
        "bench.untraced_wall_s": (untraced, "s"),
        "bench.traced_wall_s": (traced, "s"),
        "bench.trace_overhead": (traced / untraced, "ratio"),
    })
    detail = {"spans": len(tracer.starts), "child_processes": len(getattr(workload, "child_summaries", []))}
    return detail, attempted, failures, metrics


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict:
    """Calls, self and inclusive time per wrapped function; useful-to-attempted ratios."""
    calls, tallies = summary["calls"], summary["tallies"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, _, _ in spans.TARGETS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (summary["self_s"].get(name, 0.0), "s")
        metrics[f"{name}.total_s"] = (summary["total_s"].get(name, 0.0), "s")

    def per_call(name: str) -> float:
        return ratio(tallies.get(name, 0), calls.get(name, 0))

    metrics.update({
        "lattice.extends_to_basis.true_ratio": (per_call("lattice.extends_to_basis"), "ratio"),
        "morphism.check_compatibility.violation_ratio": (per_call("morphism.check_compatibility"), "ratio"),
        "face_complex.isomorphisms.found_per_call": (per_call("face_complex.isomorphisms"), "ratio"),
        "classify.equivalent.hit_ratio": (per_call("classify.equivalent"), "ratio"),
        "classify.weak_classes.equivalent_calls_per_function": (ratio(
            tallies.get("classify.equivalent@classify.weak_classes", 0),
            tallies.get("classify.weak_classes", 0)), "ratio"),
        "classify.enumerate_characteristic.functions_per_basis_test": (ratio(
            tallies.get("classify.enumerate_characteristic", 0),
            tallies.get("lattice.extends_to_basis@classify.enumerate_characteristic", 0)), "ratio"),
    })
    return metrics


def startup_times() -> tuple[float, float]:
    """Median `import torquo.cli` time and bare-interpreter wall time, fresh processes."""
    probe = "import time; t = time.perf_counter(); import torquo.cli; print(time.perf_counter() - t)"
    imports, bare = [], []
    for _ in range(STARTUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60, check=True)
        imports.append(float(proc.stdout))
        t0 = clock()
        subprocess.run([sys.executable, "-c", "pass"], timeout=60, check=True)
        bare.append(clock() - t0)
    return statistics.median(imports), statistics.median(bare)


# ---------------------------------------------------------------------------
# metadata and the all-workloads table


def machine() -> dict:
    files = sorted((SRC / "torquo").glob("*.py"))
    digest = hashlib.sha256()
    lines = code = 0
    for path in files:
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        for line in text.decode().splitlines():
            lines += 1
            code += bool(line.strip()) and not line.strip().startswith("#")
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "executable": sys.executable,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines,
        "src_code_lines": code,
    }


def run_all(args) -> int:
    status = 0
    rows = []
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            status = 1
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
        if len(lines) < 2:
            continue
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
        rows.append((name, "error_rate", detail["error_rate"], "ratio"))
        if "first_result_s" in detail:
            rows.append((name, "first_result_s", detail["first_result_s"], "s"))
        if "samples" in detail:
            rows.append((name, "samples", detail["samples"], "count"))
    for name, metric, value, unit in rows:
        print(f"{name:<10} {metric:<60} {value:>14.6g} {unit}")
    return status


if __name__ == "__main__":
    sys.exit(main())
