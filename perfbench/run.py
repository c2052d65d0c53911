"""Benchmark of realred: one workload, one run, one JSON line.

Usage, from the root of a realred checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass of the workload runs in a fresh ``worker.py`` process, one
after another (a closed loop with one caller).  With ``--trace 0`` the
run repeats full passes while one more is likely to end within ``S``
seconds (at least one), adds set-up-only passes until it has enough
set-up times, and reports medians: ``setup_s``, ``query_s`` (wall times
corrected for the host's speed, see ``worker.timed``), ``peak_rss_mib``
and ``success_rate``.  With ``--trace 1`` it runs one untraced and one
traced pass and reports the per-layer metrics of the traced one; the
gap between their uncorrected query times is the tracing overhead.

Every op's outcome is checked against ``expected.json``; the last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``.
``--record`` instead runs one pass and writes its outcomes into
``expected.json`` as the new expected values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
TRACE_DIR = ROOT / ".perfbench-out"
# Set-up is timed in set-up-only passes too, until there are at least
# SETUP_MIN samples and SETUP_S seconds of them (cheap set-ups get more).
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_S = 3.0
# Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
from worker import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """A pass could not run; the run reports no result."""


def run_pass(workload: str, seed: int, deadline: float, *flags: str) -> dict:
    """Runs worker.py in a fresh process and returns its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-B", str(HERE / "worker.py"), workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not end in time: {' '.join(cmd)}") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"pass failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, outcomes: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed) of one pass against expected.json.

    An op fails when it raises or when its counts differ from the
    expected ones.  The run stays correct only if every op ran, every
    count matches, and every raise is a known failure of that op with
    the same exception type.  A known failure that now passes is not
    counted as failed; it is reported on standard error.
    """
    expected = json.loads(EXPECTED.read_text())[workload]
    correct = set(outcomes) == set(expected)
    for key in sorted(set(expected) ^ set(outcomes)):
        print(f"op {'missing' if key in expected else 'unexpected'}: {key}",
              file=sys.stderr)
    failed = 0
    for key, got in outcomes.items():
        want = expected.get(key)
        if isinstance(got, dict):
            failed += 1
            if got != want:
                correct = False
                print(f"op {key} raised {got['raises']}, expected {want}", file=sys.stderr)
        elif got != want:
            if isinstance(want, dict):
                print(f"known failure passes: {key} -> {got}", file=sys.stderr)
            else:
                failed += 1
                correct = False
                print(f"op {key} counts {got}, expected {want}", file=sys.stderr)
    return correct, len(outcomes), failed


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    start = time.monotonic()
    passes = [run_pass(workload, seed, deadline)]
    # Start another pass only if one more is likely to end within the window.
    while (time.monotonic() - start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(run_pass(workload, seed, deadline))
    setups = list(passes)
    while len(setups) < SETUP_MAX and (
            len(setups) < SETUP_MIN or sum(p["setup_s"] for p in setups) < SETUP_S):
        setups.append(run_pass(workload, seed, deadline, "--setup-only"))
    print("uncorrected medians: setup_s {:.4f}, query_s {:.4f}".format(
        statistics.median(p["setup_wall_s"] for p in setups),
        statistics.median(p["query_wall_s"] for p in passes)), file=sys.stderr)
    return {"passes": passes, "metrics": {
        "setup_s": (statistics.median(p["setup_s"] for p in setups), "s"),
        "query_s": (statistics.median(p["query_s"] for p in passes), "s"),
        "peak_rss_mib": (statistics.median(p["peak_rss_mib"] for p in passes), "MiB"),
    }}


def measure_traced(workload: str, seed: int, deadline: float) -> dict:
    plain = run_pass(workload, seed, deadline)
    out = TRACE_DIR / f"spans-{workload}-{seed}.jsonl"
    traced = run_pass(workload, seed, deadline, "--trace", str(out))
    values = dict(traced["layers"])
    values["trace.query_s"] = traced["query_wall_s"]
    values["trace.overhead_s"] = traced["query_wall_s"] - plain["query_wall_s"]
    units = layers.metric_units()
    return {"passes": [plain, traced],
            "metrics": {name: (values[name], unit) for name, unit in units.items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "realred" / "__init__.py").is_file():
        print(f"no realred sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.record:
            outcomes = run_pass(args.workload, args.seed, deadline)["ops"]
            table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
            table[args.workload] = dict(sorted(outcomes.items()))
            EXPECTED.write_text(json.dumps(table, indent=1) + "\n")
            return 0
        if args.trace:
            result = measure_traced(args.workload, args.seed, deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    correct, attempted, failed = True, 0, 0
    for p in result["passes"]:
        ok, n, bad = check(args.workload, p["ops"])
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        metrics["success_rate"] = {"value": 1 - failed / attempted, "unit": "ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
