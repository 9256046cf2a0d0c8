"""Benchmark of the diskspdc command line, end to end and per layer.

    python3 bench/run.py --workload {g2,franson,sweep,replay}
                         --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs building.  Each
round of the workload runs in a fresh interpreter (bench/worker.py), so
memory and CPU figures belong to that round alone.  Rounds repeat until
--seconds have passed, at least one (two for franson).  --seed is
passed to every command as `--seed N`.

--trace 0 measures set-up (two fresh interpreters, one before and one
after the rounds, median) and the rounds, and prints setup_s, wall_s,
cpu_s and peak_rss_mb.  --trace 1 wraps the package's public functions
(bench/spans.py) and prints the per-layer metrics instead.  Either way
every output is checked (bench/checks.py) and the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("g2", "franson", "sweep", "replay")
SETUP_PROBES = 1  # before the rounds, and as many again after them
# A run must end within 180 s, so --seconds is honoured only up to this
# deadline, and a run whose first round is not done by then prints no
# result rather than a figure.
DEADLINE_S = 170.0
# franson's round is the shortest of the four and its time swings most
# from round to round (10 to 14 s on the reference machine), so its runs
# take the median of at least two rounds.
MIN_ROUNDS = {"franson": 2}
REQUIRED = ("src/diskspdc/cli.py", "configs/replication.cfg")


class BenchError(RuntimeError):
    """A run that cannot produce a result."""


def _reap(proc, timeout):
    """Wait for a worker; on timeout kill its whole process group."""
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")


def setup_seconds(workload, deadline):
    """Interpreter start through diskspdc import and config load."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER, "setup", workload],
                            cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    _reap(proc, deadline - time.monotonic())
    if line.strip() != "ready":
        raise BenchError("set-up probe did not report ready")
    return elapsed


def run_round(workload, seed, trace, deadline):
    work_dir = tempfile.mkdtemp(prefix="round-", dir=os.path.join(BENCH,
                                                                   "work"))
    try:
        result = os.path.join(work_dir, "result.json")
        proc = subprocess.Popen(
            [sys.executable, WORKER, "round", workload, str(seed),
             str(int(trace)), result, work_dir],
            cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
        _reap(proc, deadline - time.monotonic())
        with open(result) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S

    def probes():
        return [] if trace else [setup_seconds(workload, deadline)
                                 for _ in range(SETUP_PROBES)]

    # Set-up is probed on both sides of the rounds, so its median spans
    # the run rather than one moment of a machine whose speed drifts.
    setup = probes()
    rounds, longest = [], 0.0
    start = time.monotonic()
    # A further round starts only if one as long as the longest so far,
    # and the set-up probes after it, still end before the deadline.
    min_rounds = MIN_ROUNDS.get(workload, 1)
    while not rounds or ((len(rounds) < min_rounds
                          or time.monotonic() - start < seconds)
                         and time.monotonic() + 1.5 * longest < deadline):
        began = time.monotonic()
        rounds.append(run_round(workload, seed, trace, deadline))
        longest = max(longest, time.monotonic() - began)
    setup += probes()

    def median(key):
        return statistics.median(r[key] for r in rounds)

    if trace:
        metrics = {name: {"value": statistics.median(
                       r["layers"][name]["value"] for r in rounds),
                       "unit": entry["unit"]}
                   for name, entry in rounds[0]["layers"].items()}
        metrics["trace.wall_s"] = {"value": median("wall_s"), "unit": "s"}
        for prefix in rounds[0]["missing"]:
            print(f"missing layer {prefix}: function not found, its "
                  "metrics are left out", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": median("wall_s"), "unit": "s"},
            "cpu_s": {"value": median("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb"), "unit": "MB"},
        }
    checks = [c for r in rounds for c in r["checks"]]
    return {
        "correct": bool(checks) and all(c["ok"] for c in checks),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }, checks, len(rounds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    absent = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if absent:
        print(f"bench: not a diskspdc checkout, missing {', '.join(absent)}",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BENCH, "work"), exist_ok=True)
    try:
        result, checks, n_rounds = measure(args.workload, args.seed,
                                           args.seconds, args.trace)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    for c in checks:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAIL'} "
              f"({c['detail']})")
    print(f"rounds: {n_rounds}, attempted: {result['attempted']}, "
          f"failed: {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
