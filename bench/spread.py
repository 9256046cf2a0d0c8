"""Run the benchmark over several seeds and summarise the spread.

    python3 bench/spread.py

For every workload in BENCHMARK.json, runs bench/run.py once per seed in
SEEDS (untraced), then TRACED more runs with tracing on, at the first
seeds.  Prints, per end-to-end metric, the
median, the quartiles (statistics.quantiles, n=4), the quartile spread as a
share of the median next to BENCHMARK.json's bound, and the share of failed
operations; for traced runs, the per-layer medians and the tracing overhead
(traced wall_s minus untraced wall_s).  Writes everything to
bench/results/spread-<UTC time>.json.  This regenerates the reference
figures in bench/README.md.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SEEDS = (12345, 1, 2, 3, 4, 5, 6, 7, 8, 9)  # the config's default seed first
TRACED = 2


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: no result "
                         f"(exit {proc.returncode})\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        failing = [ln for ln in lines if ": FAIL" in ln]
        print(f"{workload} seed {seed}: INCORRECT {failing}", flush=True)
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"nproc": os.cpu_count(), "seconds": seconds,
              "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run_once(workload, s, seconds, 0) for s in SEEDS]
        entry = {
            "correct": all(r["correct"] for r in results),
            "failed_share": sorted({r["failed"] / r["attempted"]
                                    for r in results}),
            "metrics": {name: summarise([r["metrics"][name]["value"]
                                         for r in results])
                        for name in bounds},
        }
        print(f"\n{workload}: correct={entry['correct']} "
              f"failed share={entry['failed_share']}")
        for name, s in entry["metrics"].items():
            flag = "ok" if s["spread"] <= bounds[name] / 3 else "WIDE"
            print(f"  {name:12s} median {s['median']:10.4f}  "
                  f"q1 {s['q1']:10.4f}  q3 {s['q3']:10.4f}  "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}) {flag}")
        traced = [run_once(workload, s, seconds, 1)
                  for s in SEEDS[:TRACED]]
        layers = {name: statistics.median(r["metrics"][name]["value"]
                                          for r in traced)
                  for name in traced[0]["metrics"]}
        overhead = layers["trace.wall_s"] \
            - entry["metrics"]["wall_s"]["median"]
        entry["layers"] = layers
        entry["trace_overhead_s"] = overhead
        print(f"  tracing overhead {overhead:+.3f} s over "
              f"{len(traced)} traced runs")
        for name, value in layers.items():
            print(f"    {name:32s} {value:.6g}")
        report["workloads"][workload] = entry

    out_dir = os.path.join(BENCH, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, time.strftime("spread-%Y%m%dT%H%M%SZ.json",
                                               time.gmtime()))
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
