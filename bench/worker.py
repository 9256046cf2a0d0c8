"""One workload round, or one set-up probe, in a fresh interpreter.

    python3 bench/worker.py setup WORKLOAD
    python3 bench/worker.py round WORKLOAD SEED TRACE RESULT_JSON WORK_DIR

`setup` imports diskspdc, loads the workload's configs and prints "ready";
bench/run.py times it from process start.  `round` runs the workload's
commands through `diskspdc.cli.main`, times them, checks their outputs and
writes a JSON record to RESULT_JSON.  Run from the root of the repository.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

DEVICE_CFG = "configs/replication.cfg"
REPLAY_CFG = "bench/replay.cfg"


def commands(workload: str, seed: int, work_dir: str) -> list[list[str]]:
    seed_args = ["--seed", str(seed)]
    if workload == "replay":
        events = os.path.join(work_dir, "replay.ttps")
        return [["run", "-c", DEVICE_CFG, *seed_args],
                ["simulate", "-c", REPLAY_CFG, "--events", events,
                 *seed_args],
                ["coinc", "-c", REPLAY_CFG, "--events", events, *seed_args]]
    return [[workload, *seed_args]]


def load_configs(workload: str):
    from diskspdc.config import default_config, load_config
    if workload == "replay":
        return load_config(DEVICE_CFG), load_config(REPLAY_CFG)
    return (default_config(),)


def _cpu_and_peak():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(own.ru_maxrss, kids.ru_maxrss) / 1024.0


def run_checks(workload, configs, argvs, statuses, texts, work_dir):
    import checks
    report = checks.Report()
    # No command is expected to fail, so a failure is a wrong result, and
    # the outputs of a session with a failed command are not checked.
    for argv, status in zip(argvs, statuses):
        report.expect(f"{workload}.{argv[0]}_exit_status", status == 0,
                      f"exit status {status}")
    if not all(status == 0 for status in statuses):
        return report.results
    try:
        if workload == "replay":
            checks.check_replay(report, configs[0], configs[1], texts,
                                os.path.join(work_dir, "replay.ttps"))
        else:
            check = getattr(checks, f"check_{workload}")
            check(report, configs[0], texts[0])
    except Exception as exc:  # output the checks cannot read is wrong
        report.expect(f"{workload}.readable_output", False,
                      f"{type(exc).__name__}: {exc}")
    return report.results


def run_round(workload, seed, trace, result_path, work_dir):
    import diskspdc.cli
    here = os.path.realpath(diskspdc.__file__)
    if not here.startswith(os.path.realpath(os.path.join(ROOT, "src"))):
        raise SystemExit(f"imported diskspdc from {here}, not from {ROOT}")
    missing = []
    if trace:
        import spans
        spans_dir = os.path.join(work_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        missing = spans.install(spans_dir)

    texts, statuses = [], []
    argvs = commands(workload, seed, work_dir)
    cpu0, _ = _cpu_and_peak()
    t0 = time.perf_counter()
    for argv in argvs:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                status = diskspdc.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed operation, not a lost run
            traceback.print_exc()
            status = 1
        statuses.append(status)
        texts.append(out.getvalue())
    wall = time.perf_counter() - t0
    cpu1, peak_mb = _cpu_and_peak()

    failed = sum(status != 0 for status in statuses)
    record = {"attempted": len(argvs), "failed": failed, "wall_s": wall,
              "cpu_s": cpu1 - cpu0, "peak_rss_mb": peak_mb}
    record["checks"] = run_checks(workload, load_configs(workload),
                                  argvs, statuses, texts, work_dir)
    if trace:
        record["layers"] = spans.layer_metrics(spans.collect(), missing)
        record["missing"] = missing
    with open(result_path, "w") as fh:
        json.dump(record, fh)


def main(argv):
    os.chdir(ROOT)
    if argv[0] == "setup":
        import diskspdc.cli  # noqa: F401  (the import is what is timed)
        load_configs(argv[1])
        print("ready", flush=True)
        return 0
    if argv[0] == "round":
        workload, seed, trace, result_path, work_dir = argv[1:6]
        run_round(workload, int(seed), trace == "1", result_path, work_dir)
        return 0
    raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
