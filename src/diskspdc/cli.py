"""Command-line interface.

One subcommand per experiment; every command accepts --config, --seed,
--out, and --format.  Tables go to stdout (or --out) in a deterministic
CSV or JSON form; summary lines are prefixed with '#' and go to stdout
ahead of a CSV table, to stderr beside a JSON one, so that JSON stdout is
one document.  Exit codes: 0 success, 2 configuration problems, 3 runtime
failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .config import (EXPERIMENTS, ConfigError, config_reference,
                     default_config, load_config)
from .franson import FitError
from .resonator import CalibrationError
from .tables import emit_table
from . import pipeline


# experiment name -> (subcommand help, run(cfg, parsed args) returning
# (columns, rows, summary))
_EXPERIMENTS = {
    "modes": ("list calibrated resonance combs",
              lambda cfg, a: pipeline.run_modes(cfg, family_id=a.family)),
    "match": ("list energy-matched triples",
              lambda cfg, a: pipeline.run_match(cfg)),
    "trace": ("conversion amplitude around the disk for one triple",
              lambda cfg, a: pipeline.run_trace(cfg, delta_m=a.delta_m,
                                                n_turns=a.turns)),
    "scan": ("matched triples across the filter band with strengths",
             lambda cfg, a: pipeline.scan_table(cfg)),
    "simulate": ("generate a timestamp stream and write it to a file",
                 lambda cfg, a: pipeline.run_simulate(
                     cfg, a.events, duration_s=a.duration)),
    "coinc": ("two-fold coincidence metrics of an event stream",
              lambda cfg, a: pipeline.run_coinc(cfg, events_path=a.events,
                                                duration_s=a.duration)),
    "g2": ("heralded second-order correlation of the peak channel",
           lambda cfg, a: pipeline.run_g2(cfg)),
    "franson": ("time-bin fringe scan and visibility fits",
                lambda cfg, a: pipeline.run_franson(cfg)),
    "spectrum": ("per-channel coincidence spectrum",
                 lambda cfg, a: pipeline.run_spectrum(cfg)),
    "sweep": ("pair rate and CAR against pump power",
              lambda cfg, a: pipeline.run_power_sweep(cfg)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskspdc",
        description="Simulate photon-pair generation in a birefringent "
                    "lithium-niobate microdisk: resonance combs, "
                    "natural phase matching, and coincidence statistics.",
        epilog=config_reference(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", metavar="PATH",
                       help="config file; defaults apply when omitted")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("-o", "--out", metavar="PATH",
                       help="write the result table to a file")
        p.add_argument("-f", "--format", choices=("csv", "json"),
                       default="csv", help="table format (default csv)")
        return p

    add("run", "run the experiment named by the config's experiment key")
    parsers = {name: add(name, _EXPERIMENTS[name][0])
               for name in EXPERIMENTS}
    parsers["modes"].add_argument("--family",
                                  help="restrict to one family id")
    p = parsers["trace"]
    p.add_argument("--delta-m", type=int, default=None,
                   help="mode-number mismatch of the triple to trace "
                        "(default: the strongest matched triple)")
    p.add_argument("--turns", type=int, default=None,
                   help="propagation turns (default: matching.n_turns)")
    p = parsers["simulate"]
    p.add_argument("--events", metavar="PATH", default="events.ttps",
                   help="output event file, CSV text when PATH ends in "
                        ".csv, binary otherwise (default events.ttps)")
    p.add_argument("--duration", type=float, default=None, metavar="S",
                   help="stream duration in seconds "
                        "(default: sweep.duration_s)")
    p = parsers["coinc"]
    p.add_argument("--events", metavar="PATH", default=None,
                   help="event file to analyse, read as CSV text when "
                        "PATH ends in .csv (default: simulate one)")
    p.add_argument("--duration", type=float, default=None, metavar="S",
                   help="stream duration in seconds: of the simulated "
                        "stream (default: sweep.duration_s), or the "
                        "acquisition time of the --events file (default: "
                        "its last timestamp + 1 ps)")
    return parser


def _load(args) -> "pipeline.RunConfig":
    cfg = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise ConfigError("--seed must be an unsigned 64-bit integer")
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        options = args
        if args.command == "run":
            if cfg.experiment is None:
                raise ConfigError("run needs the config to set experiment")
            # the named experiment runs with its own default options
            options = parser.parse_args([cfg.experiment])
        _, run = _EXPERIMENTS[options.command]
        columns, rows, summary = run(cfg, options)
        text = emit_table(columns, rows, path=args.out, fmt=args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CalibrationError, FitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    notes = sys.stderr if args.format == "json" else sys.stdout
    for line in summary:
        print(f"# {line}", file=notes)
    if args.out:
        print(f"# wrote {args.out}", file=notes)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
