"""Command-line entry point: run a config of benchmark experiments and
write the comparison table.

Exit codes: 0 when every run reached the objective target, 2 when some
run stopped on its horizon, budget or a step underflow instead, 1 on
configuration, usage or I/O errors, 130 when interrupted (Ctrl-C), with
no table written.
"""

import argparse
import os
import sys

from .experiments import compare_methods, load_experiment, output_paths, run_label
from .flow import STOP_J_REACHED


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qoc",
        description="Gradient-flow synthesis of quantum gate controls.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the experiments in a config file")
    run.add_argument("config", help="path to the experiment config")
    run.add_argument("--out", default="results.csv", metavar="PATH",
                     help="CSV output path (default: results.csv)")
    run.add_argument("--json", default=None, metavar="PATH",
                     help="also write the rows as JSON to PATH (default: none)")
    run.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="run up to N experiments in parallel processes")
    run.add_argument("--scan-cap", type=float, default=0.0, metavar="S",
                     help="lift every horizon below S to S (default: 0, none lifted)")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0  # argparse printed its usage; bad flags exit 1
    try:
        specs = load_experiment(args.config)
        for path in output_paths(args.out, args.json):
            if path.exists() and path.samefile(args.config):
                raise ValueError(f"{path}: would overwrite the config file")
        records = compare_methods(specs, args.out, json_path=args.json,
                                  parallel=args.parallel, scan_cap=args.scan_cap)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # the table is written only once every run is done
        print("interrupted", file=sys.stderr)
        return 130
    try:
        for r in records:
            print(f"{run_label(r)}: S={r.s_reported:g} J={r.final_j:.3e} ({r.stop_reason})")
        print(f"wrote {args.out}", flush=True)
    except OSError as exc:  # the table stays as written; devnull takes the exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: stdout: {exc}", file=sys.stderr)
        return 1
    return 0 if all(r.stop_reason == STOP_J_REACHED for r in records) else 2


if __name__ == "__main__":
    sys.exit(main())
