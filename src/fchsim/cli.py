"""Command line surface: one subcommand per scenario, shared flags, and
exit codes 0 (all assertions pass), 1 (assertion failure), 2 (usage or
configuration error), 3 (runtime blow-up)."""

import argparse
import os
import sys

from .config import SCENARIOS, ConfigError, load_experiment_config
from .experiments import RUNNERS


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fchsim",
        description="Pseudo-spectral experiments for the filtered "
                    "momentum equations with fractional dissipation.")
    subparsers = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        sub = subparsers.add_parser(name, help=f"run the {name} scenario")
        sub.add_argument("--config", default=None,
                         help="INI configuration file")
        sub.add_argument("--out", default=None,
                         help="output directory (overrides the config)")
        sub.add_argument("--seed", type=int, default=None,
                         help="seed for randomized data "
                              "(overrides the config's [datum] seed)")
        sub.add_argument("--override", action="append", default=[],
                         metavar="SECTION.KEY=VALUE",
                         help="override one config entry (repeatable)")
    return parser


def _print_report(report, out_dir):
    for entry in report.get("assertions", ()):
        verdict = "PASS" if entry["passed"] else "FAIL"
        detail = f"  ({entry['detail']})" if entry.get("detail") else ""
        print(f"[{verdict}] {entry['name']}{detail}")
    print(f"report: {os.path.join(out_dir, 'report.json')}")


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        config = load_experiment_config(
            args.scenario, path=args.config, overrides=args.override,
            out=args.out, seed=args.seed)
        report = RUNNERS[config.scenario](config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    _print_report(report, config.output_dir)
    if report.get("blow_up"):
        return 3
    return 0 if report.get("passed") else 1


if __name__ == "__main__":
    sys.exit(main())
