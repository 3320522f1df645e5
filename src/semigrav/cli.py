"""Command-line scenario runner.

    semigrav run <scenario> [--config FILE] [--seed N] [--out PATH]
                            [--format csv|json] [--trials N]
    semigrav scan <scenario> --param V|V0 --values a,b,c
                            [--config FILE] [--out PATH] [--format csv|json]

Exit codes: 0 when every scenario flag passes, 1 when any flag fails
(with one ``flag '<name>' failed`` line on stderr per failed flag), 2 for
configuration or usage errors (``--format csv`` without ``--out`` among them:
CSV writes one file per table).  The scannable scenarios and their
parameters come from the scenario registry.  ``--values`` is parsed into floats
here, and ``scan_scenario`` checks them as it does for a Python caller.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .report import emit
from .scenarios import SCANS, SCENARIO_NAMES, ScenarioConfigError, run_scenario, scan_scenario

__all__ = ["main", "build_parser"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared for the process."""
    parser = argparse.ArgumentParser(
        prog="semigrav",
        description="scenario runner for the semiclassical self-consistency laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a named scenario end to end")
    run_p.add_argument("scenario", choices=SCENARIO_NAMES)
    run_p.add_argument("--config", default=None, help="JSON config (default: packaged)")
    run_p.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_p.add_argument("--out", default=None, help="write the report here instead of stdout")
    run_p.add_argument("--format", choices=("csv", "json"), default="json")
    run_p.add_argument("--trials", type=int, default=None,
                       help="override the trial count (projection scenarios)")

    scan_p = sub.add_parser("scan", help="scaling study over a volume parameter")
    scan_p.add_argument("scenario", choices=tuple(SCANS))
    scan_p.add_argument("--param", required=True, choices=sorted(set(SCANS.values())))
    scan_p.add_argument("--values", required=True,
                        help="comma-separated increasing parameter values")
    scan_p.add_argument("--config", default=None)
    scan_p.add_argument("--out", default=None)
    scan_p.add_argument("--format", choices=("csv", "json"), default="json")
    return parser


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioConfigError(f"cannot read config file: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioConfigError(f"config is not valid JSON: {exc}") from None


def _parse_values(raw: str) -> list[float]:
    try:
        return [float(v) for v in raw.split(",")]
    except ValueError:
        raise ScenarioConfigError("field 'values': must be comma-separated numbers") from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.format == "csv" and args.out is None:
            raise ScenarioConfigError("field 'out': CSV writes one file per table, "
                                      "so --format csv needs --out")
        config = _load_config(args.config) if args.config else None
        if args.command == "run":
            report = run_scenario(args.scenario, config=config, seed=args.seed,
                                  trials=args.trials)
        else:
            report = scan_scenario(args.scenario, config, args.param,
                                   _parse_values(args.values))
        text = emit(report, args.format, args.out)
        if args.out is None:
            sys.stdout.write(text)
    except (ScenarioConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = [name for name, ok in report.flags.items() if not ok]
    for name in failed:
        print(f"flag {name!r} failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
