"""Command-line entry point.

Subcommands: ``simulate`` (generate a log from a model), ``discover`` (mine
synchronization constraints from model + log), ``check`` (replayability of a
log over a, typically annotated, model) and ``report`` (render a discovery
report as markdown). Exit codes: 0 success, 1 check failure, 2 I/O error,
3 validation error.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional

from .errors import DsyncError
from .eventlog import load_log, save_log
from .extract import ExtractionParams, discover_run
from .modelfile import load_model
from .report import build_report, render_markdown, report_to_json, text_summary
from .simulate import SimConfig, simulate
from .replay import replay
from .tree import TreeParams

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2
EXIT_VALIDATION = 3


def read_config(path: Optional[str]) -> dict[str, str]:
    """Key=value config file; '#' starts a comment. Flags override values."""
    if not path:
        return {}
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DsyncError(f"config line {raw.strip()!r} is not key = value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip().strip('"')
    return values


def _merged(args: argparse.Namespace, key: str, cast, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    config = getattr(args, "_config", {})
    if key in config:
        try:
            return cast(config[key])
        except ValueError:
            message = f"config value {key} = {config[key]!r} is not {cast.__name__}"
            raise DsyncError(message) from None
    return default


def _tree_params(args: argparse.Namespace) -> TreeParams:
    return TreeParams(
        max_depth=_merged(args, "max_depth", int, 5),
        min_samples_leaf=_merged(args, "min_samples_leaf", int, 5),
    )


def _extraction_params(args: argparse.Namespace) -> ExtractionParams:
    return ExtractionParams(
        tau_s=_merged(args, "tau_s", int, 10),
        tau_g=_merged(args, "tau_g", float, 0.1),
    )


def cmd_simulate(args: argparse.Namespace) -> int:
    net = load_model(args.model)
    cfg = SimConfig(
        seed=_merged(args, "seed", int, 1),
        max_cases=_merged(args, "max_cases", int, 0),
        horizon=_merged(args, "horizon", float, 0.0),
    )
    log_data = simulate(net, cfg)
    save_log(log_data, args.out)
    print(f"wrote {len(log_data.events)} events to {args.out}")
    return EXIT_OK


def cmd_discover(args: argparse.Namespace) -> int:
    net = load_model(args.model)
    log_data = load_log(args.log)
    run = discover_run(log_data, net, _tree_params(args), _extraction_params(args))
    if args.dump_ptlogs:
        os.makedirs(args.dump_ptlogs, exist_ok=True)
        for res in run.results:
            if res.ptlog is None or not res.ptlog.rows:
                continue
            name = f"{res.candidate.kind.value}__{res.candidate.t_g}"
            for role, place in res.candidate.roles:
                name += f"__{place}"
            if res.candidate.attr:
                name += f"__{res.candidate.attr}"
            path = os.path.join(args.dump_ptlogs, name.replace(" ", "_") + ".csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(res.ptlog.to_csv())
    report = build_report(run, net, log_data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
    sys.stdout.write(text_summary(report, header=f"model: {args.model}"))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    net = load_model(args.model)
    log_data = load_log(args.log)
    _, report = replay(log_data, net, check_guards=True)
    print(
        f"matched {report.matched}/{report.total} log moves "
        f"({report.match_rate:.1%}), unmatched {len(report.unmatched)}"
    )
    for event, reason in report.unmatched[:10]:
        print(f"  unmatched: case={event.case_id} activity={event.label} "
              f"start={event.start:g}: {reason}")
    if len(report.unmatched) > 10:
        print(f"  ... and {len(report.unmatched) - 10} more")
    return EXIT_OK if not report.unmatched else EXIT_CHECK_FAILED


def cmd_report(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    text = render_markdown(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsync",
        description="Discover inter-case decision synchronization constraints "
        "from event logs over timed colored Petri nets.",
    )
    parser.add_argument("--config", help="key = value config file; flags override")
    parser.add_argument("-v", "--verbose", action="store_true", help="log pipeline details")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate an event log from a model")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--max-cases", dest="max_cases", type=int)
    p_sim.add_argument("--horizon", type=float)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_disc = sub.add_parser("discover", help="mine synchronization constraints")
    p_disc.add_argument("--model", required=True)
    p_disc.add_argument("--log", required=True)
    p_disc.add_argument("--out", help="write the JSON report here")
    p_disc.add_argument("--dump-ptlogs", dest="dump_ptlogs",
                        help="directory for per-candidate pattern-transition CSVs")
    p_disc.add_argument("--tau-s", dest="tau_s", type=int)
    p_disc.add_argument("--tau-g", dest="tau_g", type=float)
    p_disc.add_argument("--max-depth", dest="max_depth", type=int)
    p_disc.add_argument("--min-samples-leaf", dest="min_samples_leaf", type=int)
    p_disc.set_defaults(func=cmd_discover)

    p_check = sub.add_parser("check", help="replayability of a log over a model")
    p_check.add_argument("--model", required=True)
    p_check.add_argument("--log", required=True)
    p_check.set_defaults(func=cmd_check)

    p_rep = sub.add_parser("report", help="render a discovery report as markdown")
    p_rep.add_argument("--report", required=True)
    p_rep.add_argument("--out")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args._config = read_config(args.config)
    except FileNotFoundError as exc:
        print(f"error: config file not found: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except DsyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
