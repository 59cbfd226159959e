"""Command-line entry point.

Subcommands: ``simulate`` (generate a log from a model), ``discover`` (mine
synchronization constraints from model + log), ``check`` (replayability of a
log over a, typically annotated, model) and ``report`` (render a discovery
report as markdown). Exit codes: 0 success, 1 check failure, 2 I/O error,
3 validation error. A setting in ``SETTINGS`` comes from its flag, else from
the ``--config`` file (which may hold no other key), else from its dataclass
default; ``seed`` defaults to 1.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional
from urllib.parse import quote

from .errors import DsyncError
from .eventlog import fmt_num, load_log, save_log
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


# each setting a flag or the config file can give, with its type
SETTINGS = {
    "seed": int, "max_cases": int, "horizon": float,  # SimConfig
    "tau_s": int, "tau_g": float,  # ExtractionParams
    "max_depth": int, "min_samples_leaf": int,  # TreeParams
}


def read_config(path: Optional[str]) -> dict[str, str]:
    """Key=value config file over the ``SETTINGS`` keys; '#' starts a comment.
    The file is UTF-8 and may start with a byte-order mark."""
    if not path:
        return {}
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise DsyncError(f"config {path!r} is not UTF-8 text: {exc}") from None
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DsyncError(f"config line {raw.strip()!r} is not key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise DsyncError(f"config key {key!r} is unknown; keys are {', '.join(SETTINGS)}")
        values[key] = value.strip('"')
    return values


def _given(args: argparse.Namespace, *keys: str) -> dict:
    """The settings among ``keys`` that a flag or, failing that, the config file sets."""
    given = {}
    for key in keys:
        if getattr(args, key, None) is not None:
            given[key] = getattr(args, key)
        elif key in args._config:
            cast, text = SETTINGS[key], args._config[key]
            try:
                given[key] = cast(text)
            except ValueError:
                raise DsyncError(f"config value {key} = {text!r} is not {cast.__name__}") from None
    return given


def cmd_simulate(args: argparse.Namespace) -> int:
    net = load_model(args.model)
    cfg = SimConfig(**{"seed": 1, **_given(args, "seed", "max_cases", "horizon")})
    log_data = simulate(net, cfg)
    save_log(log_data, args.out)
    print(f"wrote {len(log_data.events)} events to {args.out}")
    return EXIT_OK


def cmd_discover(args: argparse.Namespace) -> int:
    net = load_model(args.model)
    log_data = load_log(args.log)
    tree_params = TreeParams(**_given(args, "max_depth", "min_samples_leaf"))
    extraction_params = ExtractionParams(**_given(args, "tau_s", "tau_g"))
    run = discover_run(log_data, net, tree_params, extraction_params)
    if args.dump_ptlogs:
        os.makedirs(args.dump_ptlogs, exist_ok=True)
        for res in run.results:
            if not res.ptlog.rows:
                continue
            name = f"{res.candidate.kind.value}__{res.candidate.t_g}"
            for role, place in res.candidate.roles:
                name += f"__{place}"
            if res.candidate.attr:
                name += f"__{res.candidate.attr}"
            # every character outside [A-Za-z0-9._-] percent-encoded, so that
            # each candidate has a file of its own inside the directory
            name = quote(name, safe="").replace("~", "%7E")
            with open(os.path.join(args.dump_ptlogs, name + ".csv"), "w", encoding="utf-8") as fh:
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
    # samples are freed at once, before the collection the replay put off
    report = replay(log_data, net, check_guards=True)[1]
    print(
        f"matched {report.matched}/{report.total} log moves "
        f"({report.match_rate:.1%}), unmatched {len(report.unmatched)}"
    )
    for event, reason in report.unmatched[:10]:
        print(f"  unmatched: case={event.case_id} activity={event.label} "
              f"start={fmt_num(event.start)}: {reason}")
    if len(report.unmatched) > 10:
        print(f"  ... and {len(report.unmatched) - 10} more")
    return EXIT_OK if not report.unmatched else EXIT_CHECK_FAILED


def cmd_report(args: argparse.Namespace) -> int:
    with open(args.report, "r", encoding="utf-8-sig") as fh:
        try:
            text = render_markdown(json.load(fh))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
            raise DsyncError(f"report {args.report!r} is malformed or incomplete: {exc!r}")
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
    for key in ("seed", "max_cases", "horizon"):
        p_sim.add_argument("--" + key.replace("_", "-"), type=SETTINGS[key])
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_disc = sub.add_parser("discover", help="mine synchronization constraints")
    p_disc.add_argument("--model", required=True)
    p_disc.add_argument("--log", required=True)
    p_disc.add_argument("--out", help="write the JSON report here")
    p_disc.add_argument("--dump-ptlogs", dest="dump_ptlogs",
                        help="directory for per-candidate pattern-transition CSVs")
    for key in ("tau_s", "tau_g", "max_depth", "min_samples_leaf"):
        p_disc.add_argument("--" + key.replace("_", "-"), type=SETTINGS[key])
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
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc.strerror or exc}: {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except DsyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
