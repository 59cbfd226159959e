"""Discovery report assembly: JSON document and markdown rendering.

The replayability section is the check that ``discover_run`` read off its
replay (``DiscoveryRun.check``); only when that is None does ``build_report``
replay the log over the annotated net with guard checks on.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

from .eventlog import Log
from .extract import DiscoveryRun, annotate_net
from .net import Net
from .replay import replay
from .simulate import ground_truth


def build_report(run: DiscoveryRun, net: Net, log_data: Log) -> dict:
    """Full machine-readable report for one discovery run.

    Sections: effective config, every candidate with its outcome, the
    trained trees, the discovered constraints, the modeled ground truth,
    and the replayability check of the net annotated with the discoveries
    (``run.check``, or a guard-checked replay when that is None).
    """
    report: dict = {
        "config": {"tree": asdict(run.tree_params), "extraction": asdict(run.extraction_params)},
        "model": net.name,
        "samples": run.samples,
        "replay": {
            "matched": run.match_report.matched,
            "unmatched": len(run.match_report.unmatched),
            "stats": run.match_report.stats,
        },
    }

    candidates = []
    for res in run.results:
        entry: dict = {
            "kind": res.candidate.kind.value,
            "transition": res.candidate.t_g,
            "roles": {role: place for role, place in res.candidate.roles},
        }
        if res.candidate.attr:
            entry["attr"] = res.candidate.attr
        n_false, n_true = res.ptlog.label_counts()
        entry["rows"] = len(res.ptlog.rows)
        entry["rows_false"] = n_false
        entry["rows_true"] = n_true
        if res.skip_reason:
            entry["skipped"] = res.skip_reason
        if res.constraint is not None:
            entry["constraint"] = res.constraint.expr.canonical()
        candidates.append(entry)
    report["candidates"] = candidates

    trees = []
    for res in run.results:
        if res.tree is None:
            continue
        names = [f.canonical() for f in res.ptlog.features]
        trees.append(
            {
                "kind": res.candidate.kind.value,
                "transition": res.candidate.t_g,
                "features": names,
                "tree": res.tree.to_dict(names),
            }
        )
    report["trees"] = trees

    report["constraints"] = [
        {
            "kind": pc.kind.value,
            "transition": pc.t_g,
            "constraint": pc.expr.canonical(),
            "support": pc.support,
            "provenance": [atom.canonical() for atom in pc.provenance],
        }
        for pc in run.constraints
    ]

    report["ground_truth"] = [
        {"transition": tid, "constraint": guard.canonical()}
        for tid, guard in ground_truth(net)
    ]

    check = run.check
    if check is None:
        annotated = annotate_net(net.without_guards(), run.constraints)
        check = replay(log_data, annotated, check_guards=True)[1]
    report["replayability"] = {
        "matched": check.matched,
        "unmatched": len(check.unmatched),
        "match_rate": check.match_rate,
    }
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def render_markdown(report: dict) -> str:
    """Side-by-side modeled vs discovered constraints, one row per pattern."""
    modeled = {entry["transition"]: entry["constraint"] for entry in report["ground_truth"]}
    lines = [
        f"# Discovered synchronization constraints ({report.get('model') or 'model'})",
        "",
        "| Pattern | Transition | Modeled constraint | Discovered constraint |",
        "| --- | --- | --- | --- |",
    ]
    seen: set[str] = set()
    for entry in report["constraints"]:
        tid = entry["transition"]
        seen.add(tid)
        lines.append(
            f"| {entry['kind']} | {tid} | {modeled.get(tid, '(none)')} | {entry['constraint']} |"
        )
    for tid, constraint in sorted(modeled.items()):
        if tid not in seen:
            lines.append(f"| (missed) | {tid} | {constraint} | (none) |")
    rep = report["replayability"]
    lines += [
        "",
        f"Replayability with discovered guards: {rep['matched']} matched, "
        f"{rep['unmatched']} unmatched ({rep['match_rate']:.1%}).",
        "",
    ]
    return "\n".join(lines)


def text_summary(report: dict, header: Optional[str] = None) -> str:
    lines = [header] if header else []
    lines.append(f"candidates examined: {len(report['candidates'])}")
    for entry in report["constraints"]:
        lines.append(f"{entry['kind']} on {entry['transition']}: {entry['constraint']}")
    if not report["constraints"]:
        lines.append("no synchronization constraints discovered")
    rep = report["replayability"]
    lines.append(
        f"replayability: {rep['matched']}/{rep['matched'] + rep['unmatched']} log moves matched"
    )
    return "\n".join(lines) + "\n"
