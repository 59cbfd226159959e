"""The four decision-synchronization patterns: construct matching, feature
sets, and pattern-transition log construction.

A candidate is one way a pattern's process construct maps onto the net: a
guarded-transition role plus one or two place roles. Candidates are
over-generated on purpose; the tree and extraction stages filter the ones
whose behaviour shows no synchronization.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .constraints import FeatureRef, eval_feature
from .errors import ModelError
from .eventlog import fmt_cell, fmt_num
from .net import Net, has_enabled_binding, postset, preset
from .replay import StateSample


class PatternKind(str, Enum):
    PRIORITY = "priority"
    BLOCKING = "blocking"
    HOLD_BATCH = "holdbatch"
    CHOICE = "choice"


@dataclass(frozen=True)
class PatternCandidate:
    kind: PatternKind
    t_g: str
    roles: tuple[tuple[str, str], ...]  # (role name, place id), sorted by role
    attr: Optional[str] = None

    def role(self, name: str) -> str:
        for role, place in self.roles:
            if role == name:
                return place
        raise KeyError(name)

    def describe(self) -> str:
        roles = ", ".join(f"{role}={place}" for role, place in self.roles)
        suffix = f", attr={self.attr}" if self.attr else ""
        return f"{self.kind.value}({self.t_g}; {roles}{suffix})"


def _case_places(net: Net, ids) -> list[str]:
    return [p for p in ids if net.places[p].kind == "case"]


def _non_resource(net: Net, ids) -> list[str]:
    return [p for p in ids if net.places[p].kind != "resource"]


def detect_constructs(net: Net) -> list[PatternCandidate]:
    """All (kind, guarded transition, role places) matching a construct.

    Resource places never fill place roles. Output order is deterministic.
    """
    found: set[PatternCandidate] = set()
    for t_g in net.transitions:
        ins = preset(net, t_g)
        outs = postset(net, t_g)

        # priority: p_i feeds t_g, p_j feeds a producer t' of p_i
        for p_i in _case_places(net, ins):
            for t2 in preset(net, p_i):
                if t2 == t_g:
                    continue
                for p_j in _case_places(net, preset(net, t2)):
                    if p_j == p_i:
                        continue
                    shared = dict(net.places[p_i].attributes).items() & dict(
                        net.places[p_j].attributes
                    ).items()
                    for attr, typ in sorted(shared):
                        if typ != "number":
                            continue
                        found.add(
                            PatternCandidate(
                                PatternKind.PRIORITY,
                                t_g,
                                (("queue", p_i), ("upstream", p_j)),
                                attr,
                            )
                        )

        # blocking: t_g fills p_i
        for p_i in _case_places(net, outs):
            found.add(PatternCandidate(PatternKind.BLOCKING, t_g, (("downstream", p_i),)))

        # hold-batch: p_i feeds t_g
        for p_i in _case_places(net, ins):
            found.add(PatternCandidate(PatternKind.HOLD_BATCH, t_g, (("input", p_i),)))

        # choice: t_g shares input p_j with t', whose other input p_i avoids t_g
        for p_j in _non_resource(net, ins):
            for t2 in postset(net, p_j):
                if t2 == t_g:
                    continue
                for p_i in _non_resource(net, preset(net, t2)):
                    if p_i == p_j or p_i in ins:
                        continue
                    found.add(
                        PatternCandidate(
                            PatternKind.CHOICE,
                            t_g,
                            (("other_input", p_i), ("shared", p_j)),
                        )
                    )

    return sorted(found, key=lambda c: (c.kind.value, c.t_g, c.roles, c.attr or ""))


def features_for(c: PatternCandidate) -> list[FeatureRef]:
    """The pattern's feature set, in a fixed order."""
    if c.kind == PatternKind.PRIORITY:
        p_i, p_j, a = c.role("queue"), c.role("upstream"), c.attr
        feats = [
            FeatureRef.attrval(p_j, a, "max"),
            FeatureRef.attrval(p_j, a, "min"),
            FeatureRef.attrval(p_i, a, "max"),
            FeatureRef.attrval(p_i, a, "min"),
        ]
        for kx in ("max", "min"):
            for ky in ("max", "min"):
                feats.append(
                    FeatureRef.ratio(
                        FeatureRef.attrval(p_j, a, kx), FeatureRef.attrval(p_i, a, ky)
                    )
                )
        feats.append(FeatureRef.attrenabled(p_i, a, "max"))
        feats.append(FeatureRef.attrenabled(p_i, a, "min"))
        return feats
    if c.kind == PatternKind.BLOCKING:
        return [FeatureRef.nrtokens(c.role("downstream"))]
    if c.kind == PatternKind.HOLD_BATCH:
        p = c.role("input")
        return [FeatureRef.nrtokensenabled(p), FeatureRef.timeuntilnext(p)]
    if c.kind == PatternKind.CHOICE:
        return [FeatureRef.timeuntilnext(c.role("other_input"))]
    raise ModelError(f"unknown pattern kind {c.kind!r}")


@dataclass(frozen=True)
class PTRow:
    time: float
    values: tuple
    label: bool


@dataclass
class PatternTransitionLog:
    candidate: PatternCandidate
    features: tuple[FeatureRef, ...]
    rows: list[PTRow]

    def matrix(self) -> list[list[float]]:
        return [[float(v) for v in row.values] for row in self.rows]

    def labels(self) -> list[bool]:
        return [row.label for row in self.rows]

    def label_counts(self) -> tuple[int, int]:
        n_true = sum(row.label for row in self.rows)
        return (len(self.rows) - n_true, n_true)

    def to_csv(self) -> str:
        buf = io.StringIO()
        names = ["time"] + [f.canonical() for f in self.features] + ["label"]
        buf.write(",".join(f'"{n}"' for n in names) + "\n")
        for row in self.rows:
            cells = [fmt_num(row.time), *map(fmt_cell, row.values), fmt_cell(row.label)]
            buf.write(",".join(cells) + "\n")
        return buf.getvalue()


def build_pt_log(
    net: Net, c: PatternCandidate, samples: list[StateSample]
) -> PatternTransitionLog:
    """Observation-outcome rows for one candidate.

    A sample contributes one row when the guarded transition has an enabled
    binding (guards off) in the relevant marking: the state it fired from
    when it fired, and the post-move marking when it stayed passed over.
    Repaired samples are excluded.
    """
    feats = tuple(features_for(c))
    for f in feats:
        for place_id, attr in f.references():
            if place_id not in net.places:
                raise ModelError(f"feature place {place_id!r} missing from net")
    # scope: the transition is only observed up to its last firing; after
    # that, not firing is indistinguishable from having nothing left to do
    last_start = max((s.time for s in samples if c.t_g in s.fired), default=None)
    if last_start is None:
        return PatternTransitionLog(c, feats, [])
    rows: list[PTRow] = []
    for s in samples:
        if s.repaired or s.time > last_start:
            continue
        fired = c.t_g in s.fired
        marking = s.at_fire[c.t_g] if fired else s.after
        if not has_enabled_binding(net, marking, c.t_g, s.time):
            continue
        values = tuple(eval_feature(f, marking, s.time) for f in feats)
        rows.append(PTRow(s.time, values, fired))
    return PatternTransitionLog(c, feats, rows)
