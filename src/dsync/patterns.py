"""The four decision-synchronization patterns: construct matching, feature
sets, and pattern-transition log construction.

A candidate is one way a pattern's process construct maps onto the net: a
guarded-transition role plus one or two place roles. Candidates are
over-generated on purpose; the tree and extraction stages filter the ones
whose behaviour shows no synchronization.

Several candidates share a guarded transition, and so share the moments it
is observed at. ``observe`` finds those moments for every guarded transition
in one pass over the replay's samples, testing enabledness at most once per
transition and sample; ``build_pt_log`` then only reads each candidate's
features off its transition's observations.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .constraints import RATIO_EPSILON, FeatureRef, eval_feature
from .errors import ModelError
from .eventlog import fmt_cell, fmt_num
from .net import Marking, Net, has_enabled_binding
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
        ins, outs = net.preset[t_g], net.postset[t_g]

        # priority: p_i feeds t_g, p_j feeds a producer t' of p_i
        for p_i in _case_places(net, ins):
            for t2 in net.preset[p_i]:
                if t2 == t_g:
                    continue
                for p_j in _case_places(net, net.preset[t2]):
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
            for t2 in net.postset[p_j]:
                if t2 == t_g:
                    continue
                for p_i in _non_resource(net, net.preset[t2]):
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


@dataclass(slots=True)
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


# one moment a guarded transition is observed: the time, the marking its
# features are read from, and whether it fired
Observation = tuple[float, Marking, bool]


def observe(
    net: Net, samples: list[StateSample], transitions: Iterable[str]
) -> dict[str, list[Observation]]:
    """The observations of each of ``transitions``, from one pass over a
    replay's samples.

    A transition is observed up to its last start; after that, not firing is
    indistinguishable from having nothing left to do. Repaired samples are
    skipped. In the others it is observed in the state it fired from when it
    fired, which had a binding by construction, and in the post-move marking
    when it was passed over, if it has an enabled binding (guards off) there.
    """
    out: dict[str, list[Observation]] = {t: [] for t in sorted(set(transitions))}
    last: dict[str, float] = {}
    for s in samples:
        for t in s.fired.intersection(out):
            last[t] = max(s.time, last.get(t, s.time))
    watched = [(t, last[t], out[t].append) for t in out if t in last]
    for s in samples:
        if s.repaired:
            continue
        now, fired, after = s.time, s.fired, s.after
        at_fire = None
        for t, last_start, add in watched:
            if now > last_start:
                continue
            if t in fired:
                if at_fire is None:
                    at_fire = s.at_fire
                add((now, at_fire[t], True))
            elif has_enabled_binding(net, after, t, now):
                add((now, after, False))
    return out


def build_pt_log(
    net: Net, c: PatternCandidate, observations: list[Observation]
) -> PatternTransitionLog:
    """Observation-outcome rows for one candidate: its features read off each
    of its guarded transition's ``observations`` (``observe``), labelled by
    whether the transition fired.

    A ratio whose two parts come before it among the candidate's features is
    computed from their values, by ``eval_feature``'s own expression. Rows
    with equal feature values share one ``values`` tuple; equality merges
    only ``-0.0`` with ``0.0``, which every output prints as ``0``.
    """
    feats = tuple(features_for(c))
    for f in feats:
        for place_id, attr in f.references():
            if place_id not in net.places:
                raise ModelError(f"feature place {place_id!r} missing from net")
    # each feature with the positions of its ratio parts, or None to evaluate it
    index = {f: i for i, f in enumerate(feats)}
    plan = [
        (f, (index[f.num], index[f.den]))
        if f.kind == "ratio" and index.get(f.num, i) < i and index.get(f.den, i) < i
        else (f, None)
        for i, f in enumerate(feats)
    ]
    rows: list[PTRow] = []
    shared: dict[tuple, tuple] = {}  # one tuple per distinct row of values
    for now, marking, fired in observations:
        values = []
        for f, parts in plan:
            if parts is None:
                values.append(eval_feature(f, marking, now))
            else:
                values.append(values[parts[0]] / max(values[parts[1]], RATIO_EPSILON))
        key = tuple(values)
        rows.append(PTRow(now, shared.setdefault(key, key), fired))
    return PatternTransitionLog(c, feats, rows)
