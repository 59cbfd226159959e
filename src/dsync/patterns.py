"""The four decision-synchronization patterns: construct matching, feature
sets, and pattern-transition log construction.

A candidate is one way a pattern's process construct maps onto the net: a
guarded-transition role plus one or two place roles. Candidates are
over-generated on purpose; the tree and extraction stages filter the ones
whose behaviour shows no synchronization.

Several candidates share a guarded transition, and so share the moments it
is observed at. ``Observations`` is the replay's observer: it reads each
candidate's feature values off the marking each move on its transition
applies to, before the move changes it, and at the end of each timestamp
tests enabledness at most once per transition, so that no marking outlives
its timestamp. ``build_pt_log`` then only assembles a candidate's rows, and
``read_off_check`` tests each discovered constraint against the moves its
own candidate recorded instead of replaying the log again.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Optional

from .constraints import OPS, RATIO_EPSILON, Atom, ConstraintExpr, FeatureRef, eval_feature
from .errors import ModelError
from .eventlog import Log, fmt_cell, fmt_num
from .net import Marking, Net, has_enabled_binding
from .replay import MatchReport

if TYPE_CHECKING:
    from .extract import PatternConstraint


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


class _Reading:
    """One candidate in ``Observations``: how its features are evaluated,
    its rows, its features' values at each move of its transition, and the
    ``pinned`` guards ``held`` by every move so far: those whose
    ``binding_ok`` passed each move's binding. Moves at repaired timestamps
    count too; ``read_off_check`` reads neither after a repair."""

    __slots__ = ("features", "plan", "rows", "moves", "shared", "pinned", "held")

    def __init__(self, c: PatternCandidate):
        feats = tuple(features_for(c))
        # each feature with the positions of its ratio parts, or None to evaluate it
        index = {f: i for i, f in enumerate(feats)}
        self.features = feats
        self.plan = [
            (f, (index[f.num], index[f.den]))
            if f.kind == "ratio" and index.get(f.num, i) < i and index.get(f.den, i) < i
            else (f, None)
            for i, f in enumerate(feats)
        ]
        self.rows: list[PTRow] = []
        self.moves: list[tuple] = []
        self.shared: dict[tuple, tuple] = {}  # one tuple per distinct row of values
        # one single-atom guard per attrenabled feature, which may pin a token
        self.pinned = tuple(
            ConstraintExpr((Atom(f, "==", True),)) for f in feats if f.kind == "attrenabled"
        )
        self.held = self.pinned  # a guard leaves at its first failing move

    def values(self, marking: Marking, now: float) -> tuple:
        """The features on ``marking`` at ``now``; a ratio whose two parts
        come before it is computed from their values, by ``eval_feature``'s
        own expression."""
        values = []
        for f, parts in self.plan:
            if parts is None:
                values.append(eval_feature(f, marking, now))
            else:
                values.append(values[parts[0]] / max(values[parts[1]], RATIO_EPSILON))
        key = tuple(values)
        return self.shared.setdefault(key, key)


class Observations:
    """The pattern-transition rows of candidates, read off a replay as it
    shows each move and timestamp (its ``observer``); no marking is kept.

    Several candidates share a guarded transition, and so share the moments
    it is observed at: each timestamp tests enabledness at most once per
    transition. A transition is observed up to its last start in ``log``;
    after that, not firing is indistinguishable from having nothing left to
    do. ``samples`` counts the timestamps observed.
    """

    def __init__(self, net: Net, log: Log, candidates: Iterable[PatternCandidate]):
        self.net = net
        self.samples = 0
        self._readings = {c: _Reading(c) for c in candidates}
        by_t: dict[str, list[_Reading]] = {}
        for c, r in self._readings.items():
            by_t.setdefault(c.t_g, []).append(r)
        last: dict[str, float] = {}
        for e in log.events:
            if e.label in by_t and e.start > last.get(e.label, -math.inf):
                last[e.label] = e.start
        # each started transition's last start and its candidates' readings, by id
        self._started = {t: (last[t], by_t[t]) for t in sorted(last)}
        self._fired: dict[_Reading, tuple] = {}  # this timestamp's first values, by reading

    def move(self, e, binding, marking: Marking, now: float) -> None:
        """Record each candidate's values in the marking the move applies to,
        the first move's for the timestamp's row, and drop from its ``held``
        guards each one whose ``binding_ok`` fails the move's binding."""
        watched = self._started.get(e.label)
        if watched is None or now > watched[0]:
            return
        for r in watched[1]:
            values = r.values(marking, now)
            r.moves.append(values)
            self._fired.setdefault(r, values)
            if r.held:
                r.held = tuple(g for g in r.held if g.binding_ok(marking, now, binding))

    def step(self, now: float, after: Marking, fired: frozenset[str], repaired: bool) -> None:
        """End a timestamp; a repaired one gives no row. A transition that fired
        is read in the state its first move applied to, one passed over in
        ``after``, if it has an enabled binding (guards off) there."""
        self.samples += 1
        firsts, self._fired = self._fired, {}
        if repaired:
            return
        for r, values in firsts.items():
            r.rows.append(PTRow(now, values, True))
        for t, (last_start, readings) in self._started.items():
            if now > last_start or t in fired:
                continue
            if has_enabled_binding(self.net, after, t, now):
                for r in readings:
                    r.rows.append(PTRow(now, r.values(after, now), False))


def build_pt_log(observations: Observations, c: PatternCandidate) -> PatternTransitionLog:
    """Observation-outcome rows for one candidate of ``observations``: its
    features read at each moment its guarded transition was observed,
    labelled by whether the transition fired.

    Rows with equal feature values share one ``values`` tuple; equality
    merges only ``-0.0`` with ``0.0``, which every output prints as ``0``.
    """
    r = observations._readings[c]
    return PatternTransitionLog(c, r.features, r.rows)


def read_off_check(
    observations: Observations, report: MatchReport, constraints: Iterable[PatternConstraint]
) -> Optional[MatchReport]:
    """The report of ``replay(log, annotated, check_guards=True)``, where
    ``annotated`` is the observed net without its guards and with
    ``constraints`` installed, read off the unguarded replay that
    ``observations`` observed and that gave ``report``; None when its moves
    do not settle it.

    Guards only shrink the binding pools, and the pools keep their order, so
    the guard-checked walk takes exactly the unguarded walk's steps, and
    never retries, when every move matched and each move on a guarded
    transition gets the binding it applied from the guard-checked
    ``_best_move`` too. That last holds exactly when the guard holds on the
    move's marking and ``binding_ok`` passes the applied binding, pool by
    pool: ``pin`` filters each token on its own, so a pinned pool is a
    subsequence of the unpinned one, and the token ``_best_move`` took as the
    first maximum of the unpinned pool stays the first maximum if ``pin``
    keeps it. Both are tested on what the constraint's own candidate
    recorded at each move of its transition: each atom on its feature's
    values, and ``binding_ok`` as the conjunction of each atom's alone, which
    passed every move when that atom is a pinned guard still ``held`` (any
    other atom pins no token). A constraint's atoms read only its
    candidate's features, and those read only case places and places with a
    consumer, which every marking stores.
    """
    if report.unmatched:
        return None
    for pc in constraints:
        r = observations._readings[pc.candidate]
        for atom in pc.expr.atoms:
            alone = ConstraintExpr((atom,))
            if alone in r.pinned and alone not in r.held:
                return None
            i, compare = r.features.index(atom.feature), OPS[atom.op]
            if not all(compare(values[i], atom.const) for values in r.moves):
                return None
    return MatchReport(report.matched, [], dict(report.stats))
