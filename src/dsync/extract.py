"""Mining pattern constraints out of trained decision trees.

High-confidence False leaves (enough samples, low impurity) mark states in
which the guarded transition was held back. Tracing each such leaf to the
root collects the branch conditions that isolate those states; conditions
matching the pattern's violation template and decreasing impurity along the
path are kept, duplicates on the same feature resolved by the larger
impurity drop. The surviving violation atoms are negated into the
fire-permission constraint, which is only returned when the pattern's
required atom set is complete.

Violation directions per pattern: a high upstream/queue ratio or a pending
extremum token (priority), a full downstream place (blocking), too few
enabled tokens or a too-soon next token (hold-batch and choice).

``discover_run`` replays the log once, with ``patterns.Observations`` as the
replay's observer, so the pattern-transition rows are read while it replays
and no sample is kept. It also reads the replayability check of the net
annotated with its constraints off that replay: each constraint is tested
on the moves its own candidate recorded (``patterns.read_off_check``). The
result is kept as ``DiscoveryRun.check``, which is None when the check needs
a replay of its own.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional, Union

from .acyclic import acyclic
from .constraints import Atom, ConstraintExpr, FeatureRef
from .errors import DsyncError, ModelError
from .eventlog import Log
from .net import Net, validate_net
from .patterns import (
    Observations,
    PatternCandidate,
    PatternKind,
    PatternTransitionLog,
    build_pt_log,
    detect_constructs,
    read_off_check,
)
from .replay import MatchReport, replay
from .tree import Path, TreeNode, TreeParams, fit

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExtractionParams:
    tau_s: int = 10  # minimum samples in a False leaf
    tau_g: float = 0.1  # maximum Gini impurity of a False leaf

    def check(self) -> None:
        if self.tau_s < 1:
            raise DsyncError("tau_s must be >= 1")
        if not 0.0 <= self.tau_g <= 0.5:
            raise DsyncError("tau_g must be within [0, 0.5]")


@dataclass(frozen=True)
class SplitAtom:
    """One branch-directed split condition from a root-to-leaf path."""

    feature: FeatureRef
    op: str  # "<=", ">", "=="
    threshold: Union[float, bool]
    delta_gini: float  # child-on-path Gini minus parent Gini (negative = purer)

    def canonical(self) -> str:
        return Atom(self.feature, self.op, self.threshold).canonical()


@dataclass(frozen=True)
class PatternConstraint:
    candidate: PatternCandidate
    expr: ConstraintExpr
    support: int  # False rows explained by the selected leaves
    provenance: tuple[SplitAtom, ...] = ()

    @property
    def t_g(self) -> str:
        return self.candidate.t_g

    @property
    def kind(self) -> PatternKind:
        return self.candidate.kind

    def describe(self) -> str:
        return f"{self.kind.value} on {self.t_g}: {self.expr.canonical()}"


def select_false_leaves(tree: TreeNode, p: ExtractionParams) -> list[tuple[TreeNode, Path]]:
    """Leaves predicting False with samples >= tau_s and Gini <= tau_g, each
    with its root path."""
    return [
        (leaf, path)
        for leaf, path in tree.leaves()
        if not leaf.prediction and leaf.samples >= p.tau_s and leaf.gini <= p.tau_g
    ]


_VIOLATION_TEMPLATE = {
    PatternKind.PRIORITY: (("ratio", ">"), ("attrenabled", "==")),
    PatternKind.BLOCKING: (("nrtokens", ">"),),
    PatternKind.HOLD_BATCH: (("nrtokensenabled", "<="), ("timeuntilnext", "<=")),
    PatternKind.CHOICE: (("timeuntilnext", "<="),),
}
# the permission comparison negating each violation comparison
_PERMISSION = {">": "<=", "<=": ">", "==": "=="}


def trace_and_filter(
    path: Path, kind: PatternKind, features: tuple[FeatureRef, ...]
) -> list[SplitAtom]:
    """Branch conditions on a leaf's root ``path`` that match the violation
    template of ``kind`` and strictly decrease Gini along the path: a child as
    impure as its parent gives no atom."""
    template = _VIOLATION_TEMPLATE[kind]
    atoms: list[SplitAtom] = []
    for node, taken in path:
        f_idx, threshold = node.split
        feature = features[f_idx]
        child = node.right if taken else node.left
        delta = child.gini - node.gini
        if delta >= 0:
            continue
        if feature.is_boolean:
            # encoded 0/1, split at 0.5: the taken branch (x <= 0.5) is == false
            op, value = "==", (not taken)
        else:
            op, value = ("<=", threshold) if taken else (">", threshold)
        if (feature.kind, op) in template:
            atoms.append(SplitAtom(feature, op, value, delta))
    return atoms


def _best(atoms: list[SplitAtom], kind: str) -> Optional[SplitAtom]:
    matching = [a for a in atoms if a.feature.kind == kind]
    if not matching:
        return None
    return max(matching, key=lambda a: (abs(a.delta_gini), a.feature.canonical()))


def assemble_constraint(
    atoms: list[SplitAtom], c: PatternCandidate, support: int = 0
) -> Optional[PatternConstraint]:
    """Negate retained violation atoms into the fire-permission constraint.

    Takes the best atom (``_best``) for each entry of the pattern's violation
    template and returns None unless every entry has one: priority needs the
    ratio and the enabled part, hold-batch both the count and the time part.
    Each permission atom negates the template entry's comparison, at the
    atom's threshold; an enabled part always becomes ``== true``, because the
    permission side requires the extremum token to be available.
    """
    template = _VIOLATION_TEMPLATE[c.kind]
    used = [_best(atoms, kind) for kind, _ in template]
    if None in used:
        return None
    expr = ConstraintExpr(tuple(
        Atom(a.feature, _PERMISSION[op], True if op == "==" else float(a.threshold))
        for a, (_, op) in zip(used, template)
    ))
    return PatternConstraint(c, expr, support, tuple(used))


@dataclass
class CandidateResult:
    candidate: PatternCandidate
    ptlog: PatternTransitionLog
    tree: Optional[TreeNode] = None
    constraint: Optional[PatternConstraint] = None
    skip_reason: Optional[str] = None


@dataclass
class DiscoveryRun:
    constraints: list[PatternConstraint]
    results: list[CandidateResult]
    samples: int
    match_report: MatchReport
    tree_params: TreeParams = field(default_factory=TreeParams)
    extraction_params: ExtractionParams = field(default_factory=ExtractionParams)
    # the guard-checked replay over the net annotated with ``constraints``, read
    # off the discovery replay; None when that replay has to be run
    check: Optional[MatchReport] = None


def _mine(res: CandidateResult, tree_params: TreeParams, p: ExtractionParams) -> Optional[str]:
    """Fit a tree to ``res.ptlog`` and extract the candidate's constraint into
    ``res``; returns why the candidate yields none, or None when it yields one."""
    ptlog = res.ptlog
    n_false, n_true = ptlog.label_counts()
    if len(ptlog.rows) < p.tau_s:
        return f"only {len(ptlog.rows)} rows (tau_s={p.tau_s})"
    if n_false == 0 or n_true == 0:
        return f"single-class log ({n_false} false / {n_true} true)"
    res.tree = fit(ptlog.matrix(), ptlog.labels(), tree_params)
    leaves = select_false_leaves(res.tree, p)
    if not leaves:
        return "no qualifying false leaf"
    c = res.candidate
    atoms = [atom for _, path in leaves for atom in trace_and_filter(path, c.kind, ptlog.features)]
    support = sum(leaf.class_counts[0] for leaf, _ in leaves)
    res.constraint = assemble_constraint(atoms, c, support)
    if res.constraint is None:
        return "violation template not covered"
    log.info("mined %s", res.constraint.describe())
    return None


@acyclic
def discover_run(
    log_data: Log,
    net: Net,
    tree_params: TreeParams = TreeParams(),
    extraction_params: ExtractionParams = ExtractionParams(),
) -> DiscoveryRun:
    """Full pipeline: detect constructs, replay while observing their
    guarded transitions, mine each candidate, and read the replayability
    check of the discoveries off the observed moves when it can.

    Runs with the cyclic garbage collector paused (``acyclic``), and so does
    its replay, which leaves the collector to this call.
    """
    extraction_params.check()
    tree_params.check()
    candidates = detect_constructs(net)
    observations = Observations(net, log_data, candidates)
    report = replay(log_data, net, observer=observations.observe)[1]
    results: list[CandidateResult] = []
    for c in candidates:
        res = CandidateResult(c, build_pt_log(observations, c))
        res.skip_reason = _mine(res, tree_params, extraction_params)
        if res.skip_reason:
            log.info("skip %s: %s", c.describe(), res.skip_reason)
        results.append(res)

    constraints = _dedup([r.constraint for r in results if r.constraint is not None])
    return DiscoveryRun(
        constraints, results, observations.samples, report, tree_params, extraction_params,
        read_off_check(observations, report, constraints),
    )


def _dedup(constraints: list[PatternConstraint]) -> list[PatternConstraint]:
    """Keep one constraint per transition, the one explaining the most
    held-back rows.

    All candidates of one transition are trained on the same labeled
    moments, so their supports are directly comparable; a pattern that
    accounts for a handful of those moments while another accounts for
    nearly all of them is a shadow of the stronger one. Overlapping
    patterns on a single transition are out of scope.
    """
    best: dict[str, PatternConstraint] = {}
    for pc in constraints:
        current = best.get(pc.t_g)
        if (
            current is None
            or pc.support > current.support
            or (pc.support == current.support and pc.kind.value < current.kind.value)
        ):
            best[pc.t_g] = pc
    return sorted(best.values(), key=lambda pc: (pc.t_g, pc.kind.value))


def annotate_net(net: Net, constraints: list[PatternConstraint]) -> Net:
    """Copy of the net with discovered constraints installed as guards.

    Each transition takes at most one constraint, as discovery keeps one per
    transition (two raise ``ModelError``); a targeted transition's previous
    guard is replaced.
    """
    guards: dict[str, ConstraintExpr] = {}
    for pc in constraints:
        if pc.t_g not in net.transitions:
            raise ModelError(f"constraint targets unknown transition {pc.t_g!r}")
        if pc.t_g in guards:
            raise ModelError(f"two constraints target transition {pc.t_g!r}")
        guards[pc.t_g] = pc.expr
    if not guards:
        return net
    annotated = net.with_guards(guards)
    problems = validate_net(annotated)
    if problems:
        raise ModelError("annotated net is invalid: " + "; ".join(problems))
    return annotated
