from __future__ import annotations

import json

import pytest

from dsync.constraints import Atom, FeatureRef, parse_constraint
from dsync.errors import DsyncError, ModelError
from dsync.extract import (
    ExtractionParams,
    PatternConstraint,
    _dedup,
    annotate_net,
    assemble_constraint,
    discover_run,
    select_false_leaves,
    trace_and_filter,
)
from dsync.modelfile import net_from_json
from dsync.patterns import PatternCandidate, PatternKind
from dsync.replay import replay
from dsync.tree import TreeNode
from tests.conftest import MODELS

RATIO = FeatureRef.ratio(
    FeatureRef.attrval("arrival", "value", "max"),
    FeatureRef.attrval("q1", "value", "max"),
)
ENABLED = FeatureRef.attrenabled("q1", "value", "max")
FEATURES = (RATIO, ENABLED)

PRIORITY_CAND = PatternCandidate(
    PatternKind.PRIORITY, "handling", (("queue", "q1"), ("upstream", "arrival")), "value"
)


def leaf(n_false, n_true):
    from dsync.tree import gini as gini_of

    return TreeNode(
        gini=gini_of(n_false, n_true),
        samples=n_false + n_true,
        class_counts=(n_false, n_true),
    )


def priority_tree():
    """Ratio split at the root, enabled split below: the walkthrough shape.

    root: ratio <= 1.505? no -> held leaf (333); yes -> enabled split whose
    false branch holds the remaining 49 held samples.
    """
    ratio_false = leaf(333, 0)
    enabled_false = leaf(49, 2)  # the x <= 0.5 branch: extremum pending
    enabled_true = leaf(0, 500)
    inner = TreeNode(
        gini=0.16, samples=551, class_counts=(51, 500),
        split=(1, 0.5), left=enabled_true, right=enabled_false,
    )
    return TreeNode(
        gini=0.48, samples=884, class_counts=(384, 500),
        split=(0, 1.505), left=ratio_false, right=inner,
    )


def _chosen(tree, p):
    """The leaves ``select_false_leaves`` picks, as the ``ratio`` (root's left)
    and ``enabled`` (inner node's right) leaves of ``priority_tree``."""
    names = {id(tree.left): "ratio", id(tree.right.right): "enabled"}
    return {names[id(leaf)] for leaf, _ in select_false_leaves(tree, p)}


def test_select_false_leaves_applies_both_thresholds():
    tree = priority_tree()
    chosen = select_false_leaves(tree, ExtractionParams(tau_s=10, tau_g=0.1))
    assert _chosen(tree, ExtractionParams(tau_s=10, tau_g=0.1)) == {"ratio", "enabled"}
    # each leaf comes with its root path
    assert [[taken for _, taken in path] for _, path in chosen] == [[False], [True, True]]
    # raising tau_s excludes the small leaf; tightening tau_g the impure one
    assert _chosen(tree, ExtractionParams(tau_s=50, tau_g=0.1)) == {"ratio", "enabled"}
    assert _chosen(tree, ExtractionParams(tau_s=340, tau_g=0.1)) == set()
    assert _chosen(tree, ExtractionParams(tau_s=10, tau_g=0.01)) == {"ratio"}


def test_pure_true_tree_selects_nothing():
    assert select_false_leaves(leaf(0, 20), ExtractionParams()) == []


def _path_to(tree, target):
    return next(path for leaf, path in tree.leaves() if leaf is target)


def test_trace_keeps_violation_directions_only():
    tree = priority_tree()
    ratio_leaf = tree.left
    atoms = trace_and_filter(_path_to(tree, ratio_leaf), PatternKind.PRIORITY, FEATURES)
    assert [a.canonical() for a, _ in atoms] == ["ratio(attrval(arrival, value, max), attrval(q1, value, max)) > 1.505"]

    enabled_leaf = tree.right.right
    atoms = trace_and_filter(_path_to(tree, enabled_leaf), PatternKind.PRIORITY, FEATURES)
    # the ratio <= branch does not match the violation direction; the
    # enabled == false branch does
    assert [a.canonical() for a, _ in atoms] == ["attrenabled(q1, value, max) == false"]


def test_trace_requires_impurity_decrease():
    stray_false = leaf(30, 1)
    pure_true = leaf(0, 10)
    root = TreeNode(
        gini=0.2, samples=41, class_counts=(30, 11),
        split=(0, 2.0), left=stray_false, right=pure_true,
    )
    # the left child is *less* pure than the root, or exactly as pure: only a
    # strict decrease yields an atom, so its split is dropped either way
    for child_gini in (0.35, 0.2):
        root.left = TreeNode(gini=child_gini, samples=31, class_counts=(30, 1))
        atoms = trace_and_filter(_path_to(root, root.left), PatternKind.PRIORITY, FEATURES)
        assert atoms == []


def test_assemble_resolves_duplicates_by_gini_drop():
    ratio_atom = Atom(RATIO, ">", 1.5)
    a = Atom(ENABLED, "==", True)
    b = Atom(ENABLED, "==", False)
    for atoms in ([(ratio_atom, -0.3), (a, -0.422), (b, -0.322)],
                  [(ratio_atom, -0.3), (b, -0.322), (a, -0.422)]):
        pc = assemble_constraint(atoms, PRIORITY_CAND)
        assert pc.provenance == (ratio_atom, a)


def test_assemble_breaks_a_drop_tie_by_the_larger_feature_then_the_first():
    blocking = PatternCandidate(PatternKind.BLOCKING, "pre-processing", (("downstream", "q1"),))
    q1 = Atom(FeatureRef.nrtokens("q1"), ">", 4.5)
    q2 = Atom(FeatureRef.nrtokens("q2"), ">", 4.5)
    for atoms in ([(q1, -0.4), (q2, -0.4)], [(q2, -0.4), (q1, -0.4)]):
        assert assemble_constraint(atoms, blocking).provenance == (q2,)
    low = Atom(FeatureRef.nrtokens("q1"), ">", 3.5)
    assert assemble_constraint([(q1, -0.4), (low, -0.4)], blocking).provenance == (q1,)
    assert assemble_constraint([(low, -0.4), (q1, -0.4)], blocking).provenance == (low,)


def test_shared_root_split_contributes_one_atom():
    # both false leaves lie under the root's ratio > 3.2 branch, so both
    # paths trace the root split
    held_a = leaf(40, 0)
    held_b = leaf(15, 1)
    inner = TreeNode(
        gini=0.3, samples=56, class_counts=(55, 1),
        split=(1, 0.5), left=held_a, right=held_b,
    )
    root = TreeNode(
        gini=0.49, samples=116, class_counts=(55, 61),
        split=(0, 3.2), left=inner, right=leaf(0, 60),
    )
    per_leaf = [
        trace_and_filter(_path_to(root, held_a), PatternKind.PRIORITY, FEATURES),
        trace_and_filter(_path_to(root, held_b), PatternKind.PRIORITY, FEATURES),
    ]
    atoms = per_leaf[0] + per_leaf[1]
    assert sum(1 for a, _ in atoms if a.feature.kind == "ratio") == 2
    pc = assemble_constraint(atoms, PRIORITY_CAND)
    assert sum(1 for a in pc.provenance if a.feature.kind == "ratio") == 1


def test_assemble_priority_needs_both_parts():
    ratio_atom = (Atom(RATIO, ">", 1.505), -0.3)
    enabled_atom = (Atom(ENABLED, "==", True), -0.42)
    pc = assemble_constraint([ratio_atom, enabled_atom], PRIORITY_CAND, support=382)
    assert pc is not None
    assert pc.expr.canonical() == (
        "ratio(attrval(arrival, value, max), attrval(q1, value, max)) <= 1.505 "
        "and attrenabled(q1, value, max) == true"
    )
    assert assemble_constraint([ratio_atom], PRIORITY_CAND) is None


def test_assemble_normalizes_enabled_to_true():
    ratio_atom = (Atom(RATIO, ">", 1.5), -0.3)
    enabled_false = (Atom(ENABLED, "==", False), -0.32)
    pc = assemble_constraint([ratio_atom, enabled_false], PRIORITY_CAND)
    assert "attrenabled(q1, value, max) == true" in pc.expr.canonical()


def test_assemble_blocking_negates_threshold():
    cand = PatternCandidate(PatternKind.BLOCKING, "pre-processing", (("downstream", "q1"),))
    atom = (Atom(FeatureRef.nrtokens("q1"), ">", 4.5), -0.4)
    pc = assemble_constraint([atom], cand, support=100)
    assert pc.expr.canonical() == "nrtokens(q1) <= 4.5"


def test_assemble_holdbatch_needs_both_atoms():
    cand = PatternCandidate(PatternKind.HOLD_BATCH, "transportation", (("input", "q1"),))
    count_atom = (Atom(FeatureRef.nrtokensenabled("q1"), "<=", 3.5), -0.2)
    time_atom = (Atom(FeatureRef.timeuntilnext("q1"), "<=", 2.0), -0.2)
    pc = assemble_constraint([count_atom, time_atom], cand)
    assert pc.expr.canonical() == "nrtokensenabled(q1) > 3.5 and timeuntilnext(q1) > 2"
    assert assemble_constraint([count_atom], cand) is None


def test_assemble_negates_the_template_comparison_not_the_atoms():
    blocking = PatternCandidate(PatternKind.BLOCKING, "pre-processing", (("downstream", "q1"),))
    count_leq = (Atom(FeatureRef.nrtokens("q1"), "<=", 4.5), -0.4)
    assert assemble_constraint([count_leq], blocking).expr.canonical() == "nrtokens(q1) <= 4.5"
    hold = PatternCandidate(PatternKind.HOLD_BATCH, "transportation", (("input", "q1"),))
    count_gt = Atom(FeatureRef.nrtokensenabled("q1"), ">", 3.5)
    time_gt = Atom(FeatureRef.timeuntilnext("q1"), ">", 2.0)
    pc = assemble_constraint([(count_gt, -0.2), (time_gt, -0.2)], hold)
    assert pc.expr.canonical() == "nrtokensenabled(q1) > 3.5 and timeuntilnext(q1) > 2"
    assert pc.provenance == (count_gt, time_gt)


def test_assemble_choice_single_atom():
    cand = PatternCandidate(
        PatternKind.CHOICE, "production_a", (("other_input", "stock_b"), ("shared", "shared"))
    )
    atom = (Atom(FeatureRef.timeuntilnext("stock_b"), "<=", 1.915), -0.3)
    pc = assemble_constraint([atom], cand)
    assert pc.expr.canonical() == "timeuntilnext(stock_b) > 1.915"


def test_discover_blocking_round_trip(blocking_net, blocking_log):
    constraints = discover_run(blocking_log, blocking_net).constraints
    assert len(constraints) == 1
    pc = constraints[0]
    assert pc.kind == PatternKind.BLOCKING and pc.t_g == "pre-processing"
    assert pc.expr.canonical() == "nrtokens(q1) <= 4.5"


def test_discover_is_monotone_in_tau_s(blocking_net, blocking_log):
    lax = discover_run(
        blocking_log, blocking_net, extraction_params=ExtractionParams(tau_s=10)
    ).constraints
    strict = discover_run(
        blocking_log, blocking_net, extraction_params=ExtractionParams(tau_s=120)
    ).constraints
    lax_keys = {(pc.t_g, pc.kind) for pc in lax}
    strict_keys = {(pc.t_g, pc.kind) for pc in strict}
    assert strict_keys <= lax_keys


def test_discover_reports_skip_reasons(blocking_net, blocking_log):
    run = discover_run(blocking_log, blocking_net)
    assert all(
        res.constraint is not None or res.skip_reason
        for res in run.results
    )


@pytest.mark.parametrize("tau_g", [0.0, 0.5])
def test_tau_g_range_is_inclusive(tau_g):
    ExtractionParams(tau_g=tau_g)


@pytest.mark.parametrize("tau_g", [-0.01, 0.51])
def test_tau_g_outside_its_range_is_rejected(tau_g):
    with pytest.raises(DsyncError, match=r"tau_g must be within \[0, 0.5\]"):
        ExtractionParams(tau_g=tau_g)


def test_tau_s_is_an_inclusive_minimum_of_rows(blocking_net, blocking_log):
    def result(tau_s):
        run = discover_run(blocking_log, blocking_net,
                           extraction_params=ExtractionParams(tau_s=tau_s))
        (res,) = [r for r in run.results if r.candidate.kind == PatternKind.BLOCKING
                  and r.candidate.t_g == "pre-processing"]
        return res

    n = len(result(10).ptlog.rows)
    mined = result(n)  # exactly tau_s rows: a tree is fitted
    assert mined.tree is not None and not (mined.skip_reason or "").startswith("only")
    skipped = result(n + 1)
    assert skipped.tree is None and skipped.skip_reason == f"only {n} rows (tau_s={n + 1})"


def test_dedup_breaks_a_support_tie_by_the_smaller_kind():
    # equal support on one transition: "blocking" sorts before "holdbatch"
    blocking = assemble_constraint(
        [(Atom(FeatureRef.nrtokens("q1"), ">", 4.5), -0.4)],
        PatternCandidate(PatternKind.BLOCKING, "pre-processing", (("downstream", "q1"),)),
        support=7,
    )
    holdbatch = assemble_constraint(
        [(Atom(FeatureRef.nrtokensenabled("arrival"), "<=", 2.5), -0.3),
         (Atom(FeatureRef.timeuntilnext("arrival"), "<=", 1.5), -0.2)],
        PatternCandidate(PatternKind.HOLD_BATCH, "pre-processing", (("input", "arrival"),)),
        support=7,
    )
    assert _dedup([blocking, holdbatch]) == [blocking]
    assert _dedup([holdbatch, blocking]) == [blocking]


def test_annotate_replaces_guard(blocking_net, blocking_log):
    constraints = discover_run(blocking_log, blocking_net).constraints
    annotated = annotate_net(blocking_net, constraints)
    assert annotated.transitions["pre-processing"].guard.canonical() == "nrtokens(q1) <= 4.5"
    # the original net keeps its modeled guard
    assert blocking_net.transitions["pre-processing"].guard.canonical() == "nrtokens(q1) < 5"


def test_annotate_empty_list_is_identity(blocking_net):
    assert annotate_net(blocking_net, []) is blocking_net


def test_annotate_unknown_transition_rejected(blocking_net):
    cand = PatternCandidate(PatternKind.BLOCKING, "ghost", (("downstream", "q1"),))
    atom = (Atom(FeatureRef.nrtokens("q1"), ">", 4.5), -0.4)
    pc = assemble_constraint([atom], cand)
    with pytest.raises(ModelError):
        annotate_net(blocking_net, [pc])


def test_annotate_rejects_two_constraints_on_one_transition(blocking_net):
    cand = PatternCandidate(PatternKind.BLOCKING, "pre-processing", (("downstream", "q1"),))
    pcs = [
        assemble_constraint([(Atom(FeatureRef.nrtokens("q1"), ">", const), -0.4)], cand)
        for const in (4.5, 3.5)
    ]
    with pytest.raises(ModelError, match="pre-processing"):
        annotate_net(blocking_net, pcs)


def test_annotate_rejects_a_guard_the_net_cannot_evaluate():
    # attrval reads a number, and the priority net's cases here carry a text tag
    doc = json.loads((MODELS / "priority.json").read_text())
    for place in doc["places"]:
        if place["id"] in ("arrival", "q1"):
            place["attributes"].append(["tag", "text"])
    doc["transitions"][0]["arrival_spec"]["attributes"]["tag"] = {
        "kind": "choice", "values": ["a", "b"],
    }
    pc = PatternConstraint(PRIORITY_CAND, parse_constraint("attrval(q1, tag, max) <= 1"), 1)
    with pytest.raises(ModelError, match="annotated net is invalid: guard of 'handling' "
                                         "takes attrval of text attribute 'tag'"):
        annotate_net(net_from_json(doc), [pc])


def test_annotated_net_replays_training_log(blocking_net, blocking_log):
    constraints = discover_run(blocking_log, blocking_net).constraints
    annotated = annotate_net(blocking_net.without_guards(), constraints)
    _, report = replay(blocking_log, annotated, check_guards=True)
    assert report.matched == len(blocking_log.events)
    assert not report.unmatched
