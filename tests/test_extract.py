from __future__ import annotations

import pytest

from dsync.constraints import FeatureRef
from dsync.extract import (
    ExtractionParams,
    SplitAtom,
    annotate_net,
    assemble_constraint,
    discover,
    discover_run,
    merge_atoms,
    select_false_leaves,
    trace_and_filter,
)
from dsync.errors import ModelError
from dsync.patterns import PatternCandidate, PatternKind
from dsync.replay import replay
from dsync.tree import TreeNode

RATIO = FeatureRef.ratio(
    FeatureRef.attrval("arrival", "value", "max"),
    FeatureRef.attrval("q1", "value", "max"),
)
ENABLED = FeatureRef.attrenabled("q1", "value", "max")
FEATURES = (RATIO, ENABLED)

PRIORITY_CAND = PatternCandidate(
    PatternKind.PRIORITY, "handling", (("queue", "q1"), ("upstream", "arrival")), "value"
)


def leaf(n_false, n_true, node_id):
    from dsync.tree import gini as gini_of

    return TreeNode(
        gini=gini_of(n_false, n_true),
        samples=n_false + n_true,
        class_counts=(n_false, n_true),
        node_id=node_id,
    )


def priority_tree():
    """Ratio split at the root, enabled split below: the walkthrough shape.

    root: ratio <= 1.505? no -> held leaf (333); yes -> enabled split whose
    false branch holds the remaining 49 held samples.
    """
    ratio_false = leaf(333, 0, 1)
    enabled_false = leaf(49, 2, 3)  # the x <= 0.5 branch: extremum pending
    enabled_true = leaf(0, 500, 4)
    inner = TreeNode(
        gini=0.16, samples=551, class_counts=(51, 500),
        split=(1, 0.5), left=enabled_true, right=enabled_false, node_id=2,
    )
    return TreeNode(
        gini=0.48, samples=884, class_counts=(384, 500),
        split=(0, 1.505), left=ratio_false, right=inner, node_id=0,
    )


def test_select_false_leaves_applies_both_thresholds():
    tree = priority_tree()
    chosen = select_false_leaves(tree, ExtractionParams(tau_s=10, tau_g=0.1))
    assert {l.node_id for l in chosen} == {1, 3}
    # raising tau_s excludes the small leaf; tightening tau_g the impure one
    assert {l.node_id for l in select_false_leaves(tree, ExtractionParams(tau_s=50, tau_g=0.1))} == {1, 3}
    assert {l.node_id for l in select_false_leaves(tree, ExtractionParams(tau_s=340, tau_g=0.1))} == set()
    assert {l.node_id for l in select_false_leaves(tree, ExtractionParams(tau_s=10, tau_g=0.01))} == {1}


def test_pure_true_tree_selects_nothing():
    assert select_false_leaves(leaf(0, 20, 0), ExtractionParams()) == []


def test_trace_keeps_violation_directions_only():
    tree = priority_tree()
    ratio_leaf = tree.left
    atoms = trace_and_filter(tree, ratio_leaf, PatternKind.PRIORITY, FEATURES)
    assert [a.canonical() for a in atoms] == ["ratio(attrval(arrival, value, max), attrval(q1, value, max)) > 1.505"]

    enabled_leaf = tree.right.right
    atoms = trace_and_filter(tree, enabled_leaf, PatternKind.PRIORITY, FEATURES)
    # the ratio <= branch does not match the violation direction; the
    # enabled == false branch does
    assert [a.canonical() for a in atoms] == ["attrenabled(q1, value, max) == false"]


def test_trace_requires_impurity_decrease():
    stray_false = leaf(30, 1, 1)
    pure_true = leaf(0, 10, 2)
    root = TreeNode(
        gini=0.2, samples=41, class_counts=(30, 11),
        split=(0, 2.0), left=stray_false, right=pure_true, node_id=0,
    )
    # the left child is *less* pure than the root, so its split is dropped
    root.left = TreeNode(gini=0.35, samples=31, class_counts=(30, 1), node_id=1)
    atoms = trace_and_filter(root, root.left, PatternKind.PRIORITY, FEATURES)
    assert atoms == []


def test_merge_resolves_duplicates_by_gini_drop():
    a = SplitAtom(ENABLED, "==", True, -0.422, 5)
    b = SplitAtom(ENABLED, "==", False, -0.322, 9)
    merged = merge_atoms([[a], [b]])
    assert merged == [a]


def test_shared_root_split_contributes_one_atom():
    left = leaf(40, 0, 1)
    right_false = leaf(15, 0, 3)
    right_true = leaf(0, 60, 4)
    inner = TreeNode(
        gini=0.3, samples=75, class_counts=(15, 60),
        split=(1, 0.5), left=right_false, right=right_true, node_id=2,
    )
    root = TreeNode(
        gini=0.49, samples=115, class_counts=(55, 60),
        split=(0, 3.2), left=left, right=inner, node_id=0,
    )
    per_leaf = [
        trace_and_filter(root, left, PatternKind.PRIORITY, FEATURES),
        trace_and_filter(root, right_false, PatternKind.PRIORITY, FEATURES),
    ]
    merged = merge_atoms(per_leaf)
    assert sum(1 for a in merged if a.feature.kind == "ratio") == 1


def test_assemble_priority_needs_both_parts():
    ratio_atom = SplitAtom(RATIO, ">", 1.505, -0.3, 0)
    enabled_atom = SplitAtom(ENABLED, "==", True, -0.42, 2)
    pc = assemble_constraint([ratio_atom, enabled_atom], PRIORITY_CAND, support=382)
    assert pc is not None
    assert pc.expr.canonical() == (
        "ratio(attrval(arrival, value, max), attrval(q1, value, max)) <= 1.505 "
        "and attrenabled(q1, value, max) == true"
    )
    assert assemble_constraint([ratio_atom], PRIORITY_CAND) is None


def test_assemble_normalizes_enabled_to_true():
    ratio_atom = SplitAtom(RATIO, ">", 1.5, -0.3, 0)
    enabled_false = SplitAtom(ENABLED, "==", False, -0.32, 2)
    pc = assemble_constraint([ratio_atom, enabled_false], PRIORITY_CAND)
    assert "attrenabled(q1, value, max) == true" in pc.expr.canonical()


def test_assemble_blocking_negates_threshold():
    cand = PatternCandidate(PatternKind.BLOCKING, "pre-processing", (("downstream", "q1"),))
    atom = SplitAtom(FeatureRef.nrtokens("q1"), ">", 4.5, -0.4, 0)
    pc = assemble_constraint([atom], cand, support=100)
    assert pc.expr.canonical() == "nrtokens(q1) <= 4.5"


def test_assemble_holdbatch_needs_both_atoms():
    cand = PatternCandidate(PatternKind.HOLD_BATCH, "transportation", (("input", "q1"),))
    count_atom = SplitAtom(FeatureRef.nrtokensenabled("q1"), "<=", 3.5, -0.2, 0)
    time_atom = SplitAtom(FeatureRef.timeuntilnext("q1"), "<=", 2.0, -0.2, 1)
    pc = assemble_constraint([count_atom, time_atom], cand)
    assert pc.expr.canonical() == "nrtokensenabled(q1) > 3.5 and timeuntilnext(q1) > 2"
    assert assemble_constraint([count_atom], cand) is None


def test_assemble_negates_the_template_comparison_not_the_atoms():
    blocking = PatternCandidate(PatternKind.BLOCKING, "pre-processing", (("downstream", "q1"),))
    count_leq = SplitAtom(FeatureRef.nrtokens("q1"), "<=", 4.5, -0.4, 0)
    assert assemble_constraint([count_leq], blocking).expr.canonical() == "nrtokens(q1) <= 4.5"
    hold = PatternCandidate(PatternKind.HOLD_BATCH, "transportation", (("input", "q1"),))
    count_gt = SplitAtom(FeatureRef.nrtokensenabled("q1"), ">", 3.5, -0.2, 0)
    time_gt = SplitAtom(FeatureRef.timeuntilnext("q1"), ">", 2.0, -0.2, 1)
    pc = assemble_constraint([count_gt, time_gt], hold)
    assert pc.expr.canonical() == "nrtokensenabled(q1) > 3.5 and timeuntilnext(q1) > 2"
    assert pc.provenance == (count_gt, time_gt)


def test_assemble_choice_single_atom():
    cand = PatternCandidate(
        PatternKind.CHOICE, "production_a", (("other_input", "stock_b"), ("shared", "shared"))
    )
    atom = SplitAtom(FeatureRef.timeuntilnext("stock_b"), "<=", 1.915, -0.3, 0)
    pc = assemble_constraint([atom], cand)
    assert pc.expr.canonical() == "timeuntilnext(stock_b) > 1.915"


def test_discover_blocking_round_trip(blocking_net, blocking_log):
    constraints = discover(blocking_log, blocking_net)
    assert len(constraints) == 1
    pc = constraints[0]
    assert pc.kind == PatternKind.BLOCKING and pc.t_g == "pre-processing"
    assert pc.expr.canonical() == "nrtokens(q1) <= 4.5"


def test_discover_is_monotone_in_tau_s(blocking_net, blocking_log):
    lax = discover(blocking_log, blocking_net, extraction_params=ExtractionParams(tau_s=10))
    strict = discover(blocking_log, blocking_net, extraction_params=ExtractionParams(tau_s=120))
    lax_keys = {(pc.t_g, pc.kind) for pc in lax}
    strict_keys = {(pc.t_g, pc.kind) for pc in strict}
    assert strict_keys <= lax_keys


def test_discover_reports_skip_reasons(blocking_net, blocking_log):
    run = discover_run(blocking_log, blocking_net)
    assert all(
        res.constraint is not None or res.skip_reason
        for res in run.results
    )


def test_annotate_replaces_guard(blocking_net, blocking_log):
    constraints = discover(blocking_log, blocking_net)
    annotated = annotate_net(blocking_net, constraints)
    assert annotated.transition("pre-processing").guard.canonical() == "nrtokens(q1) <= 4.5"
    # the original net keeps its modeled guard
    assert blocking_net.transition("pre-processing").guard.canonical() == "nrtokens(q1) < 5"


def test_annotate_empty_list_is_identity(blocking_net):
    assert annotate_net(blocking_net, []) is blocking_net


def test_annotate_unknown_transition_rejected(blocking_net):
    cand = PatternCandidate(PatternKind.BLOCKING, "ghost", (("downstream", "q1"),))
    atom = SplitAtom(FeatureRef.nrtokens("q1"), ">", 4.5, -0.4, 0)
    pc = assemble_constraint([atom], cand)
    with pytest.raises(ModelError):
        annotate_net(blocking_net, [pc])


def test_annotate_rejects_two_constraints_on_one_transition(blocking_net):
    cand = PatternCandidate(PatternKind.BLOCKING, "pre-processing", (("downstream", "q1"),))
    pcs = [
        assemble_constraint([SplitAtom(FeatureRef.nrtokens("q1"), ">", const, -0.4, 0)], cand)
        for const in (4.5, 3.5)
    ]
    with pytest.raises(ModelError, match="pre-processing"):
        annotate_net(blocking_net, pcs)


def test_annotated_net_replays_training_log(blocking_net, blocking_log):
    constraints = discover(blocking_log, blocking_net)
    annotated = annotate_net(blocking_net.without_guards(), constraints)
    _, report = replay(blocking_log, annotated, check_guards=True)
    assert report.matched == len(blocking_log.events)
    assert not report.unmatched
