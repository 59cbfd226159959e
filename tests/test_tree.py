from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional, Sequence

import pytest

from tests.conftest import model_path
from dsync.errors import DsyncError
from dsync.extract import discover_run
from dsync.modelfile import load_model
from dsync.simulate import SimConfig, simulate
from dsync.tree import TreeNode, TreeParams, fit, gini, predict, training_accuracy


def test_gini_pure_node():
    assert gini(10, 0) == 0.0
    assert gini(0, 3) == 0.0


def test_gini_balanced_node():
    assert gini(5, 5) == 0.5


def test_gini_two_one():
    assert gini(2, 1) == float(Fraction(4, 9))


def test_gini_empty_node_rejected():
    with pytest.raises(DsyncError):
        gini(0, 0)


def test_gini_matches_closed_form_exactly():
    rng = random.Random(99)
    for _ in range(1000):
        f, t = rng.randint(0, 10_000), rng.randint(0, 10_000)
        if f + t == 0:
            continue
        exact = 1 - Fraction(f, f + t) ** 2 - Fraction(t, f + t) ** 2
        assert gini(f, t) == float(exact)


def four_row_data():
    xs = [[1.0], [2.0], [3.0], [4.0]]
    ys = [x[0] > 2 for x in xs]
    return xs, ys


def test_fit_four_rows_splits_at_midpoint():
    xs, ys = four_row_data()
    tree = fit(xs, ys, TreeParams(max_depth=2, min_samples_leaf=1))
    assert tree.split == (0, 2.5)
    assert tree.right.is_leaf and tree.right.prediction is False
    assert tree.left.is_leaf and tree.left.prediction is True
    assert tree.right.gini == 0.0 and tree.left.gini == 0.0


def test_predict_four_row_tree():
    xs, ys = four_row_data()
    tree = fit(xs, ys, TreeParams(max_depth=2, min_samples_leaf=1))
    assert predict(tree, [1.0]) is False
    assert predict(tree, [4.0]) is True


def test_max_depth_one_grows_a_stump_and_zero_is_rejected():
    # max_depth is a number of split levels, at least one
    xs, ys = four_row_data()
    stump = fit(xs, ys, TreeParams(max_depth=1, min_samples_leaf=1))
    assert stump.split == (0, 2.5) and stump.left.is_leaf and stump.right.is_leaf
    with pytest.raises(DsyncError, match="max_depth must be >= 1"):
        fit(xs, ys, TreeParams(max_depth=0, min_samples_leaf=1))


def test_a_split_that_does_not_decrease_gini_is_not_made():
    # each child of the only split is as impure as the root (0.5 each): a
    # split must decrease Gini by more than min_impurity_decrease, here 0
    tree = fit([[0.0], [0.0], [1.0], [1.0]], [True, False, True, False],
               TreeParams(min_samples_leaf=1))
    assert tree.is_leaf and tree.gini == 0.5


def test_single_class_gives_single_leaf():
    tree = fit([[1.0], [2.0]], [True, True])
    assert tree.is_leaf and tree.gini == 0.0 and tree.prediction is True


def test_fit_rejects_empty_dataset():
    with pytest.raises(DsyncError):
        fit([], [])


def test_fit_rejects_feature_and_label_counts_that_differ():
    with pytest.raises(DsyncError, match="feature and label counts differ"):
        fit([[1.0], [2.0]], [True])


@pytest.mark.parametrize("xs", [[[1.0, 2.0], [1.0]], [[1.0], [1.0, 2.0]]])
def test_fit_rejects_rows_that_differ_in_width(xs):
    # a shorter row would have no value to split on, and a longer row's extra
    # values would be read by no split
    with pytest.raises(DsyncError, match=r"rows differ in width: \[1, 2\] features"):
        fit(xs, [True, False])


def test_predict_schema_mismatch():
    xs, ys = four_row_data()
    tree = fit(xs, ys, TreeParams(max_depth=2, min_samples_leaf=1))
    with pytest.raises(DsyncError):
        predict(tree, [])


def test_fit_is_deterministic():
    rng = random.Random(3)
    xs = [[rng.uniform(0, 1), rng.uniform(0, 1)] for _ in range(60)]
    ys = [x[0] + x[1] > 1 for x in xs]
    a = fit(xs, ys, TreeParams())
    b = fit(xs, ys, TreeParams())
    assert a.to_dict() == b.to_dict()


def test_children_never_increase_weighted_impurity():
    rng = random.Random(11)
    xs = [[rng.uniform(0, 1) for _ in range(3)] for _ in range(120)]
    ys = [rng.random() < 0.4 for _ in range(120)]
    tree = fit(xs, ys, TreeParams(max_depth=4, min_samples_leaf=2))

    def walk(node: TreeNode):
        if node.is_leaf:
            return
        weighted = (
            node.left.samples * node.left.gini + node.right.samples * node.right.gini
        ) / node.samples
        assert weighted <= node.gini + 1e-12
        walk(node.left)
        walk(node.right)

    walk(tree)


def test_samples_sum_at_internal_nodes():
    rng = random.Random(5)
    xs = [[rng.uniform(0, 1)] for _ in range(50)]
    ys = [rng.random() < 0.5 for _ in range(50)]
    tree = fit(xs, ys, TreeParams(max_depth=3, min_samples_leaf=5))

    def walk(node: TreeNode):
        if node.is_leaf:
            return
        assert node.samples == node.left.samples + node.right.samples
        walk(node.left)
        walk(node.right)

    walk(tree)


def test_min_samples_leaf_respected():
    rng = random.Random(8)
    xs = [[rng.uniform(0, 1)] for _ in range(40)]
    ys = [rng.random() < 0.5 for _ in range(40)]
    tree = fit(xs, ys, TreeParams(max_depth=6, min_samples_leaf=7))
    assert all(leaf.samples >= 7 for leaf, _ in tree.leaves())


def test_boolean_encoded_feature_splits_at_half():
    xs = [[0.0], [0.0], [1.0], [1.0]]
    ys = [False, False, True, True]
    tree = fit(xs, ys, TreeParams(max_depth=2, min_samples_leaf=1))
    assert tree.split == (0, 0.5)


def test_training_accuracy_rejects_an_empty_dataset():
    tree = fit([[1.0], [2.0]], [True, False], TreeParams(min_samples_leaf=1))
    with pytest.raises(DsyncError, match="empty dataset"):
        training_accuracy(tree, [], [])


def test_training_accuracy_rejects_feature_and_label_counts_that_differ():
    tree = fit([[1.0], [2.0]], [True, False], TreeParams(min_samples_leaf=1))
    with pytest.raises(DsyncError, match="feature and label counts differ"):
        training_accuracy(tree, [[1.0], [2.0]], [True])


def test_training_accuracy_on_separable_data():
    rng = random.Random(21)
    xs = [[rng.uniform(0, 10)] for _ in range(30)]
    ys = [x[0] > 6.2 for x in xs]
    tree = fit(xs, ys, TreeParams(max_depth=3, min_samples_leaf=1))
    assert training_accuracy(tree, xs, ys) == 1.0


def test_repeated_rows_count_in_samples_and_class_counts():
    # the fit groups equal rows, but a node counts every row
    xs = [[0.0, 1.0]] * 6 + [[1.0, 1.0]] * 4 + [[1.0, 1.0]] * 2
    ys = [False] * 6 + [True] * 4 + [False] * 2
    tree = fit(xs, ys, TreeParams(min_samples_leaf=1))
    assert (tree.samples, tree.class_counts) == (12, (8, 4))
    assert tree.split == (0, 0.5)
    assert (tree.right.samples, tree.right.class_counts) == (6, (6, 0))
    assert (tree.left.samples, tree.left.class_counts) == (6, (2, 4))


# -- fit against the per-row fit ---------------------------------------------
# The per-row fit sorts every row of a node by every feature, at every node.
# ``fit`` works on the distinct rows with their counts and sorts each feature
# once per tree; its trees must equal the per-row fit's, thresholds to the
# sign of a zero.


def _oracle_best_split(
    xs: list[Sequence[float]], ys: list[bool], params: TreeParams
) -> Optional[tuple[int, float, float]]:
    n = len(ys)
    n_true = sum(ys)
    parent = gini(n - n_true, n_true)
    n_features = len(xs[0])
    best: Optional[tuple[int, float, float]] = None
    for f in range(n_features):
        order = sorted(range(n), key=lambda i: xs[i][f])
        true_prefix = 0
        for rank in range(n - 1):
            i = order[rank]
            true_prefix += ys[i]
            value, nxt = xs[i][f], xs[order[rank + 1]][f]
            if value == nxt:
                continue
            n_left = rank + 1
            n_right = n - n_left
            if n_left < params.min_samples_leaf or n_right < params.min_samples_leaf:
                continue
            left = gini(n_left - true_prefix, true_prefix)
            right = gini(n_right - (n_true - true_prefix), n_true - true_prefix)
            decrease = parent - (n_left * left + n_right * right) / n
            threshold = (value + nxt) / 2.0
            if threshold == nxt:  # the midpoint of adjacent floats rounded up
                threshold = value
            if decrease <= params.min_impurity_decrease:
                continue
            if best is None or decrease > best[2] + 1e-12:
                best = (f, threshold, decrease)
    return best


def oracle_fit(xs: list[Sequence[float]], ys: list[bool], params: TreeParams, depth: int = 0) -> TreeNode:
    n_true = sum(ys)
    node = TreeNode(
        gini=gini(len(ys) - n_true, n_true),
        samples=len(ys),
        class_counts=(len(ys) - n_true, n_true),
    )
    if depth >= params.max_depth or node.gini == 0.0:
        return node
    best = _oracle_best_split(xs, ys, params)
    if best is None:
        return node
    f, threshold, _ = best
    left_rows, left_ys, right_rows, right_ys = [], [], [], []
    for row, label in zip(xs, ys):
        if row[f] <= threshold:
            right_rows.append(row)
            right_ys.append(label)
        else:
            left_rows.append(row)
            left_ys.append(label)
    node.split = (f, threshold)
    node.right = oracle_fit(right_rows, right_ys, params, depth + 1)
    node.left = oracle_fit(left_rows, left_ys, params, depth + 1)
    return node


def thresholds(node: TreeNode) -> list[str]:
    """Each split's threshold, as its repr, in preorder: ``to_dict`` compares
    them with ``==``, which takes -0.0 for 0.0."""
    if node.is_leaf:
        return []
    return [repr(node.split[1]), *thresholds(node.right), *thresholds(node.left)]


def assert_same_tree(tree: TreeNode, expected: TreeNode) -> None:
    assert tree.to_dict() == expected.to_dict()
    assert thresholds(tree) == thresholds(expected)


@pytest.mark.parametrize("model", ["blocking", "choice", "holdbatch", "priority", "supplychain"])
def test_discovered_trees_equal_the_per_row_fit(model):
    net = load_model(model_path(model))
    deep = TreeParams(max_depth=8, min_samples_leaf=1)
    fitted = 0
    for seed in (1, 2, 3):
        for cases in (150, 500):
            run = discover_run(simulate(net, SimConfig(seed=seed, max_cases=cases)), net)
            for res in run.results:
                if res.tree is None:
                    continue
                xs, ys = [row.values for row in res.ptlog.rows], res.ptlog.labels()
                assert_same_tree(res.tree, oracle_fit(xs, ys, run.tree_params))
                assert_same_tree(fit(xs, ys, deep), oracle_fit(xs, ys, deep))
                fitted += 1
    assert fitted >= 6


# two adjacent floats whose midpoint rounds up to the upper one
LOW = math.nextafter(1.0, 2.0)
HIGH = math.nextafter(LOW, 2.0)


def test_a_midpoint_that_rounds_to_the_upper_value_partitions_as_the_per_row_fit():
    # the threshold is then the lower value, so the upper value's rows stay
    # on the x > threshold side
    assert (LOW + HIGH) / 2.0 == HIGH
    xs = [[LOW]] * 3 + [[HIGH]] * 3 + [[5.0]] * 3
    ys = [False] * 3 + [True] * 6
    stump = TreeParams(max_depth=1, min_samples_leaf=1)
    tree = fit(xs, ys, stump)
    assert tree.split == (0, LOW) and tree.right.class_counts == (3, 0)
    assert_same_tree(tree, oracle_fit(xs, ys, stump))


def test_a_split_between_adjacent_floats_leaves_no_empty_node():
    # with the upper value as threshold the left child got no row, and its
    # gini raised "gini of an empty node is undefined"
    xs = [[LOW]] * 3 + [[HIGH]] * 3 + [[5.0]] * 3
    ys = [False] * 3 + [True] * 6
    params = TreeParams(min_samples_leaf=1)
    tree = fit(xs, ys, params)
    assert tree.split == (0, LOW)
    assert [leaf.samples for leaf, _ in tree.leaves()] == [6, 3]
    assert_same_tree(tree, oracle_fit(xs, ys, params))


def test_fit_equals_the_per_row_fit_on_random_data_with_ties():
    rng = random.Random(29)
    pools = {
        "bool": [False, True],
        "count": [0, 1, 2, 3, 4.0, 5.0],
        "zero": [0.0, -0.0, 1.0, -1.0],
        "real": [0.25, 1.5, 2.75, -3.0],
    }
    for _ in range(2000):
        n = rng.randint(1, 80)
        kinds = [rng.choice(sorted(pools)) for _ in range(rng.randint(1, 4))]
        xs = [[rng.choice(pools[kind]) for kind in kinds] for _ in range(n)]
        ys = [rng.random() < 0.4 for _ in range(n)]
        params = TreeParams(rng.randint(1, 8), rng.randint(1, 20), rng.choice([0.0, 0.0, 0.02]))
        assert_same_tree(fit(xs, ys, params), oracle_fit(xs, ys, params))
