from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dsync.errors import DsyncError
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


def test_training_accuracy_on_separable_data():
    rng = random.Random(21)
    xs = [[rng.uniform(0, 10)] for _ in range(30)]
    ys = [x[0] > 6.2 for x in xs]
    tree = fit(xs, ys, TreeParams(max_depth=3, min_samples_leaf=1))
    assert training_accuracy(tree, xs, ys) == 1.0
