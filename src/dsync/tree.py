"""Binary classification tree with Gini impurity, grown by greedy splitting.

Feature matrices are plain lists of floats (boolean features are encoded as
0.0/1.0 by the caller). Candidate thresholds are midpoints between
consecutive distinct sorted values, which is what yields the half-step
thresholds characteristic of count features (e.g. 4.5 between 4 and 5).
Everything is deterministic: ties prefer the lowest feature index, then the
lowest threshold.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import DsyncError


def gini(n_false: int, n_true: int) -> float:
    """Gini impurity 1 - p_false^2 - p_true^2 of a two-class node."""
    n = n_false + n_true
    if n < 1:
        raise DsyncError("gini of an empty node is undefined")
    # algebraically identical to 1 - pf^2 - pt^2, but exactly rounded
    return 2.0 * n_false * n_true / (n * n)


@dataclass(frozen=True)
class TreeParams:
    max_depth: int = 5
    min_samples_leaf: int = 5
    min_impurity_decrease: float = 0.0

    def check(self) -> None:
        if self.max_depth < 1:
            raise DsyncError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise DsyncError("min_samples_leaf must be >= 1")


@dataclass
class TreeNode:
    """One node; a leaf iff ``split`` is None.

    ``split`` is (feature index, threshold) with condition ``x <= threshold``;
    ``left`` is the child where the condition is false (x > threshold) and
    ``right`` where it is true.
    """

    gini: float
    samples: int
    class_counts: tuple[int, int]  # (n_false, n_true)
    split: Optional[tuple[int, float]] = None
    left: Optional["TreeNode"] = None
    right: Optional["TreeNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.split is None

    @property
    def prediction(self) -> bool:
        n_false, n_true = self.class_counts
        return n_true > n_false

    def leaves(self, path: Path = ()) -> Iterator[tuple["TreeNode", Path]]:
        """Each leaf, left before right, with its root ``Path``."""
        if self.is_leaf:
            yield self, path
        else:
            yield from self.left.leaves(path + ((self, False),))
            yield from self.right.leaves(path + ((self, True),))

    def to_dict(self, feature_names: Optional[list[str]] = None) -> dict:
        out: dict = {
            "gini": self.gini,
            "samples": self.samples,
            "class_counts": list(self.class_counts),
        }
        if self.is_leaf:
            out["class"] = self.prediction
        else:
            idx, threshold = self.split
            out["feature"] = feature_names[idx] if feature_names else idx
            out["threshold"] = threshold
            out["left"] = self.left.to_dict(feature_names)
            out["right"] = self.right.to_dict(feature_names)
        return out


# a root path: the (node, condition-branch-taken) pairs from the root down
Path = tuple[tuple[TreeNode, bool], ...]


def _best_split(
    xs: list[list[float]], ys: list[bool], params: TreeParams
) -> Optional[tuple[int, float, float]]:
    """(feature, threshold, decrease) of the best admissible split, if any:
    a split is admissible only if it decreases the weighted Gini by strictly
    more than ``min_impurity_decrease``, so with the default 0 a split that
    leaves it unchanged is not made."""
    n = len(ys)
    n_true = sum(ys)
    parent = gini(n - n_true, n_true)
    if parent == 0.0:
        return None
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
            if decrease <= params.min_impurity_decrease:
                continue
            if best is None or decrease > best[2] + 1e-12:
                best = (f, threshold, decrease)
            # ties resolved by construction: lower f first, lower threshold first
    return best


def fit(xs: list[list[float]], ys: list[bool], params: TreeParams = TreeParams()) -> TreeNode:
    """Grow a tree on (rows, labels). Note: splits condition on x <= threshold."""
    params.check()
    if not xs:
        raise DsyncError("cannot fit a tree on an empty dataset")
    if len(xs) != len(ys):
        raise DsyncError("feature and label counts differ")
    return _grow(xs, ys, params, depth=0)


def _grow(xs: list[list[float]], ys: list[bool], params: TreeParams, depth: int) -> TreeNode:
    n_true = sum(ys)
    node = TreeNode(
        gini=gini(len(ys) - n_true, n_true),
        samples=len(ys),
        class_counts=(len(ys) - n_true, n_true),
    )
    if depth >= params.max_depth or node.gini == 0.0:
        return node
    best = _best_split(xs, ys, params)
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
    node.right = _grow(right_rows, right_ys, params, depth + 1)
    node.left = _grow(left_rows, left_ys, params, depth + 1)
    return node


def predict(tree: TreeNode, row: list[float]) -> bool:
    node = tree
    while not node.is_leaf:
        f, threshold = node.split
        if f >= len(row):
            raise DsyncError(
                f"row has {len(row)} features but the tree splits on index {f}"
            )
        node = node.right if row[f] <= threshold else node.left
    return node.prediction


def training_accuracy(tree: TreeNode, xs: list[list[float]], ys: list[bool]) -> float:
    hits = sum(1 for row, label in zip(xs, ys) if predict(tree, row) == label)
    return hits / len(ys)
