"""Binary classification tree with Gini impurity, grown by greedy splitting.

Rows are read as given: a split needs only the order of a feature's values,
and a boolean feature orders ``False`` before ``True``, so its one threshold
is 0.5. Candidate thresholds are midpoints between consecutive distinct
sorted values, which is what yields the half-step thresholds characteristic
of count features (e.g. 4.5 between 4 and 5); where the midpoint of two
adjacent floats rounds up to the upper one, the lower one is the threshold.
Everything is deterministic: ties prefer the lowest feature index, then the
lowest threshold.

A fit works on the distinct rows, each with its count and its count of True
labels, since a split's Gini reads only counts at boundaries between
distinct values (CART, Breiman et al. 1984). It sorts each feature once per
tree and hands each child the orders filtered stably, so no node sorts
(SLIQ, Mehta, Agrawal and Rissanen 1996). Its trees are those of a fit that
sorts every row at every node: the same candidate splits in the same order,
the same float expressions and the same tie order.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, filterfalse
from typing import Iterator, Optional, Sequence

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


def fit(xs: list[Sequence[float]], ys: list[bool], params: TreeParams = TreeParams()) -> TreeNode:
    """Grow a tree on (rows, labels), reading each row as given. Note: splits
    condition on x <= threshold.

    The tree is grown on the distinct rows, each with its count and its
    count of True labels, and each feature is sorted once per tree; the
    splits and their tie order (lower feature index, then lower threshold)
    are those of a fit on every row. A node's ``samples`` and
    ``class_counts`` count the rows given, repeats included. Rows of
    unequal width raise ``DsyncError``.
    """
    params.check()
    if not xs:
        raise DsyncError("cannot fit a tree on an empty dataset")
    if len(xs) != len(ys):
        raise DsyncError("feature and label counts differ")
    rows = _Rows.of(xs, ys)
    indices = list(range(len(rows.counts)))  # one int object per row, shared by the orders
    orders = [sorted(indices, key=col.__getitem__) for col in rows.columns]
    # with no feature, one order still lists the rows, to count them
    return _grow(rows, orders or [indices], params, 0)


@dataclass(frozen=True)
class _Rows:
    """The distinct rows of a fit: each feature's values, and each row's
    count and count of True labels."""

    columns: list[tuple]
    counts: list[int]
    trues: list[int]

    @staticmethod
    def of(xs: list[Sequence[float]], ys: list[bool]) -> "_Rows":
        counts = Counter(map(tuple, xs))
        widths = set(map(len, counts))  # rows of two widths are two distinct rows
        if len(widths) > 1:
            raise DsyncError(f"rows differ in width: {sorted(widths)} features")
        trues = Counter(map(tuple, compress(xs, ys)))
        return _Rows(list(zip(*counts)), list(counts.values()), [trues.get(row, 0) for row in counts])


def _grow(rows: _Rows, orders: list, params: TreeParams, depth: int) -> TreeNode:
    """The subtree on the distinct rows listed, in each feature's order, by
    ``orders``."""
    n = sum(map(rows.counts.__getitem__, orders[0]))
    n_true = sum(map(rows.trues.__getitem__, orders[0]))
    node = TreeNode(gini=gini(n - n_true, n_true), samples=n, class_counts=(n - n_true, n_true))
    if depth >= params.max_depth or node.gini == 0.0:
        return node
    best = _best_split(rows, orders, n, n_true, node.gini, params)
    if best is None:
        return node
    f, threshold = best
    # the rows where x <= threshold lead ``orders[f]``
    right = set(orders[f][: bisect_right(orders[f], threshold, key=rows.columns[f].__getitem__)])
    node.split = (f, threshold)
    node.right = _grow(rows, [list(filter(right.__contains__, o)) for o in orders], params, depth + 1)
    node.left = _grow(rows, [list(filterfalse(right.__contains__, o)) for o in orders], params, depth + 1)
    return node


def _best_split(
    rows: _Rows, orders: list, n: int, n_true: int, parent: float, params: TreeParams
) -> Optional[tuple[int, float]]:
    """(feature, threshold) of the best admissible split of an impure node,
    if any: a split is admissible only if it decreases the weighted Gini by
    strictly more than ``min_impurity_decrease``, so with the default 0 a
    split that leaves it unchanged is not made. Ties go to the lower feature
    index, then the lower threshold: the scan meets them in that order and
    replaces the best only on a larger decrease."""
    counts, trues = rows.counts, rows.trues
    min_leaf = params.min_samples_leaf
    best: Optional[tuple[int, float]] = None
    # what a split's decrease must exceed: min_impurity_decrease, then the best + 1e-12
    bar = params.min_impurity_decrease
    for f, (col, order) in enumerate(zip(rows.columns, orders)):
        n_left = true_prefix = 0
        value = None
        for i in order:
            nxt = col[i]
            # a candidate split lies only between two distinct values
            if nxt != value and min_leaf <= n_left <= n - min_leaf:
                n_right, true_rest = n - n_left, n_true - true_prefix
                # gini() of each side, inlined (the two calls cost a tenth of a
                # fit): the same expression, so the same floats
                left = 2.0 * (n_left - true_prefix) * true_prefix / (n_left * n_left)
                right = 2.0 * (n_right - true_rest) * true_rest / (n_right * n_right)
                decrease = parent - (n_left * left + n_right * right) / n
                if decrease > bar:
                    # between adjacent floats the midpoint can round up to
                    # ``nxt``, which would put its rows on the x <= side
                    mid = (value + nxt) / 2.0
                    best, bar = (f, mid if mid < nxt else value), decrease + 1e-12
            n_left += counts[i]
            true_prefix += trues[i]
            value = nxt
    return best


def predict(tree: TreeNode, row: Sequence[float]) -> bool:
    node = tree
    while not node.is_leaf:
        f, threshold = node.split
        if f >= len(row):
            raise DsyncError(
                f"row has {len(row)} features but the tree splits on index {f}"
            )
        node = node.right if row[f] <= threshold else node.left
    return node.prediction


def training_accuracy(tree: TreeNode, xs: list[Sequence[float]], ys: list[bool]) -> float:
    if not ys:
        raise DsyncError("training accuracy of an empty dataset is undefined")
    if len(xs) != len(ys):
        raise DsyncError("feature and label counts differ")
    hits = sum(1 for row, label in zip(xs, ys) if predict(tree, row) == label)
    return hits / len(ys)
