"""Regression trees with per-node coverage counts and a leaf-coverage
conditional-expectation estimator.

The estimator descends the tree once: at a split on a known feature it follows
the instance's branch, at a split on an unknown feature it averages both
children weighted by training coverage. This is the path-dependent reading of
coverage-based conditioning; it coincides with exact empirical conditioning
only on trees whose split structure realizes the conditioning sets (the
alternative, fully interventional reading replaces unknown features from a
background distribution and is intentionally not implemented here).

Serialization is a line-oriented text format, one node per line:

    tree <k>
    <id> split <feature> <threshold> <left_id> <right_id> <coverage>
    <id> leaf <value> <coverage>

The first node of each block is the root. Floats are written with ``repr`` so
round-trips are exact. A file with several ``tree`` blocks loads as an
ensemble whose score is the sum of its trees' scores.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import TabularDataset
from .games import Coalition


class TreeFormatError(ValueError):
    """Malformed tree text."""


class ZeroCoverageError(ValueError):
    """Conditioning descended into a region with no training coverage."""


class TreeNode(NamedTuple):
    """One node's fields; ``DecisionTree(nodes)`` unzips a list of them into columns."""

    node_id: int
    feature: int  # -1 for leaves
    threshold: float
    left: int  # child node id; -1 for leaves
    right: int
    value: float  # leaf prediction; 0.0 for splits
    coverage: int


class DecisionTree:
    """Binary regression tree held as node columns; rows with feature <= threshold go left.

    ``node_id``, ``feature``, ``threshold``, ``left``, ``right``, ``value`` and
    ``coverage`` are tuples indexed by node position. The root is at position
    0, ``left`` and ``right`` hold child positions, and a leaf has feature and
    children -1. ``score`` walks the columns for one row; ``predict`` walks a
    block of rows through arrays concatenated from them.
    """

    def __init__(self, nodes: list[TreeNode]):
        self._set_columns(*(zip(*nodes) if nodes else [()] * len(TreeNode._fields)))

    @classmethod
    def _from_columns(cls, *columns) -> DecisionTree:
        tree = cls.__new__(cls)
        tree._set_columns(*columns)
        return tree

    def _set_columns(self, node_id, feature, threshold, left, right, value, coverage) -> None:
        """Validate columns whose children are node ids, then keep them with
        children as positions. The root, at position 0, must reach every node
        exactly once: no cycles, no shared children, no orphans."""
        n = len(node_id)
        if not n:
            raise TreeFormatError("a tree needs at least one node")
        position = {i: k for k, i in enumerate(node_id)}
        if len(position) != n:
            raise TreeFormatError("duplicate node ids")
        leaf = [f == -1 and a == -1 and b == -1 for f, a, b in zip(feature, left, right)]
        for k in range(n):
            if coverage[k] < 0:
                raise TreeFormatError(f"node {node_id[k]} has the negative coverage {coverage[k]}")
            if leaf[k]:
                if not math.isfinite(value[k]):
                    raise TreeFormatError(f"node {node_id[k]} has the non-finite value {value[k]}")
                continue
            if feature[k] < 0:
                raise TreeFormatError(f"node {node_id[k]} splits on the negative feature {feature[k]}")
            if math.isnan(threshold[k]):
                raise TreeFormatError(f"node {node_id[k]} has the threshold nan")
            if left[k] not in position or right[k] not in position:
                raise TreeFormatError(f"node {node_id[k]} references missing children")
            child_cov = coverage[position[left[k]]] + coverage[position[right[k]]]
            if child_cov != coverage[k]:
                raise TreeFormatError(
                    f"node {node_id[k]} coverage {coverage[k]} != children sum {child_cov}"
                )
        self.node_id = tuple(node_id)
        self.feature = tuple(feature)
        self.threshold = tuple(threshold)
        self.left = tuple(-1 if leaf[k] else position[left[k]] for k in range(n))
        self.right = tuple(-1 if leaf[k] else position[right[k]] for k in range(n))
        self.value = tuple(value)
        self.coverage = tuple(coverage)
        seen = [False] * n
        self.depth = 0
        stack = [(0, 0)]
        while stack:
            k, level = stack.pop()
            if seen[k]:
                raise TreeFormatError(
                    f"node {node_id[k]} is reached twice from the root (a cycle or a shared child)"
                )
            seen[k] = True
            if leaf[k]:
                self.depth = max(self.depth, level)
            else:
                stack += [(self.left[k], level + 1), (self.right[k], level + 1)]
        orphans = sorted(i for i, reached in zip(node_id, seen) if not reached)
        if orphans:
            raise TreeFormatError(f"nodes {orphans} are not reachable from the root {node_id[0]}")
        self.arity = max((f for f, is_leaf in zip(feature, leaf) if not is_leaf), default=0) + 1
        self._arrays = _NodeArrays([self])

    def score(self, row) -> float:
        feature, threshold, left, right = self.feature, self.threshold, self.left, self.right
        k = 0
        while left[k] >= 0:
            k = left[k] if row[feature[k]] <= threshold[k] else right[k]
        return self.value[k]

    def predict(self, rows) -> np.ndarray:
        return self._arrays.leaf_values(rows)[:, 0]


class TreeEnsemble:
    """Sum of decision trees, walked together by ``predict``."""

    def __init__(self, trees: list[DecisionTree]):
        if not trees:
            raise TreeFormatError("an ensemble needs at least one tree")
        self.trees = list(trees)
        self.arity = max(t.arity for t in trees)
        self._arrays = _NodeArrays(self.trees)

    def score(self, row) -> float:
        return sum(t.score(row) for t in self.trees)

    def predict(self, rows) -> np.ndarray:
        leaves = self._arrays.leaf_values(rows)
        out = np.zeros(leaves.shape[0])
        for column in leaves.T:  # tree by tree from 0.0, as score's sum adds
            out += column
        return out


class _NodeArrays:
    """The columns of one or more trees concatenated, children offset to
    positions in the concatenation.

    Leaves point to themselves on both sides, so a walk of ``depth`` steps
    leaves every row at its leaf in every tree without masking.
    """

    def __init__(self, trees: list[DecisionTree]):
        sizes = [len(t.node_id) for t in trees]
        self.roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        offset = np.repeat(self.roots, sizes)
        feature = np.concatenate([t.feature for t in trees], dtype=np.intp)
        leaf = feature < 0
        here = np.arange(len(feature), dtype=np.intp)
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.concatenate([t.threshold for t in trees], dtype=float)
        self.left = np.where(leaf, here, np.concatenate([t.left for t in trees]) + offset)
        self.right = np.where(leaf, here, np.concatenate([t.right for t in trees]) + offset)
        self.value = np.concatenate([t.value for t in trees], dtype=float)
        self.depth = max(t.depth for t in trees)
        self.width = max(t.arity for t in trees)

    def leaf_values(self, rows) -> np.ndarray:
        """(m, n_trees) leaf values reached by each row in each tree."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] < self.width:
            raise ValueError(f"expected an (m, >= {self.width}) block of rows, got shape {rows.shape}")
        # bounded chunks keep the walk's temporaries small on large blocks
        chunks = range(0, max(rows.shape[0], 1), _WALK_ROWS)
        return np.concatenate([self._walk(rows[k:k + _WALK_ROWS]) for k in chunks])

    def _walk(self, rows: np.ndarray) -> np.ndarray:
        m, d = rows.shape
        flat = rows.ravel()
        base = np.arange(0, m * d, d)[:, None]
        node = np.zeros((m, 1), dtype=np.intp) + self.roots
        for _ in range(self.depth):
            go_left = flat[base + self.feature[node]] <= self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


_WALK_ROWS = 1024


def tree_conditional_expectation(tree, x, known: Coalition) -> float:
    """Coverage-weighted expected prediction given the features in ``known``.

    With everything known this is the plain prediction; with nothing known it
    is the coverage-weighted mean over leaves. Accepts a single tree or an
    ensemble (summing per tree).
    """
    if isinstance(tree, TreeEnsemble):
        return sum(tree_conditional_expectation(t, x, known) for t in tree.trees)
    feature, threshold, left, right = tree.feature, tree.threshold, tree.left, tree.right
    value, coverage = tree.value, tree.coverage

    def descend(k: int) -> float:
        if left[k] < 0:
            return value[k]
        if known.contains(feature[k]):
            child = left[k] if x[feature[k]] <= threshold[k] else right[k]
            if coverage[child] == 0:
                raise ZeroCoverageError(
                    f"conditioning path reached zero-coverage node {tree.node_id[child]}"
                )
            return descend(child)
        # descend only enters covered nodes, and a node's coverage is its
        # children's sum, so the total here is never zero
        total = coverage[k]
        out = 0.0
        if coverage[left[k]]:
            out += descend(left[k]) * (coverage[left[k]] / total)
        if coverage[right[k]]:
            out += descend(right[k]) * (coverage[right[k]] / total)
        return out

    if coverage[0] == 0:
        raise ZeroCoverageError("root has zero coverage")
    return descend(0)


def build_tree_from_data(data: TabularDataset, targets, max_depth: int) -> DecisionTree:
    """Greedy variance-reduction splitter with midpoint thresholds.

    A node's candidate thresholds are the midpoints between adjacent distinct
    values of each feature; a midpoint that rounds onto the upper value (two
    neighbouring floats) is replaced by the lower value, which cuts the same
    rows. The split minimizes the key (sse(left) + sse(right), feature,
    threshold), with sse the two-pass sum of squared deviations from the mean.
    Each feature is sorted once per node and prefix sums of the centred targets
    price every candidate in one numpy pass; the candidates whose price lies
    within a rounding margin of the cheapest are then keyed exactly, so the
    tree is the one an exhaustive search of exact keys would build.

    Deterministic: ties are broken by lowest feature index, then lowest
    threshold. Splitting continues while the node is impure and depth remains,
    even when the best split yields no immediate variance reduction (an XOR
    pattern needs the zero-gain first cut). Constant targets produce a single
    leaf. Non-finite targets or rows raise ``ValueError`` naming the first.
    """
    y = np.asarray(targets, dtype=float)
    if y.shape != (data.n_rows,):
        raise ValueError(f"targets must have length {data.n_rows}")
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    rows = data.rows
    bad = np.flatnonzero(~np.isfinite(y))
    if len(bad):
        raise ValueError(f"target {bad[0]} is {y[bad[0]]}, not finite")
    bad = np.argwhere(~np.isfinite(rows))
    if len(bad):
        i, j = bad[0]
        raise ValueError(f"row {i} has the non-finite value {rows[i, j]} in feature {j}")
    nodes = []  # (feature, threshold, left, right, value, coverage) by position

    def sse(values: np.ndarray) -> float:
        return float(np.sum((values - values.mean()) ** 2)) if len(values) else 0.0

    def best_split(idx: np.ndarray):
        n = len(idx)
        block = rows[idx].T  # (features, n), each feature's values in idx order
        order = np.argsort(block, axis=1, kind="stable")
        ranked = np.take_along_axis(block, order, axis=1)
        # a candidate cuts feature j between sorted positions k and k + 1
        feature, k = np.nonzero(ranked[:, 1:] != ranked[:, :-1])
        if not len(feature):
            return None
        node_y = y[idx]
        # Overflow makes a price or the margin NaN or infinite, which keeps
        # every candidate for the exact keys.
        with np.errstate(over="ignore", invalid="ignore"):
            centred = (node_y - node_y.mean())[order]
            sums, squares = np.cumsum(centred, axis=1), np.cumsum(centred * centred, axis=1)
            left_sum, left_squares = sums[feature, k], squares[feature, k]
            right_sum, right_squares = sums[feature, -1] - left_sum, squares[feature, -1] - left_squares
            price = (left_squares - left_sum * left_sum / (k + 1)) + (
                right_squares - right_sum * right_sum / (n - k - 1)
            )
            # Twice a bound on |price - true SSE| plus |sse() - true SSE|, so the
            # least exact key is always among the kept candidates. The terms cover
            # the prefix sums, sse() centring at an inexact mean, and underflow.
            eps = np.finfo(float).eps
            total = float(squares[:, -1].max())
            biggest = float(np.abs(node_y).max())
            margin = 64 * n**1.5 * eps * total + 8 * n * (n * eps * biggest) ** 2 + n * np.finfo(float).tiny
            near = ~(price > price.min() + margin)
        best = None  # (sse, feature, threshold)
        for j, at in zip(feature[near].tolist(), k[near].tolist()):
            a, b = ranked[j, at], ranked[j, at + 1]
            t = (a + b) / 2.0
            if not a <= t < b:  # neighbouring floats can round onto b; a cuts the same rows
                t = a
            goes_left = block[j] <= t
            key = (sse(node_y[goes_left]) + sse(node_y[~goes_left]), j, t)
            if best is None or key < best:
                best = key
        return best

    def grow(idx: np.ndarray, depth: int) -> int:
        k = len(nodes)
        nodes.append(None)  # placeholder, replaced below
        pure = bool(np.all(y[idx] == y[idx][0]))
        split = None if (depth >= max_depth or pure) else best_split(idx)
        if split is None:
            nodes[k] = (-1, 0.0, -1, -1, float(y[idx].mean()), len(idx))
            return k
        _, j, t = split
        left = grow(idx[rows[idx, j] <= t], depth + 1)
        right = grow(idx[rows[idx, j] > t], depth + 1)
        nodes[k] = (j, float(t), left, right, 0.0, len(idx))
        return k

    grow(np.arange(data.n_rows), 0)
    # node ids are positions
    return DecisionTree._from_columns(range(len(nodes)), *zip(*nodes))


def dump_tree_text(model) -> str:
    """Serialize a tree or ensemble to the documented line format."""
    trees = model.trees if isinstance(model, TreeEnsemble) else [model]
    lines = []
    for t, tree in enumerate(trees):
        lines.append(f"tree {t}")
        ids = tree.node_id
        for k, node_id in enumerate(ids):
            a, b, c = tree.left[k], tree.right[k], tree.coverage[k]
            if a < 0:
                lines.append(f"{node_id} leaf {tree.value[k]!r} {c}")
            else:
                lines.append(f"{node_id} split {tree.feature[k]} {tree.threshold[k]!r} {ids[a]} {ids[b]} {c}")
    return "\n".join(lines) + "\n"


def load_tree_text(text: str):
    """Parse the line format; one block gives a DecisionTree, several an ensemble."""
    blocks: list[list[list]] = []  # per block, the seven columns of TreeNode's fields
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "tree":
            blocks.append([[] for _ in TreeNode._fields])
            continue
        if not blocks:
            blocks.append([[] for _ in TreeNode._fields])
        try:
            node_id, kind = int(parts[0]), parts[1]
            if kind == "leaf":
                fields = (node_id, -1, 0.0, -1, -1, float(parts[2]), int(parts[3]))
            elif kind == "split":
                fields = (node_id, int(parts[2]), float(parts[3]), int(parts[4]), int(parts[5]), 0.0, int(parts[6]))
        except (IndexError, ValueError) as exc:
            raise TreeFormatError(f"line {lineno}: {exc}") from None
        if kind not in ("leaf", "split"):
            raise TreeFormatError(f"line {lineno}: unknown node kind {kind!r}")
        for column, field in zip(blocks[-1], fields):
            column.append(field)
    if not blocks or not blocks[0][0]:
        raise TreeFormatError("no tree nodes found")
    trees = [DecisionTree._from_columns(*columns) for columns in blocks]
    return trees[0] if len(trees) == 1 else TreeEnsemble(trees)


def save_tree(model, path) -> None:
    Path(path).write_text(dump_tree_text(model))


def load_tree(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TreeFormatError(f"not UTF-8 text: {exc}") from None
    return load_tree_text(text)
