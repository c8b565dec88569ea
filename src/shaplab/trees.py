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

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TabularDataset
from .games import Coalition


class TreeFormatError(ValueError):
    """Malformed tree text."""


class ZeroCoverageError(ValueError):
    """Conditioning descended into a region with no training coverage."""


@dataclass(frozen=True)
class TreeNode:
    node_id: int
    feature: int  # -1 for leaves
    threshold: float
    left: int  # -1 for leaves
    right: int
    value: float  # leaf prediction; 0.0 for splits
    coverage: int

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class DecisionTree:
    """Binary regression tree; rows with feature <= threshold go left.

    ``score`` walks the nodes for one row; ``predict`` walks a block of rows
    through node-index arrays built once at construction.
    """

    def __init__(self, nodes: list[TreeNode]):
        if not nodes:
            raise TreeFormatError("a tree needs at least one node")
        self._by_id = {n.node_id: n for n in nodes}
        if len(self._by_id) != len(nodes):
            raise TreeFormatError("duplicate node ids")
        self.root_id = nodes[0].node_id
        self.nodes = list(nodes)
        for n in nodes:
            if not n.is_leaf:
                if n.left not in self._by_id or n.right not in self._by_id:
                    raise TreeFormatError(f"node {n.node_id} references missing children")
                child_cov = self._by_id[n.left].coverage + self._by_id[n.right].coverage
                if child_cov != n.coverage:
                    raise TreeFormatError(
                        f"node {n.node_id} coverage {n.coverage} != children sum {child_cov}"
                    )
        self.depth = self._check_shape()
        feats = [n.feature for n in nodes if not n.is_leaf]
        self.arity = max(feats) + 1 if feats else 1
        self._arrays = _NodeArrays([self])

    def _check_shape(self) -> int:
        """Depth of the tree, once the root is shown to reach every node
        exactly once: no cycles, no shared children, no orphans."""
        seen = set()
        depth = 0
        stack = [(self.root_id, 0)]
        while stack:
            node_id, level = stack.pop()
            if node_id in seen:
                raise TreeFormatError(
                    f"node {node_id} is reached twice from the root (a cycle or a shared child)"
                )
            seen.add(node_id)
            node = self._by_id[node_id]
            if node.is_leaf:
                depth = max(depth, level)
            else:
                stack += [(node.left, level + 1), (node.right, level + 1)]
        orphans = sorted(set(self._by_id) - seen)
        if orphans:
            raise TreeFormatError(f"nodes {orphans} are not reachable from the root {self.root_id}")
        return depth

    def node(self, node_id: int) -> TreeNode:
        return self._by_id[node_id]

    def score(self, row) -> float:
        node = self._by_id[self.root_id]
        while not node.is_leaf:
            node = self._by_id[node.left if row[node.feature] <= node.threshold else node.right]
        return node.value

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
    """The nodes of one or more trees as flat arrays indexed by position.

    Leaves point to themselves on both sides, so a walk of ``depth`` steps
    leaves every row at its leaf in every tree without masking.
    """

    def __init__(self, trees: list[DecisionTree]):
        feature, threshold, left, right, value, roots = [], [], [], [], [], []
        for tree in trees:
            offset = len(feature)
            position = {n.node_id: offset + k for k, n in enumerate(tree.nodes)}
            roots.append(position[tree.root_id])
            for n in tree.nodes:
                here = position[n.node_id]
                feature.append(0 if n.is_leaf else n.feature)
                threshold.append(n.threshold)
                left.append(here if n.is_leaf else position[n.left])
                right.append(here if n.is_leaf else position[n.right])
                value.append(n.value)
        self.feature = np.array(feature, dtype=np.intp)
        self.threshold = np.array(threshold, dtype=float)
        self.left = np.array(left, dtype=np.intp)
        self.right = np.array(right, dtype=np.intp)
        self.value = np.array(value, dtype=float)
        self.roots = np.array(roots, dtype=np.intp)
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

    def descend(node: TreeNode) -> float:
        if node.is_leaf:
            return node.value
        if known.contains(node.feature):
            child = tree.node(node.left if x[node.feature] <= node.threshold else node.right)
            if child.coverage == 0:
                raise ZeroCoverageError(
                    f"conditioning path reached zero-coverage node {child.node_id}"
                )
            return descend(child)
        left, right = tree.node(node.left), tree.node(node.right)
        total = left.coverage + right.coverage
        if total == 0:
            raise ZeroCoverageError(f"node {node.node_id} has zero total child coverage")
        out = 0.0
        if left.coverage:
            out += descend(left) * (left.coverage / total)
        if right.coverage:
            out += descend(right) * (right.coverage / total)
        return out

    root = tree.node(tree.root_id)
    if root.coverage == 0:
        raise ZeroCoverageError("root has zero coverage")
    return descend(root)


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
    nodes: list[TreeNode] = []

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
        node_id = len(nodes)
        nodes.append(None)  # placeholder, replaced below
        pure = bool(np.all(y[idx] == y[idx][0]))
        split = None if (depth >= max_depth or pure) else best_split(idx)
        if split is None:
            nodes[node_id] = TreeNode(node_id, -1, 0.0, -1, -1, float(y[idx].mean()), len(idx))
            return node_id
        _, j, t = split
        left_id = grow(idx[rows[idx, j] <= t], depth + 1)
        right_id = grow(idx[rows[idx, j] > t], depth + 1)
        nodes[node_id] = TreeNode(node_id, j, float(t), left_id, right_id, 0.0, len(idx))
        return node_id

    grow(np.arange(data.n_rows), 0)
    return DecisionTree(nodes)


def dump_tree_text(model) -> str:
    """Serialize a tree or ensemble to the documented line format."""
    trees = model.trees if isinstance(model, TreeEnsemble) else [model]
    lines = []
    for k, tree in enumerate(trees):
        lines.append(f"tree {k}")
        ordering = [tree.node(tree.root_id)] + [
            n for n in tree.nodes if n.node_id != tree.root_id
        ]
        for n in ordering:
            if n.is_leaf:
                lines.append(f"{n.node_id} leaf {n.value!r} {n.coverage}")
            else:
                lines.append(
                    f"{n.node_id} split {n.feature} {n.threshold!r} {n.left} {n.right} {n.coverage}"
                )
    return "\n".join(lines) + "\n"


def load_tree_text(text: str):
    """Parse the line format; one block gives a DecisionTree, several an ensemble."""
    blocks: list[list[TreeNode]] = []
    current: list[TreeNode] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "tree":
            current = []
            blocks.append(current)
            continue
        if current is None:
            current = []
            blocks.append(current)
        try:
            node_id, kind = int(parts[0]), parts[1]
            if kind == "leaf":
                current.append(TreeNode(node_id, -1, 0.0, -1, -1, float(parts[2]), int(parts[3])))
            elif kind == "split":
                current.append(
                    TreeNode(
                        node_id,
                        int(parts[2]),
                        float(parts[3]),
                        int(parts[4]),
                        int(parts[5]),
                        0.0,
                        int(parts[6]),
                    )
                )
            else:
                raise TreeFormatError(f"line {lineno}: unknown node kind {kind!r}")
        except (IndexError, ValueError) as exc:
            raise TreeFormatError(f"line {lineno}: {exc}") from None
    if not blocks or not blocks[0]:
        raise TreeFormatError("no tree nodes found")
    trees = [DecisionTree(nodes) for nodes in blocks]
    return trees[0] if len(trees) == 1 else TreeEnsemble(trees)


def save_tree(model, path) -> None:
    Path(path).write_text(dump_tree_text(model))


def load_tree(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise TreeFormatError(f"not UTF-8 text: {exc}") from None
    return load_tree_text(text)
