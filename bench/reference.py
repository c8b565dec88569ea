"""Reference results computed without the code under test.

Every function here works from the benchmark's own inputs (the CSV values it
wrote, the tree text it parsed, the coalition tables it generated) with plain
numpy and Python integers. None of them imports ``shaplab``, so a wrong answer
from the program cannot also be the expected answer.
"""

from __future__ import annotations

from math import factorial

import numpy as np


# --- trees ------------------------------------------------------------------

class TreeArrays:
    """One regression tree from the line format, as flat arrays by position."""

    def __init__(self, lines):
        ids, feature, threshold, left, right, value, coverage = [], [], [], [], [], [], []
        for parts in lines:
            ids.append(int(parts[0]))
            if parts[1] == "leaf":
                feature.append(-1)
                threshold.append(0.0)
                left.append(-1)
                right.append(-1)
                value.append(float(parts[2]))
                coverage.append(int(parts[3]))
            else:
                feature.append(int(parts[2]))
                threshold.append(float(parts[3]))
                left.append(int(parts[4]))
                right.append(int(parts[5]))
                value.append(0.0)
                coverage.append(int(parts[6]))
        pos = {node_id: k for k, node_id in enumerate(ids)}
        self.feature = np.array(feature)
        self.threshold = np.array(threshold)
        self.left = np.array([pos[c] if c >= 0 else -1 for c in left])
        self.right = np.array([pos[c] if c >= 0 else -1 for c in right])
        self.value = np.array(value)
        self.coverage = np.array(coverage)
        self.is_leaf = self.feature < 0

    def predict(self, rows: np.ndarray) -> np.ndarray:
        node = np.zeros(rows.shape[0], dtype=np.intp)  # position 0 is the root
        while True:
            inner = ~self.is_leaf[node]
            if not inner.any():
                return self.value[node]
            at = node[inner]
            go_left = rows[inner, self.feature[at]] <= self.threshold[at]
            node[inner] = np.where(go_left, self.left[at], self.right[at])

    def leaf_paths(self):
        """(leaf position, [(feature, went_left, coverage share, threshold), ...]) per leaf."""
        out = []

        def walk(k, path):
            if self.is_leaf[k]:
                out.append((k, path))
                return
            total = self.coverage[self.left[k]] + self.coverage[self.right[k]]
            for child, went_left in ((self.left[k], True), (self.right[k], False)):
                share = self.coverage[child] / total
                walk(child, path + [(int(self.feature[k]), went_left, share, float(self.threshold[k]))])

        walk(0, [])
        return out


def parse_trees(text: str) -> list[TreeArrays]:
    blocks: list[list[list[str]]] = []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "tree":
            blocks.append([])
        else:
            blocks[-1].append(parts)
    return [TreeArrays(b) for b in blocks]


def ensemble_predict(trees: list[TreeArrays], rows: np.ndarray) -> np.ndarray:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    total = np.zeros(rows.shape[0])
    for tree in trees:
        total = total + tree.predict(rows)
    return total


def tree_conditional_table(trees: list[TreeArrays], x: np.ndarray, d: int) -> np.ndarray:
    """Coverage-weighted expectation for every coalition mask, summed over trees.

    Each leaf's weight is the product along its path of an indicator (the
    feature is known: does x take this branch?) or the branch's coverage share
    (the feature is unknown).
    """
    known = _keep_matrix(d)
    total = np.zeros(1 << d)
    for tree in trees:
        for leaf, path in tree.leaf_paths():
            weight = np.ones(1 << d)
            for feature, went_left, share, threshold in path:
                follows = (x[feature] <= threshold) == went_left
                weight = weight * np.where(known[:, feature], float(follows), share)
            total = total + weight * tree.value[leaf]
    return total


# --- value functions ---------------------------------------------------------

def _philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def replacement_rows(n_rows: int, d: int, kind: str, n_samples: int, seed: int) -> np.ndarray:
    """The documented draw plan: full pass, or Philox(SeedSequence(seed)) indices."""
    if kind == "marginal-joint":
        if n_samples >= n_rows:
            return np.arange(n_rows)
        return _philox(seed).integers(0, n_rows, size=n_samples)
    return _philox(seed).integers(0, n_rows, size=(n_samples, d))


def _keep_matrix(d: int) -> np.ndarray:
    masks = np.arange(1 << d)
    return ((masks[:, None] >> np.arange(d)[None, :]) & 1).astype(bool)


def linear_interventional_table(intercept, coef, rows, x, kind, n_samples, seed) -> np.ndarray:
    """v(S) for a linear model: the mean over hybrids is linear in each column."""
    n_rows, d = rows.shape
    idx = replacement_rows(n_rows, d, kind, n_samples, seed)
    if kind == "marginal-joint":
        fill = rows[idx].mean(axis=0)
    else:
        fill = np.array([rows[idx[:, j], j].mean() for j in range(d)])
    keep = _keep_matrix(d)
    table = intercept + np.where(keep, x[None, :], fill[None, :]) @ coef
    table[-1] = intercept + x @ coef
    return table


def tree_interventional_table(trees, rows, x, n_samples, seed, chunk=64) -> np.ndarray:
    """v(S) for a tree model under marginal-joint sampling, scored in chunks."""
    n_rows, d = rows.shape
    background = rows[replacement_rows(n_rows, d, "marginal-joint", n_samples, seed)]
    keep = _keep_matrix(d)
    table = np.empty(1 << d)
    for start in range(0, 1 << d, chunk):
        k = keep[start:start + chunk]
        hybrids = np.where(k[:, None, :], x[None, None, :], background[None, :, :])
        scores = ensemble_predict(trees, hybrids.reshape(-1, d)).reshape(len(k), -1)
        table[start:start + chunk] = scores.mean(axis=1)
    table[-1] = ensemble_predict(trees, x)[0]
    return table


def conditional_table(trees, rows, x) -> tuple[np.ndarray, int]:
    """Exact-match conditional v(S) and the number of rows the program scores."""
    d = rows.shape[1]
    equal = rows == x[None, :]
    table = np.empty(1 << d)
    scored = 1
    for mask in range((1 << d) - 1):
        cols = [j for j in range(d) if mask >> j & 1]
        matched = rows[equal[:, cols].all(axis=1)] if cols else rows
        table[mask] = ensemble_predict(trees, matched).mean()
        scored += matched.shape[0]
    table[-1] = ensemble_predict(trees, x)[0]
    return table, scored


# --- solvers -----------------------------------------------------------------

def shapley_from_table(table) -> np.ndarray:
    """Weighted-subset Shapley values of a coalition table."""
    v = np.asarray(table, dtype=float)
    n = v.size.bit_length() - 1
    masks = np.arange(1 << n)
    sizes = popcount(masks)
    weights = np.array([factorial(s) * factorial(n - s - 1) / factorial(n) for s in range(n)])
    phi = np.empty(n)
    for i in range(n):
        without = masks[(masks >> i) & 1 == 0]
        phi[i] = np.sum(weights[sizes[without]] * (v[without | (1 << i)] - v[without]))
    return phi


def popcount(masks: np.ndarray) -> np.ndarray:
    counts = np.zeros_like(masks)
    m = masks.copy()
    while m.any():
        counts += m & 1
        m >>= 1
    return counts


def asymmetric_from_table(table, edges) -> tuple[np.ndarray, int]:
    """Precedence-constrained values by counting orderings over downsets.

    a(S) counts admissible orderings that build S, b(T) those that finish from
    T; the weight of adding i to S is a(S) b(S+i) / e with e = a(full). Returns
    the values and e, the number of admissible permutations.
    """
    v = [float(t) for t in table]
    n = len(v).bit_length() - 1
    full = (1 << n) - 1
    pred = [0] * n
    for a, d in edges:
        pred[d] |= 1 << a

    def addable(s):
        return [i for i in range(n) if not s >> i & 1 and pred[i] & ~s == 0]

    a = [0] * (1 << n)
    a[0] = 1
    for s in range(1 << n):
        if a[s]:
            for i in addable(s):
                a[s | 1 << i] += a[s]
    b = [0] * (1 << n)
    b[full] = 1
    for s in range(full - 1, -1, -1):
        b[s] = sum(b[s | 1 << i] for i in addable(s))
    e = a[full]
    phi = [0.0] * n
    for s in range(full):
        if a[s]:
            for i in addable(s):
                t = s | 1 << i
                phi[i] += a[s] * b[t] / e * (v[t] - v[s])
    return np.array(phi), e


def sampled_from_table(table, n_samples: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Documented sampler above the table limit: default_rng(seed) permutations."""
    v = np.asarray(table, dtype=float)
    n = v.size.bit_length() - 1
    rng = np.random.default_rng(seed)
    sums = np.zeros(n)
    sumsq = np.zeros(n)
    for _ in range(n_samples):
        mask = 0
        prev = v[0]
        for j in rng.permutation(n):
            mask |= 1 << int(j)
            cur = v[mask]
            sums[j] += cur - prev
            sumsq[j] += (cur - prev) ** 2
            prev = cur
    phi = sums / n_samples
    var = np.maximum(sumsq - n_samples * phi * phi, 0.0) / (n_samples - 1)
    return phi, np.sqrt(var / n_samples)


def audit_masks_checked(table, profile_tolerance: float) -> int:
    """Masks the exhaustive symmetry and dummy scans inspect before stopping.

    Both scans walk masks in increasing order and stop at the first mask that
    breaks the property, so a fully symmetric game is the worst case.
    """
    v = np.asarray(table, dtype=float)
    n = v.size.bit_length() - 1
    masks = np.arange(1 << n)
    checked = 0

    def until_break(deltas):
        bad = np.flatnonzero(np.abs(deltas) > profile_tolerance)
        return int(bad[0]) + 1 if bad.size else deltas.size

    for i in range(n):
        for j in range(i + 1, n):
            sel = masks[(masks >> i) & 1 == 0]
            sel = sel[(sel >> j) & 1 == 0]
            checked += until_break((v[sel | 1 << i] - v[sel]) - (v[sel | 1 << j] - v[sel]))
    for i in range(n):
        sel = masks[(masks >> i) & 1 == 0]
        checked += until_break(v[sel | 1 << i] - v[sel])
    return checked
