"""Tree building, leaf-coverage conditioning and text serialization."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shaplab import (
    Coalition,
    DecisionTree,
    LinearModel,
    TabularDataset,
    TreeEnsemble,
    TreeNode,
    build_conditional_game,
    build_tree_from_data,
    dump_tree_text,
    load_tree,
    load_tree_text,
    save_tree,
    tree_conditional_expectation,
)
from shaplab.trees import TreeFormatError, ZeroCoverageError


def stump(threshold=0.5, left=0.0, right=1.0, cov=(50, 50)):
    return DecisionTree(
        [
            TreeNode(0, 0, threshold, 1, 2, 0.0, cov[0] + cov[1]),
            TreeNode(1, -1, 0.0, -1, -1, left, cov[0]),
            TreeNode(2, -1, 0.0, -1, -1, right, cov[1]),
        ]
    )


class TestConditionalExpectation:
    def test_stump_unconditioned_is_coverage_mean(self):
        assert tree_conditional_expectation(stump(), [0.7], Coalition.empty(1)) == 0.5

    def test_stump_fully_conditioned(self):
        assert tree_conditional_expectation(stump(), [0.7], Coalition.full(1)) == 1.0
        assert tree_conditional_expectation(stump(), [0.2], Coalition.full(1)) == 0.0

    def test_full_set_equals_score(self):
        t = stump(cov=(30, 70))
        for x in ([0.1], [0.9]):
            assert tree_conditional_expectation(t, x, Coalition.full(1)) == t.score(x)

    def test_skewed_coverage_mean(self):
        t = stump(cov=(30, 70))
        assert tree_conditional_expectation(t, [0.0], Coalition.empty(1)) == pytest.approx(0.7, abs=1e-12)

    def test_depth2_tree_matches_empirical_conditioning(self):
        """Hand-built depth-2 tree over the correlated two-row design: the
        root splits the conditioned feature, so coverage descent reproduces
        the exact empirical conditional mean."""
        # rows (0,0) and (1,1); targets = feature 0; root splits feature 1
        tree = DecisionTree(
            [
                TreeNode(0, 1, 0.5, 1, 4, 0.0, 2),
                TreeNode(1, 0, 0.5, 2, 3, 0.0, 1),
                TreeNode(2, -1, 0.0, -1, -1, 0.0, 1),   # (0,0)
                TreeNode(3, -1, 0.0, -1, -1, 1.0, 0),   # unseen region
                TreeNode(4, 0, 0.5, 5, 6, 0.0, 1),
                TreeNode(5, -1, 0.0, -1, -1, 0.0, 0),   # unseen region
                TreeNode(6, -1, 0.0, -1, -1, 1.0, 1),   # (1,1)
            ]
        )
        data = TabularDataset(["a", "b"], [[0, 0], [1, 1]])
        model = LinearModel(0.0, [1.0, 0.0])
        game = build_conditional_game(model, data, [1, 1])
        known_b = Coalition.of([1], 2)
        assert tree_conditional_expectation(tree, [1, 1], known_b) == pytest.approx(
            game.value_mask(known_b.mask), abs=1e-9
        )
        assert tree_conditional_expectation(tree, [1, 1], Coalition.empty(2)) == pytest.approx(
            game.empty_value, abs=1e-9
        )

    def test_ensemble_sums_over_trees(self):
        ensemble = TreeEnsemble([stump(), stump(left=1.0, right=3.0)])
        assert tree_conditional_expectation(ensemble, [0.9], Coalition.full(1)) == 4.0
        assert tree_conditional_expectation(ensemble, [0.9], Coalition.empty(1)) == 2.5

    def test_zero_coverage_errors(self):
        dead = DecisionTree(
            [
                TreeNode(0, 0, 0.5, 1, 2, 0.0, 0),
                TreeNode(1, -1, 0.0, -1, -1, 0.0, 0),
                TreeNode(2, -1, 0.0, -1, -1, 1.0, 0),
            ]
        )
        with pytest.raises(ZeroCoverageError):
            tree_conditional_expectation(dead, [0.0], Coalition.empty(1))
        half_dead = stump(cov=(0, 2))
        with pytest.raises(ZeroCoverageError):
            # conditioning forces descent into the zero-coverage branch
            tree_conditional_expectation(half_dead, [0.2], Coalition.full(1))


def oracle_expectation(nodes, x, known):
    """The recursive descent over node ids that ``tree_conditional_expectation``
    used before trees became node columns, kept as its reference: the same
    arithmetic in the same order and the same errors."""
    by_id = {n.node_id: n for n in nodes}

    def descend(node):
        if node.feature < 0:
            return node.value
        if known.contains(node.feature):
            child = by_id[node.left if x[node.feature] <= node.threshold else node.right]
            if child.coverage == 0:
                raise ZeroCoverageError(f"conditioning path reached zero-coverage node {child.node_id}")
            return descend(child)
        left, right = by_id[node.left], by_id[node.right]
        total = left.coverage + right.coverage
        if total == 0:
            raise ZeroCoverageError(f"node {node.node_id} has zero total child coverage")
        out = 0.0
        if left.coverage:
            out += descend(left) * (left.coverage / total)
        if right.coverage:
            out += descend(right) * (right.coverage / total)
        return out

    if nodes[0].coverage == 0:
        raise ZeroCoverageError("root has zero coverage")
    return descend(nodes[0])


LEVELS = [-1.0, 0.0, 0.5, 2.0]


@st.composite
def drawn_tree_nodes(draw, d):
    """A valid tree as TreeNodes: root first, the other nodes in drawn order,
    drawn distinct ids (negative ones too) and zero-coverage leaves."""
    rows = []  # (feature, threshold, left, right, value, coverage) in pre-order

    def grow(depth):
        k = len(rows)
        rows.append(None)
        if depth == 4 or draw(st.integers(0, 2)) == 0:
            coverage = draw(st.sampled_from([0, 0, 1, 2, 3, 7, 100]))
            rows[k] = (-1, 0.0, -1, -1, draw(st.floats(-10.0, 10.0)), coverage)
            return k
        feature, threshold = draw(st.integers(0, d - 1)), draw(st.sampled_from(LEVELS))
        left, right = grow(depth + 1), grow(depth + 1)
        rows[k] = (feature, threshold, left, right, 0.0, rows[left][5] + rows[right][5])
        return k

    grow(0)
    n = len(rows)
    ids = draw(st.lists(st.integers(-20, 60), min_size=n, max_size=n, unique=True))
    order = [0] + draw(st.permutations(range(1, n)))
    return [
        TreeNode(ids[k], f, t, ids[a] if a >= 0 else -1, ids[b] if b >= 0 else -1, v, c)
        for k in order
        for f, t, a, b, v, c in [rows[k]]
    ]


def outcome(compute):
    """The bits of a result, or the message of the ZeroCoverageError it raised."""
    try:
        return float(compute()).hex()
    except ZeroCoverageError as exc:
        return f"ZeroCoverageError: {exc}"


class TestDescentOracle:
    """Descent over positions gives the id-based recursion's bits and errors."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_oracle(self, data):
        d = data.draw(st.integers(1, 4))
        drawn = data.draw(st.lists(drawn_tree_nodes(d), min_size=1, max_size=2))
        x = data.draw(st.lists(st.sampled_from(LEVELS + [0.25, 3.0]), min_size=d, max_size=d))
        trees = [DecisionTree(nodes) for nodes in drawn]
        for mask in range(1 << d):
            known = Coalition(mask, d)
            for model, oracle in [
                (trees[0], lambda: oracle_expectation(drawn[0], x, known)),
                (TreeEnsemble(trees), lambda: sum(oracle_expectation(nodes, x, known) for nodes in drawn)),
            ]:
                assert outcome(lambda: tree_conditional_expectation(model, x, known)) == outcome(oracle)


class TestBuildTree:
    def test_separable_single_feature(self):
        data = TabularDataset(["x"], [[0.0], [1.0], [2.0], [3.0]])
        targets = [0.0, 0.0, 1.0, 1.0]
        tree = build_tree_from_data(data, targets, max_depth=1)
        assert [tree.score(r) for r in data.rows] == targets
        assert tree.feature[0] == 0 and tree.threshold[0] == 1.5

    def test_constant_targets_single_leaf(self):
        data = TabularDataset(["x"], [[0.0], [1.0]])
        tree = build_tree_from_data(data, [4.0, 4.0], max_depth=3)
        assert len(tree.node_id) == 1
        assert tree.score([0.5]) == 4.0

    def test_xor_needs_depth_two(self):
        data = TabularDataset(["a", "b"], [[0, 0], [0, 1], [1, 0], [1, 1]])
        targets = [0.0, 1.0, 1.0, 0.0]
        deep = build_tree_from_data(data, targets, max_depth=2)
        assert [deep.score(r) for r in data.rows] == targets
        shallow = build_tree_from_data(data, targets, max_depth=1)
        errs = [abs(shallow.score(r) - t) for r, t in zip(data.rows, targets)]
        assert max(errs) > 0.0

    def test_tie_breaks_lowest_feature(self):
        # both features separate perfectly; feature 0 must win
        data = TabularDataset(["a", "b"], [[0, 0], [1, 1]])
        tree = build_tree_from_data(data, [0.0, 1.0], max_depth=2)
        assert tree.feature[0] == 0

    def test_coverage_counts_recorded(self):
        data = TabularDataset(["x"], [[0.0], [1.0], [2.0]])
        tree = build_tree_from_data(data, [0.0, 1.0, 1.0], max_depth=1)
        assert tree.coverage[0] == 3
        assert tree.coverage[tree.left[0]] + tree.coverage[tree.right[0]] == 3

    def test_validation(self):
        data = TabularDataset(["x"], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            build_tree_from_data(data, [1.0], max_depth=1)
        with pytest.raises(ValueError):
            build_tree_from_data(data, [1.0, 2.0], max_depth=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_rejected(self, bad):
        data = TabularDataset(["x"], [[0.0], [1.0], [2.0], [3.0]])
        with pytest.raises(ValueError, match=r"target 2 is (nan|-?inf), not finite"):
            build_tree_from_data(data, [0.0, 1.0, bad, bad], max_depth=2)

    def test_non_finite_row_rejected(self):
        # a directly built dataset accepts NaN; the fitter names the first one
        data = TabularDataset(["a", "b"], [[0.0, 1.0], [1.0, np.nan], [2.0, np.inf]])
        with pytest.raises(ValueError, match="row 1 has the non-finite value nan in feature 1"):
            build_tree_from_data(data, [0.0, 1.0, 2.0], max_depth=1)

    def test_neighbouring_float_values_split(self):
        # (a + b) / 2 rounds onto b here, so a midpoint threshold would send
        # both rows left; the lower value cuts them apart instead
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert (a + b) / 2.0 == b
        data = TabularDataset(["x"], [[a], [b]])
        tree = build_tree_from_data(data, [0.0, 1.0], max_depth=1)
        assert tree.threshold[0] == a
        assert [tree.score(r) for r in data.rows] == [0.0, 1.0]


def exhaustive_tree(data, targets, max_depth):
    """Reference fitter: every feature, every midpoint, both sides' SSE by
    masked two-pass sums, lowest (sse, feature, threshold) key wins. It is
    the loop ``build_tree_from_data`` used before its prefix-sum search, with
    the lower value standing in for a midpoint that rounds onto the upper."""
    y = np.asarray(targets, dtype=float)
    rows = data.rows
    nodes = []

    def sse(values):
        return float(np.sum((values - values.mean()) ** 2)) if len(values) else 0.0

    def best_split(idx):
        best = None
        for j in range(data.n_features):
            uniq = np.unique(rows[idx, j])
            for a, b in zip(uniq[:-1], uniq[1:]):
                t = (a + b) / 2.0
                if not a <= t < b:
                    t = a
                left = idx[rows[idx, j] <= t]
                right = idx[rows[idx, j] > t]
                key = (sse(y[left]) + sse(y[right]), j, t)
                if best is None or key < best:
                    best = key
        return best

    def grow(idx, depth):
        node_id = len(nodes)
        nodes.append(None)
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


def boosted_text(fit, data, target, depth, n_trees=3):
    """dump_tree_text of a boosted ensemble, each tree fit to the residuals."""
    trees, residual = [], np.asarray(target, dtype=float)
    for _ in range(n_trees):
        tree = fit(data, residual, depth)
        trees.append(tree)
        residual = residual - tree.predict(data.rows)
    return dump_tree_text(TreeEnsemble(trees))


@st.composite
def fitting_problems(draw):
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    columns = []
    for _ in range(d):
        # base + level * step over drawn integer levels: ties, constant columns,
        # integer levels, a large offset, and with a one-ulp step neighbouring floats
        base = draw(st.sampled_from([0.0, -2.5, 1.0, 1e8]))
        step = draw(st.sampled_from([1.0, 0.37, float(np.spacing(base))]))
        levels = draw(st.lists(st.integers(0, draw(st.integers(0, 30))), min_size=n, max_size=n))
        columns.append([base + level * step for level in levels])
    offset = draw(st.sampled_from([0.0, 1e9, -3.0]))
    values = st.one_of(st.integers(-3, 3).map(float), st.floats(-100.0, 100.0))
    targets = [offset + v for v in draw(st.lists(values, min_size=n, max_size=n))]
    data = TabularDataset([f"x{j}" for j in range(d)], np.array(columns).T)
    return data, targets, draw(st.integers(1, 5))


class TestAgainstExhaustiveSearch:
    """The prefix-sum search builds the exhaustive search's tree, byte for byte."""

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(fitting_problems())
    def test_drawn_problems(self, problem):
        data, targets, depth = problem
        assert dump_tree_text(build_tree_from_data(data, targets, depth)) == dump_tree_text(
            exhaustive_tree(data, targets, depth)
        )

    def test_boosted_continuous_fit(self):
        # the shape of a benchmark fit: 64 rows, 10 continuous features, depth 5
        rng = np.random.default_rng(20)
        rows = np.round(rng.standard_normal((64, 10)), 6)
        data = TabularDataset([f"x{j}" for j in range(10)], rows)
        target = rows @ rng.uniform(-2, 2, 10) + np.sin(rows[:, 0]) * rows[:, 1]
        assert boosted_text(build_tree_from_data, data, target, 5) == boosted_text(
            exhaustive_tree, data, target, 5
        )


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        data = TabularDataset(["a", "b"], np.random.default_rng(3).standard_normal((40, 2)))
        targets = np.random.default_rng(4).standard_normal(40)
        tree = build_tree_from_data(data, targets, max_depth=3)
        path = tmp_path / "model.tree"
        save_tree(tree, path)
        loaded = load_tree(path)
        assert dump_tree_text(loaded) == dump_tree_text(tree)
        for row in data.rows:
            assert loaded.score(row) == tree.score(row)

    def test_ensemble_roundtrip(self):
        ensemble = TreeEnsemble([stump(), stump(threshold=0.25, left=-1.0, right=2.0)])
        text = dump_tree_text(ensemble)
        loaded = load_tree_text(text)
        assert isinstance(loaded, TreeEnsemble)
        assert dump_tree_text(loaded) == text

    def test_malformed_text(self):
        with pytest.raises(TreeFormatError):
            load_tree_text("")
        with pytest.raises(TreeFormatError):
            load_tree_text("0 wiggle 1 2 3\n")
        with pytest.raises(TreeFormatError):
            load_tree_text("0 split 0 0.5 1 2\n")  # missing coverage field

    def test_parent_coverage_invariant_enforced(self):
        with pytest.raises(TreeFormatError):
            DecisionTree(
                [
                    TreeNode(0, 0, 0.5, 1, 2, 0.0, 5),
                    TreeNode(1, -1, 0.0, -1, -1, 0.0, 1),
                    TreeNode(2, -1, 0.0, -1, -1, 1.0, 1),
                ]
            )


class TestPredict:
    """``predict(block)`` is ``[score(r) for r in block]``, bit for bit."""

    @pytest.fixture
    def fitted(self):
        rng = np.random.default_rng(8)
        rows = rng.standard_normal((60, 4))
        data = TabularDataset([f"x{j}" for j in range(4)], rows)
        target = rows[:, 0] * rows[:, 1] + np.sin(rows[:, 2])
        trees, residual = [], target
        for _ in range(3):
            tree = build_tree_from_data(data, residual, max_depth=4)
            trees.append(tree)
            residual = residual - np.array([tree.score(r) for r in rows])
        off_data = rng.standard_normal((40, 4)) * 100.0
        block = np.vstack([rows, off_data])
        block[::9, 1] = np.nan  # NaN fails every <= test and goes right
        return trees, block

    @staticmethod
    def assert_matches_score(model, block):
        assert model.predict(block).tolist() == [model.score(r) for r in block]

    def test_single_tree(self, fitted):
        trees, block = fitted
        self.assert_matches_score(trees[0], block)

    def test_ensemble(self, fitted):
        trees, block = fitted
        self.assert_matches_score(TreeEnsemble(trees), block)
        self.assert_matches_score(TreeEnsemble([stump(), trees[1], stump(0.0, -0.0, 2.0)]), block)

    def test_single_leaf_tree(self, fitted):
        _, block = fitted
        leaf = DecisionTree([TreeNode(7, -1, 0.0, -1, -1, -0.0, 3)])
        self.assert_matches_score(leaf, block)
        self.assert_matches_score(TreeEnsemble([leaf, leaf]), block)

    def test_loaded_ensemble(self, fitted):
        trees, block = fitted
        loaded = load_tree_text(dump_tree_text(TreeEnsemble(trees)))
        self.assert_matches_score(loaded, block)

    def test_large_block_in_chunks(self, fitted):
        trees, _ = fitted
        rows = np.random.default_rng(9).standard_normal((2500, 4))
        self.assert_matches_score(TreeEnsemble(trees), rows)

    def test_narrow_block_rejected(self):
        with pytest.raises(ValueError):
            stump().predict(np.zeros((3, 0)))


class TestShape:
    """The root must reach every node exactly once."""

    def test_self_loop_rejected(self):
        with pytest.raises(TreeFormatError, match="reached twice"):
            load_tree_text("0 split 0 0.5 0 1 5\n1 leaf 1.0 0\n")

    def test_cycle_through_descendant_rejected(self):
        with pytest.raises(TreeFormatError, match="reached twice"):
            DecisionTree(
                [
                    TreeNode(0, 0, 0.5, 1, 2, 0.0, 4),
                    TreeNode(1, 0, 0.2, 0, 3, 0.0, 4),
                    TreeNode(2, -1, 0.0, -1, -1, 1.0, 0),
                    TreeNode(3, -1, 0.0, -1, -1, 1.0, 0),
                ]
            )

    def test_shared_child_rejected(self):
        with pytest.raises(TreeFormatError, match="reached twice"):
            DecisionTree(
                [
                    TreeNode(0, 0, 0.5, 1, 1, 0.0, 4),
                    TreeNode(1, -1, 0.0, -1, -1, 1.0, 2),
                ]
            )

    def test_orphan_rejected(self):
        with pytest.raises(TreeFormatError, match="not reachable"):
            DecisionTree(
                [
                    TreeNode(0, 0, 0.5, 1, 2, 0.0, 2),
                    TreeNode(1, -1, 0.0, -1, -1, 0.0, 1),
                    TreeNode(2, -1, 0.0, -1, -1, 1.0, 1),
                    TreeNode(3, -1, 0.0, -1, -1, 9.0, 1),
                ]
            )

    def test_depth(self):
        assert stump().depth == 1
        assert DecisionTree([TreeNode(0, -1, 0.0, -1, -1, 1.0, 1)]).depth == 0


def leaf(node_id, value, coverage):
    return TreeNode(node_id, -1, 0.0, -1, -1, value, coverage)


class TestFormatErrors:
    """Each malformed tree fails with a TreeFormatError naming the fault."""

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([leaf(0, 1.0, 1), leaf(0, 2.0, 1)], "duplicate node ids"),
            ([TreeNode(0, 0, 0.5, 1, 9, 0.0, 2), leaf(1, 0.0, 1)], "node 0 references missing children"),
            (
                [TreeNode(0, 0, 0.5, 1, 2, 0.0, 5), leaf(1, 0.0, 1), leaf(2, 1.0, 1)],
                "node 0 coverage 5 != children sum 2",
            ),
            (
                [TreeNode(0, 0, 0.5, 1, 1, 0.0, 4), leaf(1, 1.0, 2)],
                "node 1 is reached twice from the root (a cycle or a shared child)",
            ),
            (
                [TreeNode(5, 0, 0.5, 1, 2, 0.0, 2), leaf(1, 0.0, 1), leaf(2, 1.0, 1), leaf(3, 9.0, 1), leaf(0, 0.0, 4)],
                "nodes [0, 3] are not reachable from the root 5",
            ),
            ([], "a tree needs at least one node"),
        ],
    )
    def test_structure_messages(self, nodes, message):
        with pytest.raises(TreeFormatError, match=f"^{re.escape(message)}$"):
            DecisionTree(nodes)

    # Before these checks each loaded as something else: a leaf of value 0.0,
    # a split that sends every row right, an empty-set expectation of 10.0
    # from leaves 0.0 and 5.0, and a failure only once a game is computed.
    MALFORMED_FIELDS = [
        ("0 split -1 0.5 1 2 2\n", "node 0 splits on the negative feature -1"),
        ("0 split -1 0.5 1 2 2\n1 leaf 0.0 1\n2 leaf 1.0 1\n", "node 0 splits on the negative feature -1"),
        ("0 split 0 nan 1 2 2\n1 leaf 0.0 1\n2 leaf 1.0 1\n", "node 0 has the threshold nan"),
        ("0 split 0 0.5 1 2 1\n1 leaf 0.0 -1\n2 leaf 5.0 2\n", "node 1 has the negative coverage -1"),
        ("0 split 0 0.5 1 2 2\n1 leaf inf 1\n2 leaf 1.0 1\n", "node 1 has the non-finite value inf"),
        ("7 leaf nan 3\n", "node 7 has the non-finite value nan"),
    ]

    @pytest.mark.parametrize("text, message", MALFORMED_FIELDS)
    def test_malformed_field_rejected_at_load(self, text, message):
        with pytest.raises(TreeFormatError, match=f"^{re.escape(message)}$"):
            load_tree_text(text)

    def test_malformed_field_rejected_from_nodes(self):
        with pytest.raises(TreeFormatError, match="node 0 splits on the negative feature -2"):
            DecisionTree([TreeNode(0, -2, 0.5, 1, 2, 0.0, 2), leaf(1, 0.0, 1), leaf(2, 1.0, 1)])
        with pytest.raises(TreeFormatError, match="node 0 has the threshold nan"):
            DecisionTree([TreeNode(0, 0, float("nan"), 1, 2, 0.0, 2), leaf(1, 0.0, 1), leaf(2, 1.0, 1)])
        with pytest.raises(TreeFormatError, match="node 2 has the negative coverage -3"):
            DecisionTree([TreeNode(0, 0, 0.5, 1, 2, 0.0, 2), leaf(1, 0.0, 5), leaf(2, 1.0, -3)])
        with pytest.raises(TreeFormatError, match="node 0 has the non-finite value -inf"):
            DecisionTree([leaf(0, float("-inf"), 1)])

    def test_infinite_threshold_and_negative_ids_load(self):
        tree = load_tree_text("-1 split 0 inf -2 -3 2\n-2 leaf 0.0 1\n-3 leaf 1.0 1\n")
        assert tree.score([1e308]) == 0.0
        assert dump_tree_text(tree) == "tree 0\n-1 split 0 inf -2 -3 2\n-2 leaf 0.0 1\n-3 leaf 1.0 1\n"

    def test_line_errors_name_the_line_once(self):
        with pytest.raises(TreeFormatError, match=r"^line 2: unknown node kind 'wiggle'$"):
            load_tree_text("0 leaf 1.0 1\n1 wiggle 1 2 3\n")
        with pytest.raises(TreeFormatError, match=r"^line 1: could not convert string to float: 'x'$"):
            load_tree_text("0 leaf x 1\n")
