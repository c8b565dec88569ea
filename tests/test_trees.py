"""Tree building, leaf-coverage conditioning and text serialization."""

import numpy as np
import pytest

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


class TestBuildTree:
    def test_separable_single_feature(self):
        data = TabularDataset(["x"], [[0.0], [1.0], [2.0], [3.0]])
        targets = [0.0, 0.0, 1.0, 1.0]
        tree = build_tree_from_data(data, targets, max_depth=1)
        assert [tree.score(r) for r in data.rows] == targets
        root = tree.node(tree.root_id)
        assert root.feature == 0 and root.threshold == 1.5

    def test_constant_targets_single_leaf(self):
        data = TabularDataset(["x"], [[0.0], [1.0]])
        tree = build_tree_from_data(data, [4.0, 4.0], max_depth=3)
        assert len(tree.nodes) == 1
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
        assert tree.node(tree.root_id).feature == 0

    def test_coverage_counts_recorded(self):
        data = TabularDataset(["x"], [[0.0], [1.0], [2.0]])
        tree = build_tree_from_data(data, [0.0, 1.0, 1.0], max_depth=1)
        root = tree.node(tree.root_id)
        assert root.coverage == 3
        assert tree.node(root.left).coverage + tree.node(root.right).coverage == 3

    def test_validation(self):
        data = TabularDataset(["x"], [[0.0], [1.0]])
        with pytest.raises(ValueError):
            build_tree_from_data(data, [1.0], max_depth=1)
        with pytest.raises(ValueError):
            build_tree_from_data(data, [1.0, 2.0], max_depth=0)


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
