"""Model zoo: closed forms, the recourse quadratic, and the scaffold."""

import numpy as np
import pytest

from shaplab import (
    CallableModel,
    LinearModel,
    MARGINAL_JOINT,
    MultiplicativeModel,
    QuadraticRecourseModel,
    ScaffoldedModel,
    TabularDataset,
    ValueFunctionSpec,
    build_interventional_game,
    exact_shapley_subsets,
    linear_closed_form,
    multiplicative_closed_form,
)


class TestLinearClosedForm:
    def test_coefficient_times_offset(self):
        model = LinearModel(0.0, [2.0, -1.0, 0.0])
        attr = linear_closed_form(model, [1.0, 3.0, 5.0], [0.0, 0.0, 0.0])
        assert attr.values == (2.0, -3.0, 0.0)
        assert attr.base_value == 0.0

    def test_zero_at_the_mean(self):
        model = LinearModel(1.5, [2.0, -1.0])
        means = [0.3, -0.2]
        attr = linear_closed_form(model, means, means)
        assert attr.values == (0.0, 0.0)
        assert attr.base_value == model.score(means)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            linear_closed_form(LinearModel(0.0, [1.0]), [1.0, 2.0], [0.0])

    def test_agrees_with_game_solve(self):
        rows = [[a, b] for a in (0.0, 1.0) for b in (0.0, 1.0)]
        data = TabularDataset(["a", "b"], rows)
        model = LinearModel(0.7, [1.25, -0.5])
        x = [1.0, 0.0]
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=data.n_rows, seed=0)
        game = build_interventional_game(model, data, x, spec)
        attr = exact_shapley_subsets(game)
        closed = linear_closed_form(model, x, data.means())
        assert attr.values == pytest.approx(closed.values, abs=1e-9)
        assert attr.base_value == pytest.approx(closed.base_value, abs=1e-9)

    def test_agrees_with_sampled_game_within_std_errors(self):
        """Sub-full sampling replaces the dataset means with sample means, so
        the solve matches the closed form over sample means exactly and the
        dataset-mean closed form within 3 * |coef| * sigma / sqrt(n)."""
        rng = np.random.default_rng(12)
        big = TabularDataset(["a", "b"], rng.choice([-1.0, 1.0], size=(5000, 2)))
        model = LinearModel(0.2, [1.5, -0.75])
        x = [2.0, 1.0]
        n = 2000
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=n, seed=7)
        game = build_interventional_game(model, big, x, spec)
        attr = exact_shapley_subsets(game)
        closed = linear_closed_form(model, x, big.means())
        for coef, got, want in zip(model.coefficients, attr.values, closed.values):
            assert abs(got - want) <= 3 * abs(coef) / np.sqrt(n)


class TestMultiplicativeClosedForm:
    def test_even_split(self):
        attr = multiplicative_closed_form(MultiplicativeModel(2), [3.0, 0.5])
        assert attr.values == (0.75, 0.75)

    def test_three_features(self):
        attr = multiplicative_closed_form(MultiplicativeModel(3), [1.0, 2.0, 3.0])
        assert attr.values == (2.0, 2.0, 2.0)

    def test_zero_coordinate_kills_everything(self):
        attr = multiplicative_closed_form(MultiplicativeModel(3), [0.0, 5.0, -2.0])
        assert attr.values == (0.0, 0.0, 0.0)
        assert attr.base_value == 0.0


class TestQuadraticRecourse:
    def test_values(self):
        model = QuadraticRecourseModel()
        assert model.score([1.0]) == 2.0
        assert model.score([2.0]) == 1.0
        assert model.score([0.0]) == 1.0
        assert model.score([2.0]) < model.score([1.0])


class TestCallableModel:
    def test_wraps_function(self):
        model = CallableModel(2, lambda r: r[0] - r[1])
        assert model.arity == 2
        assert model.score([3.0, 1.0]) == 2.0


class TestScaffold:
    @pytest.fixture
    def parts(self):
        rng = np.random.default_rng(5)
        rows = np.column_stack([np.array([0.0, 1.0, 1.0, 0.0]), rng.standard_normal((4, 1))])
        data = TabularDataset(["p", "c"], rows)
        biased = LinearModel(0.0, [1.0, 0.0])
        innocuous = CallableModel(2, lambda r: 0.5)
        return data, biased, innocuous

    def test_in_distribution_uses_biased(self, parts):
        data, biased, innocuous = parts
        model = ScaffoldedModel(biased, innocuous, data)
        for row in data.rows:
            assert model.score(row) == biased.score(row)

    def test_off_distribution_uses_innocuous(self, parts):
        data, biased, innocuous = parts
        model = ScaffoldedModel(biased, innocuous, data)
        assert model.score([1.0, 123.456]) == 0.5
        assert model.score([0.0, -77.0]) == 0.5

    def test_arity_mismatch_rejected(self, parts):
        data, biased, _ = parts
        with pytest.raises(ValueError):
            ScaffoldedModel(biased, CallableModel(3, lambda r: 0.0), data)

    def test_disagreement_only_off_dataset(self, parts):
        data, biased, innocuous = parts
        model = ScaffoldedModel(biased, innocuous, data)
        assert max(abs(model.score(r) - biased.score(r)) for r in data.rows) == 0.0
        off = [1.0, 999.0]
        assert model.score(off) != biased.score(off)


class TestPredict:
    """``predict(block)`` is ``[score(r) for r in block]``, bit for bit."""

    @pytest.fixture
    def block(self):
        rng = np.random.default_rng(11)
        on_data = rng.integers(-2, 3, size=(20, 3)).astype(float)
        off_data = rng.standard_normal((20, 3)) * 10.0 ** rng.integers(-6, 7, size=(20, 3))
        return np.vstack([on_data, off_data, np.zeros((1, 3)), -np.zeros((1, 3))])

    @staticmethod
    def assert_matches_score(model, block):
        scores = np.array([model.score(row) for row in block])
        predicted = model.predict(block)
        assert predicted.shape == (len(block),)
        assert predicted.tolist() == scores.tolist()

    def test_linear(self, block):
        self.assert_matches_score(LinearModel(0.3, [2.5, -1.0, 1e-3]), block)

    def test_linear_wide(self):
        rng = np.random.default_rng(2)
        for d in (1, 7, 8, 9, 33, 130):
            model = LinearModel(rng.standard_normal(), rng.standard_normal(d))
            self.assert_matches_score(model, rng.standard_normal((50, d)) * 1e3)

    def test_multiplicative(self, block):
        self.assert_matches_score(MultiplicativeModel(3), block)

    def test_recourse(self, block):
        self.assert_matches_score(QuadraticRecourseModel(), block[:, :1])

    def test_callable(self, block):
        self.assert_matches_score(CallableModel(3, lambda r: r[0] * r[1] - r[2]), block)

    def test_scaffold(self, block):
        data = TabularDataset(["a", "b", "c"], block[:20])
        model = ScaffoldedModel(LinearModel(1.0, [1.0, 2.0, 3.0]), CallableModel(3, lambda r: -5.0), data)
        self.assert_matches_score(model, block)
        assert (model.predict(block[:20]) != -5.0).all()
        assert (model.predict(block[20:40]) == -5.0).all()

    def test_scaffold_membership_is_tuple_equality(self):
        """-0.0 matches 0.0, as tuples of floats compare; NaN never matches."""
        nan = float("nan")
        data = TabularDataset(["a", "b"], [[0.0, 1.0], [-0.0, 2.0], [3.0, nan]])
        model = ScaffoldedModel(LinearModel(0.0, [1.0, 1.0]), CallableModel(2, lambda r: 0.5), data)
        queries = np.array([[-0.0, 1.0], [0.0, 2.0], [0.0, 1.0], [3.0, nan], [0.0, 3.0]])
        members = data.row_set()
        expected = [sum(q) if tuple(q) in members else 0.5 for q in queries.tolist()]
        assert expected == [1.0, 2.0, 1.0, 0.5, 0.5]
        assert model.predict(queries).tolist() == expected
        assert [model.score(q) for q in queries] == expected

    def test_empty_block(self):
        for model in (LinearModel(0.0, [1.0]), MultiplicativeModel(1), CallableModel(1, float)):
            assert model.predict(np.empty((0, 1))).shape == (0,)
