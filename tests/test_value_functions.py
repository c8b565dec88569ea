"""Conditional and interventional game construction, hybrids and diagnostics.

Expected values here were enumerated by hand before implementation: the
four-row uniform design, the two-row perfect-proxy dataset and the
single-reference product game are all small enough to tabulate directly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shaplab import (
    CallableModel,
    Coalition,
    ContinuousFeatureError,
    EmptyConditioningSetError,
    LinearModel,
    MARGINAL_JOINT,
    MultiplicativeModel,
    NonFiniteScoreError,
    PRODUCT_OF_MARGINALS,
    SINGLE_REFERENCE,
    CONDITIONAL,
    TabularDataset,
    ValueFunctionSpec,
    build_conditional_game,
    build_interventional_game,
    exact_shapley_subsets,
    generate_hybrids,
    indirect_influence_gap,
    ood_fraction,
)


@pytest.fixture
def uniform2():
    return TabularDataset(["x1", "x2"], [[0, 0], [0, 1], [1, 0], [1, 1]])


@pytest.fixture
def proxy():
    """Perfectly correlated pair: feature 1 is a pure proxy for feature 0."""
    return TabularDataset(["a", "b"], [[0, 0], [1, 1]])


class TestConditionalGame:
    def test_uniform_design_hand_enumeration(self, uniform2):
        model = LinearModel(0.0, [1.0, 1.0])
        game = build_conditional_game(model, uniform2, [1, 1])
        assert game.value_mask(0b00) == 1.0
        assert game.value_mask(0b01) == 1.5
        assert game.value_mask(0b10) == 1.5
        assert game.value_mask(0b11) == 2.0
        assert exact_shapley_subsets(game).values == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_proxy_earns_conditional_value(self, proxy):
        model = LinearModel(0.0, [1.0, 0.0])  # reads only feature 0
        game = build_conditional_game(model, proxy, [1, 1])
        assert game.value_mask(0b10) == 1.0  # conditioning on the proxy moves the mean
        assert game.empty_value == 0.5
        phi = exact_shapley_subsets(game).values
        assert phi[1] == pytest.approx(0.25, abs=1e-12)

    def test_redundant_triple_degeneracies(self):
        rows = [[a, b, b] for a in (-1.0, 1.0) for b in (-1.0, 1.0)]
        data = TabularDataset(["a", "b", "c"], rows)
        model = CallableModel(3, lambda r: r[0] * r[1])
        game = build_conditional_game(model, data, [1, 1, 1])
        B, C = 0b010, 0b100
        assert game.value_mask(B) == game.value_mask(C) == game.value_mask(B | C)
        assert (
            game.value_mask(0b011) == game.value_mask(0b101) == game.value_mask(0b111)
        )

    def test_grand_value_is_model_score(self, uniform2):
        model = LinearModel(0.25, [2.0, -1.0])
        x = [1.0, 1.0]
        game = build_conditional_game(model, uniform2, x)
        assert game.grand_value == model.score(x)

    def test_empty_value_is_dataset_mean(self, uniform2):
        model = LinearModel(0.0, [1.0, 3.0])
        game = build_conditional_game(model, uniform2, [0, 0])
        assert game.empty_value == np.mean([model.score(r) for r in uniform2.rows])

    def test_continuous_features_rejected(self):
        data = TabularDataset(["x"], [[0.5], [1.5]])
        with pytest.raises(ContinuousFeatureError):
            build_conditional_game(LinearModel(0.0, [1.0]), data, [0.5])

    def test_empty_match_names_coalition(self, uniform2):
        model = LinearModel(0.0, [1.0, 1.0])
        game = build_conditional_game(model, uniform2, [5, 5])
        with pytest.raises(EmptyConditioningSetError, match="x1"):
            game.value_mask(0b01)


class TestInterventionalGame:
    def test_single_reference_hand_enumeration(self, uniform2):
        model = MultiplicativeModel(2)
        spec = ValueFunctionSpec(kind=SINGLE_REFERENCE, reference=(0.0, 0.0))
        game = build_interventional_game(model, uniform2, [1, 2], spec)
        assert [game.value_mask(m) for m in range(4)] == [0.0, 0.0, 0.0, 2.0]
        assert exact_shapley_subsets(game).values == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_marginal_joint_full_pass_linear(self, uniform2):
        beta0, beta = 0.25, [2.0, -1.0]
        model = LinearModel(beta0, beta)
        x = [1.0, 1.0]
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=uniform2.n_rows, seed=0)
        game = build_interventional_game(model, uniform2, x, spec)
        for mask in range(4):
            expected = beta0 + sum(
                beta[j] * (x[j] if mask >> j & 1 else 0.5) for j in range(2)
            )
            assert game.value_mask(mask) == pytest.approx(expected, abs=1e-12)

    def test_inert_feature_exactly_zero_all_kinds(self, proxy):
        model = LinearModel(0.0, [1.0, 0.0])
        x = [1.0, 1.0]
        specs = [
            ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=proxy.n_rows, seed=0),
            ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=1, seed=5),
            ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=40, seed=5),
            ValueFunctionSpec(kind=SINGLE_REFERENCE, reference=(0.0, 0.0)),
        ]
        for spec in specs:
            game = build_interventional_game(model, proxy, x, spec)
            assert exact_shapley_subsets(game).values[1] == 0.0

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        d=st.integers(2, 5),
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1.0, 10.0, 1e3, 1e-3]),
        budget=st.integers(1, 80),
    )
    def test_ignored_feature_earns_exact_zero(self, d, n, seed, scale, budget):
        """A feature with a zero coefficient earns exactly 0.0 under every
        interventional kind, although np.mean of the equal scores of the
        coalition without it can round off the grand coalition's score."""
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((n, d)) * scale
        coef = rng.standard_normal(d) * scale
        inert = int(rng.integers(d))
        coef[inert] = 0.0
        model = LinearModel(float(rng.standard_normal()), coef)
        data = TabularDataset([f"x{j}" for j in range(d)], rows)
        x = rows[int(rng.integers(n))]
        specs = [
            ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=n, seed=seed),
            ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=min(budget, n - 1), seed=seed),
            ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=budget, seed=seed),
            ValueFunctionSpec(kind=SINGLE_REFERENCE, reference=tuple(rows[int(rng.integers(n))])),
        ]
        for spec in specs:
            game = build_interventional_game(model, data, x, spec)
            assert exact_shapley_subsets(game).values[inert] == 0.0, spec.kind

    def test_grand_value_is_model_score_every_kind(self, uniform2):
        model = LinearModel(0.1, [1.0, 2.0])
        x = [7.0, -3.0]
        specs = [
            ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=2, seed=1),
            ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=3, seed=1),
            ValueFunctionSpec(kind=SINGLE_REFERENCE, reference=(0.0, 0.0)),
        ]
        for spec in specs:
            game = build_interventional_game(model, uniform2, x, spec)
            assert game.grand_value == model.score(x)

    def test_deterministic_given_spec(self, uniform2):
        model = LinearModel(0.0, [1.0, -2.0])
        spec = ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=25, seed=9)
        t1 = build_interventional_game(model, uniform2, [1, 0], spec).table().tolist()
        t2 = build_interventional_game(model, uniform2, [1, 0], spec).table().tolist()
        assert t1 == t2
        other = ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=25, seed=10)
        assert build_interventional_game(model, uniform2, [1, 0], other).table().tolist() != t1

    def test_oracle_consumes_generated_hybrids(self, uniform2):
        model = LinearModel(0.5, [1.0, 2.0])
        x = [1.0, 1.0]
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=3, seed=2)
        game = build_interventional_game(model, uniform2, x, spec)
        for mask in range(4):
            hybrids = generate_hybrids(uniform2, x, Coalition(mask, 2), spec)
            expected = np.mean([model.score(h.values) for h in hybrids])
            assert game.value_mask(mask) == pytest.approx(expected, abs=0.0)

    def test_rejects_conditional_kind(self, uniform2):
        with pytest.raises(ValueError):
            build_interventional_game(
                LinearModel(0.0, [1.0, 1.0]),
                uniform2,
                [0, 0],
                ValueFunctionSpec(kind=CONDITIONAL),
            )

    def test_independence_collapse(self, uniform2):
        """On a product design the conditional and full-pass marginal-joint
        oracles agree coalition by coalition."""
        model = CallableModel(2, lambda r: r[0] * 2 + r[1] * r[0])
        x = [1.0, 1.0]
        cond = build_conditional_game(model, uniform2, x)
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=uniform2.n_rows, seed=0)
        interv = build_interventional_game(model, uniform2, x, spec)
        for mask in range(4):
            assert cond.value_mask(mask) == pytest.approx(interv.value_mask(mask), abs=1e-9)


class RecordingModel:
    """A linear model that keeps a copy of every block it is asked to score."""

    def __init__(self, arity):
        self.arity = arity
        self._inner = LinearModel(0.5, np.arange(1.0, arity + 1.0))
        self.blocks = []

    def predict(self, rows):
        self.blocks.append(np.array(rows, copy=True))
        return self._inner.predict(rows)


class TestScoredRows:
    """The rows an oracle scores for a coalition are exactly generate_hybrids'
    rows, so the out-of-distribution diagnostics describe what is scored."""

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(6)
        return TabularDataset(["a", "b", "c"], rng.standard_normal((9, 3)))

    @pytest.mark.parametrize(
        "spec",
        [
            ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=9, seed=0),
            ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=5, seed=3),
            ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=7, seed=3),
            ValueFunctionSpec(kind=SINGLE_REFERENCE, reference=(-1.0, 0.0, 2.0)),
        ],
        ids=["marginal-joint-full", "marginal-joint-sampled", "product-of-marginals", "single-reference"],
    )
    def test_oracle_scores_generated_hybrids(self, data, spec):
        x = [0.25, -0.0, 4.0]
        model = RecordingModel(3)
        game = build_interventional_game(model, data, x, spec)  # scores the empty coalition
        for mask in range(8):
            game.value_mask(mask)
            hybrids = generate_hybrids(data, x, Coalition(mask, 3), spec)
            assert model.blocks[mask].tolist() == [list(h.values) for h in hybrids]
        assert len(model.blocks) == 8

    def test_table_scores_one_block_per_coalition(self, data):
        model = RecordingModel(3)
        spec = ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=4, seed=1)
        game = build_interventional_game(model, data, [0.0, 0.0, 0.0], spec)
        game.table()
        assert game.oracle_calls == 8
        assert [len(b) for b in model.blocks] == [4] * 7 + [1]


class TestNonFiniteScores:
    def test_interventional_names_the_coalition(self, uniform2):
        model = CallableModel(2, lambda r: float("inf") if r[0] == 5.0 else r[1])
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=uniform2.n_rows, seed=0)
        game = build_interventional_game(model, uniform2, [5.0, 1.0], spec)
        with pytest.raises(NonFiniteScoreError, match=r"\{x1\} \(mask 0x1\)"):
            game.value_mask(0b01)
        assert game.value_mask(0b10) == 1.0

    def test_conditional_names_the_coalition(self, uniform2):
        model = CallableModel(2, lambda r: float("nan") if r[1] == 2.0 else 0.0)
        game = build_conditional_game(model, uniform2, [1.0, 2.0])
        assert game.value_mask(0b01) == 0.0
        with pytest.raises(NonFiniteScoreError, match=r"\{x1, x2\}"):
            game.grand_value


class TestValueFunctionSpec:
    def test_single_reference_requires_reference(self):
        with pytest.raises(ValueError):
            ValueFunctionSpec(kind=SINGLE_REFERENCE)

    def test_other_kinds_forbid_reference(self):
        with pytest.raises(ValueError):
            ValueFunctionSpec(kind=MARGINAL_JOINT, reference=(0.0,), n_samples=1)

    def test_sampling_kinds_need_samples(self):
        with pytest.raises(ValueError):
            ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ValueFunctionSpec(kind="nope")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=5, seed=-1)


class TestGenerateHybrids:
    def test_full_set_single_hybrid(self, uniform2):
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=4, seed=0)
        hybrids = generate_hybrids(uniform2, [0.25, 0.75], Coalition.full(2), spec)
        assert len(hybrids) == 1
        assert hybrids[0].values == (0.25, 0.75)
        assert hybrids[0].replaced_from is None

    def test_empty_set_full_pass_is_verbatim_rows(self, uniform2):
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=uniform2.n_rows, seed=0)
        hybrids = generate_hybrids(uniform2, [9.0, 9.0], Coalition.empty(2), spec)
        assert [h.values for h in hybrids] == [tuple(r) for r in uniform2.rows.tolist()]
        assert [h.replaced_from for h in hybrids] == [0, 1, 2, 3]

    def test_kept_coordinates_and_provenance(self, uniform2):
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=2, seed=4)
        keep = Coalition.of([0], 2)
        for h in generate_hybrids(uniform2, [5.0, 5.0], keep, spec):
            assert h.values[0] == 5.0
            assert h.values[1] == uniform2.rows[h.replaced_from][1]

    def test_product_of_marginals_provenance(self, uniform2):
        spec = ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=6, seed=4)
        keep = Coalition.of([1], 2)
        for h in generate_hybrids(uniform2, [5.0, 5.0], keep, spec):
            assert h.values[1] == 5.0
            assert set(h.replaced_from) == {0}
            assert h.values[0] == uniform2.rows[h.replaced_from[0]][0]

    def test_engineered_product_violated(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((50, 2))
        rows = np.column_stack([base, base[:, 0] * base[:, 1]])
        data = TabularDataset(["x1", "x2", "x3"], rows)
        x = [0.3, -0.7, 0.3 * -0.7]
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=50, seed=1)
        hybrids = generate_hybrids(data, x, Coalition.of([0, 1], 3), spec)
        assert any(abs(h.values[2] - h.values[0] * h.values[1]) > 1e-9 for h in hybrids)

    def test_same_seed_same_hybrids(self, uniform2):
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=3, seed=8)
        keep = Coalition.of([1], 2)
        a = generate_hybrids(uniform2, [1.0, 1.0], keep, spec)
        b = generate_hybrids(uniform2, [1.0, 1.0], keep, spec)
        assert a == b

    def test_rejects_conditional(self, uniform2):
        with pytest.raises(ValueError):
            generate_hybrids(uniform2, [0, 0], Coalition.empty(2), ValueFunctionSpec(kind=CONDITIONAL))


class TestOodFraction:
    def test_dataset_rows_are_in_distribution(self, uniform2):
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=4, seed=0)
        hybrids = generate_hybrids(uniform2, [0.0, 0.0], Coalition.empty(2), spec)
        assert ood_fraction(uniform2, hybrids) == 0.0

    def test_correlated_pair_half_off_distribution(self, proxy):
        spec = ValueFunctionSpec(kind=PRODUCT_OF_MARGINALS, n_samples=4000, seed=6)
        hybrids = generate_hybrids(proxy, [1.0, 1.0], Coalition.of([0], 2), spec)
        assert ood_fraction(proxy, hybrids) == pytest.approx(0.5, abs=0.05)

    def test_constraint_predicate(self):
        rng = np.random.default_rng(2)
        base = rng.standard_normal((80, 2))
        rows = np.column_stack([base, base[:, 0] * base[:, 1]])
        data = TabularDataset(["x1", "x2", "x3"], rows)
        u = rng.standard_normal(2)
        x = [u[0], u[1], u[0] * u[1]]
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=80, seed=3)
        hybrids = generate_hybrids(data, x, Coalition.of([0, 1], 3), spec)
        constraint = lambda v: abs(v[2] - v[0] * v[1]) <= 1e-9
        assert ood_fraction(data, hybrids, constraint) == 1.0

    def test_empty_list_and_bad_criterion(self, uniform2):
        with pytest.raises(ValueError):
            ood_fraction(uniform2, [])
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=4, seed=0)
        hybrids = generate_hybrids(uniform2, [0.0, 0.0], Coalition.empty(2), spec)
        with pytest.raises(ValueError):
            ood_fraction(uniform2, hybrids, "nope")


class TestIndirectInfluence:
    def test_perfect_proxy(self, proxy):
        model = LinearModel(0.0, [1.0, 0.0])
        cond, interv = indirect_influence_gap(model, proxy, [1, 1], 1)
        assert cond == pytest.approx(0.25, abs=1e-12)
        assert interv == 0.0

    def test_constant_model(self, proxy):
        model = CallableModel(2, lambda r: 3.0)
        cond, interv = indirect_influence_gap(model, proxy, [1, 1], 1)
        assert cond == 0.0 and interv == 0.0

    def test_independent_features(self, uniform2):
        model = LinearModel(0.0, [1.0, 0.0])
        cond, interv = indirect_influence_gap(model, uniform2, [1, 1], 1)
        assert cond == pytest.approx(0.0, abs=1e-12)
        assert interv == 0.0

    def test_rejects_non_inert_feature(self, proxy):
        model = LinearModel(0.0, [1.0, 1.0])
        with pytest.raises(ValueError, match="inert"):
            indirect_influence_gap(model, proxy, [1, 1], 1)
