"""Build coalition games from a model, a dataset and an instance.

Two families of value function are provided and deliberately never conflated:

* conditional-empirical: v(S) is the mean model score over the dataset rows
  that match the instance exactly on S (discrete features only; an empty match
  is a hard error, not a silent fall-back to marginals).
* interventional: v(S) is the mean model score over hybrid samples that keep
  the instance's S coordinates and replace the rest from a reference
  distribution — whole background rows (marginal-joint), independent empirical
  marginals per feature (product-of-marginals), or one fixed reference row.

Replacement-source rows are drawn once per game from a counter-based Philox
generator keyed by (seed, dataset, sample budget) and shared across
coalitions, so the hybrid sets for S and S+i differ only in coordinate i.

Every oracle scores one block of rows per coalition through the model's
``predict`` and rejects a non-finite mean; a block of equal scores means
exactly that score. With the sharing, this makes a feature with no
interventional effect earn exactly zero even under sampling.
``generate_hybrids`` returns the same rows, with their provenance, for
inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .data import TabularDataset
from .games import Coalition, CoalitionGame

CONDITIONAL = "conditional-empirical"
MARGINAL_JOINT = "interventional-marginal-joint"
PRODUCT_OF_MARGINALS = "interventional-product-of-marginals"
SINGLE_REFERENCE = "single-reference"

_KINDS = (CONDITIONAL, MARGINAL_JOINT, PRODUCT_OF_MARGINALS, SINGLE_REFERENCE)


class EmptyConditioningSetError(ValueError):
    """No dataset row matches the instance on the requested coalition."""

    def __init__(self, coalition: Coalition, feature_names):
        self.coalition = coalition
        names = [feature_names[i] for i in coalition.members]
        super().__init__(
            "no dataset row matches the instance on coalition "
            f"{{{', '.join(names)}}} (mask {coalition.mask:#x}); conditional "
            "games require every realized conditioning set to be populated"
        )


class NonFiniteScoreError(ValueError):
    """A coalition's mean model score is NaN or infinite."""

    def __init__(self, coalition: Coalition, feature_names):
        self.coalition = coalition
        names = [feature_names[i] for i in coalition.members]
        super().__init__(
            "the mean model score on the rows of coalition "
            f"{{{', '.join(names)}}} (mask {coalition.mask:#x}) is not finite: "
            "the model returned NaN or an infinity, or the scores overflow"
        )


class ContinuousFeatureError(ValueError):
    """Conditional games require discrete features."""

    def __init__(self, continuous):
        super().__init__(
            f"conditional-empirical games need discrete features, but "
            f"{sorted(continuous)} are continuous; discretize those columns, "
            "use an interventional kind, or see the analytic Gaussian "
            "(ood-figure) scenario for the bivariate-normal case"
        )


@dataclass(frozen=True)
class ValueFunctionSpec:
    """Which value function to build and how to sample it."""

    kind: str
    reference: tuple[float, ...] | None = None
    n_samples: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown value-function kind {self.kind!r}")
        if self.kind == SINGLE_REFERENCE:
            if self.reference is None:
                raise ValueError("single-reference requires a reference row")
            object.__setattr__(self, "reference", tuple(float(v) for v in self.reference))
        elif self.reference is not None:
            raise ValueError(f"{self.kind} forbids a reference row")
        if self.kind in (MARGINAL_JOINT, PRODUCT_OF_MARGINALS) and self.n_samples < 1:
            raise ValueError(f"{self.kind} requires n_samples >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class HybridSample:
    """One synthetic evaluation point: the instance's coordinates on
    ``kept_set`` with the rest replaced from the reference distribution.

    ``replaced_from`` resolves the replacement source: a dataset row index
    (marginal-joint), a feature->row-index mapping (product-of-marginals),
    the string "reference", or None when nothing was replaced.
    """

    values: tuple[float, ...]
    kept_set: Coalition
    replaced_from: object


def _check_instance(data: TabularDataset, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (data.n_features,):
        raise ValueError(f"instance must have {data.n_features} coordinates, got {x.shape}")
    return x


def _rng(spec: ValueFunctionSpec) -> np.random.Generator:
    # Counter-based generator; the draw plan is a pure function of the seed.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))


def _replacement_rows(data: TabularDataset, spec: ValueFunctionSpec) -> np.ndarray | None:
    """Row indices feeding the replacements, shared across all coalitions;
    None for single-reference, which replaces from its reference row."""
    if spec.kind == SINGLE_REFERENCE:
        return None
    if spec.kind == MARGINAL_JOINT:
        if spec.n_samples >= data.n_rows:
            return np.arange(data.n_rows)  # deterministic full pass
        return _rng(spec).integers(0, data.n_rows, size=spec.n_samples)
    if spec.kind == PRODUCT_OF_MARGINALS:
        return _rng(spec).integers(0, data.n_rows, size=(spec.n_samples, data.n_features))
    raise ValueError(f"{spec.kind} does not sample replacement rows")


def _replacement_values(data: TabularDataset, spec: ValueFunctionSpec, idx) -> np.ndarray:
    """One row of replacement values per sample, from the drawn indices."""
    if spec.kind == SINGLE_REFERENCE:
        return np.asarray(spec.reference, dtype=float)[None, :]
    if spec.kind == MARGINAL_JOINT:
        return data.rows[idx]
    # product-of-marginals: feature j of sample k comes from row idx[k, j]
    return data.rows[idx, np.arange(data.n_features)]


def _keep_mask(coalition: Coalition) -> np.ndarray:
    # contains(), not members: a generator-built tuple per coalition left the
    # process about 1 MB larger after a few dozen table builds
    return np.array([coalition.contains(j) for j in range(coalition.n_players)], dtype=bool)


def _hybrid_matrix(x: np.ndarray, keep: Coalition, replacements: np.ndarray) -> np.ndarray:
    """Hybrid values, one row per sample; the grand coalition is the instance."""
    if keep.mask == (1 << keep.n_players) - 1:
        return x[None, :].copy()
    return np.where(_keep_mask(keep), x, replacements)


def _mean_score(model, rows: np.ndarray, coalition: Coalition, data: TabularDataset) -> float:
    """Mean model score over one block of rows, which must be finite; a block
    of equal scores means exactly that score, where np.mean can round off it."""
    with np.errstate(all="ignore"):  # reported below, naming the coalition
        scores = model.predict(rows)
        value = float(np.mean(scores))
        first = float(scores[0])
        # the mean of n equal scores is within n * eps / 2 = n * 2**-53 of them,
        # so only a mean that close to the first score needs the exact test
        if value != first and abs(value - first) <= len(scores) * 2.0**-51 * abs(first):
            if (scores == first).all():
                value = first
    if not math.isfinite(value):
        raise NonFiniteScoreError(coalition, data.feature_names)
    return value


def generate_hybrids(
    data: TabularDataset, x, keep: Coalition, spec: ValueFunctionSpec
) -> list[HybridSample]:
    """The exact evaluation set an interventional oracle consumes for ``keep``.

    Same spec (including seed) means the same hybrids, in the same order.
    """
    if spec.kind == CONDITIONAL:
        raise ValueError("conditional-empirical games do not use hybrid samples")
    x = _check_instance(data, x)
    idx = _replacement_rows(data, spec)
    hybrids = _hybrid_matrix(x, keep, _replacement_values(data, spec, idx))
    if keep.mask == (1 << data.n_features) - 1:
        prov = [None]
    elif spec.kind == SINGLE_REFERENCE:
        prov = ["reference"]
    elif spec.kind == MARGINAL_JOINT:
        prov = [int(i) for i in idx]
    else:
        replaced = [j for j in range(data.n_features) if not keep.contains(j)]
        prov = [{j: int(row[j]) for j in replaced} for row in idx]
    return [
        HybridSample(tuple(float(v) for v in row), keep, p)
        for row, p in zip(hybrids, prov)
    ]


def build_interventional_game(model, data: TabularDataset, x, spec: ValueFunctionSpec) -> CoalitionGame:
    """Coalition game whose value is the mean model score over hybrid samples.

    The grand coalition always evaluates to the model score at the instance;
    marginal-joint with ``n_samples >= n_rows`` averages deterministically
    over every dataset row instead of sampling.
    """
    if spec.kind == CONDITIONAL:
        raise ValueError("use build_conditional_game for conditional-empirical games")
    xv = _check_instance(data, x)
    if model.arity != data.n_features:
        raise ValueError(f"model arity {model.arity} != dataset features {data.n_features}")
    replacements = _replacement_values(data, spec, _replacement_rows(data, spec))

    def oracle(coalition: Coalition) -> float:
        return _mean_score(model, _hybrid_matrix(xv, coalition, replacements), coalition, data)

    return CoalitionGame(data.n_features, oracle)


def build_conditional_game(model, data: TabularDataset, x) -> CoalitionGame:
    """Coalition game from exact-match empirical conditioning.

    v(S) is the mean model score over rows agreeing with the instance on S
    (with the instance's S coordinates substituted in, which for exact matches
    is the row itself); v(empty) is the dataset mean prediction and v(full) is
    the plain model score at the instance.
    """
    if not data.all_discrete:
        raise ContinuousFeatureError(data.continuous_features())
    xv = _check_instance(data, x)
    if model.arity != data.n_features:
        raise ValueError(f"model arity {model.arity} != dataset features {data.n_features}")
    rows = data.rows
    d = data.n_features
    equal = rows == xv[None, :]  # per-feature matches, shared by every coalition

    def oracle(coalition: Coalition) -> float:
        if coalition.mask == (1 << d) - 1:
            return _mean_score(model, xv[None, :], coalition, data)
        keep = _keep_mask(coalition)
        matched = rows[equal[:, keep].all(axis=1)]
        if matched.shape[0] == 0:
            raise EmptyConditioningSetError(coalition, data.feature_names)
        return _mean_score(model, np.where(keep, xv, matched), coalition, data)

    return CoalitionGame(d, oracle)


EXACT_ROW_MEMBERSHIP = "exact-row-membership"


def ood_fraction(
    data: TabularDataset,
    hybrids: Sequence[HybridSample],
    criterion: str | Callable[[Sequence[float]], bool] = EXACT_ROW_MEMBERSHIP,
) -> float:
    """Fraction of hybrids failing an in-distribution criterion.

    ``criterion`` is either the string ``"exact-row-membership"`` (a hybrid
    passes when it appears verbatim among the dataset rows) or a predicate on
    the hybrid values returning True when the constraint is satisfied.
    """
    if not hybrids:
        raise ValueError("ood_fraction needs at least one hybrid")
    if criterion == EXACT_ROW_MEMBERSHIP:
        members = data.row_set()
        failing = sum(1 for h in hybrids if h.values not in members)
    elif callable(criterion):
        failing = sum(1 for h in hybrids if not criterion(h.values))
    else:
        raise ValueError(f"unknown criterion {criterion!r}")
    return failing / len(hybrids)


def _assert_interventionally_inert(model, data: TabularDataset, x: np.ndarray, feature: int) -> None:
    """Scan the evaluation grid: substituting the feature must never move f."""
    substitutes = np.unique(np.append(data.column(feature), x[feature]))
    probe = np.vstack([data.rows, x[None, :]])
    expected = model.predict(probe)
    for u in substitutes:
        probe[:, feature] = u
        if np.any(model.predict(probe) != expected):
            raise ValueError(
                f"feature {data.feature_names[feature]} is not "
                "interventionally inert: substituting it changes the model output"
            )


def indirect_influence_gap(model, data: TabularDataset, x, feature: int) -> tuple[float, float]:
    """Shapley value of an interventionally inert feature under both the
    conditional-empirical game and the full-pass marginal-joint game.

    The pair quantifies how much attribution the feature earns purely by
    proxying correlated features: the conditional side may be nonzero, the
    interventional side is exactly zero.
    """
    from .solvers import exact_shapley_subsets

    xv = _check_instance(data, x)
    if not 0 <= feature < data.n_features:
        raise ValueError(f"feature index {feature} out of range")
    _assert_interventionally_inert(model, data, xv, feature)
    conditional = exact_shapley_subsets(build_conditional_game(model, data, xv))
    spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=data.n_rows, seed=0)
    interventional = exact_shapley_subsets(build_interventional_game(model, data, xv, spec))
    return conditional.values[feature], interventional.values[feature]
