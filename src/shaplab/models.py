"""Deterministic model families with known closed-form attribution behavior.

A predictive model is anything with an integer ``arity``, a deterministic
``score(row) -> float`` and a batched ``predict(rows) -> ndarray`` that maps an
``(m, d)`` block to its ``m`` scores. Both must be total on R^d: they return a
value even for inputs far off the data manifold, which is exactly what the
interventional value functions exploit and what the out-of-distribution
diagnostics probe. The value functions score one block per coalition through
``predict``; ``score`` serves scalar callers. Every family's ``predict``
returns exactly ``[score(r) for r in rows]``, bit for bit. ``CallableModel``,
which wraps an arbitrary per-row function, is the only family that scores a
block one row at a time.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from .data import TabularDataset
from .games import Attribution


@runtime_checkable
class PredictiveModel(Protocol):
    arity: int

    def score(self, row) -> float: ...

    def predict(self, rows) -> np.ndarray: ...


class LinearModel:
    """f(x) = intercept + coefficients . x"""

    def __init__(self, intercept: float, coefficients: Sequence[float]):
        self.intercept = float(intercept)
        self.coefficients = np.asarray(coefficients, dtype=float)
        self.arity = len(self.coefficients)

    def score(self, row) -> float:
        return self.intercept + float(np.add.reduce(self.coefficients * row))

    def predict(self, rows) -> np.ndarray:
        # Row-wise pairwise sums of C-ordered products reproduce score's 1-D
        # sum exactly; a matrix-vector product would not.
        return self.intercept + np.multiply(rows, self.coefficients, order="C").sum(axis=1)


class MultiplicativeModel:
    """f(x) = product of all coordinates."""

    def __init__(self, arity: int):
        self.arity = int(arity)

    def score(self, row) -> float:
        out = 1.0
        for v in row:
            out *= float(v)
        return out

    def predict(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        out = np.ones(rows.shape[0])
        for j in range(rows.shape[1]):  # left to right, as score multiplies
            out *= rows[:, j]
        return out


class QuadraticRecourseModel:
    """Univariate f(x) = 2 - (x - 1)^2: the sign of an attribution says
    nothing about which direction of change would raise the score."""

    arity = 1

    def score(self, row) -> float:
        offset = float(row[0]) - 1.0
        return 2.0 - offset * offset

    def predict(self, rows) -> np.ndarray:
        offset = np.asarray(rows, dtype=float)[:, 0] - 1.0
        return 2.0 - offset * offset


class CallableModel:
    """Wrap an arbitrary deterministic function as a predictive model."""

    def __init__(self, arity: int, fn: Callable[[Sequence[float]], float]):
        self.arity = int(arity)
        self._fn = fn

    def score(self, row) -> float:
        return float(self._fn(row))

    def predict(self, rows) -> np.ndarray:
        return np.array([float(self._fn(row)) for row in rows], dtype=float)


class ScaffoldedModel:
    """Behaves like ``biased`` on exact training rows and like ``innocuous``
    everywhere else — the construction that games interventional explainers."""

    def __init__(self, biased, innocuous, membership: TabularDataset):
        if biased.arity != innocuous.arity:
            raise ValueError(
                f"arity mismatch: biased={biased.arity}, innocuous={innocuous.arity}"
            )
        if membership.n_features != biased.arity:
            raise ValueError("membership dataset arity does not match the models")
        self.biased = biased
        self.innocuous = innocuous
        self.membership = membership
        self.arity = biased.arity
        finite = membership.rows[~np.isnan(membership.rows).any(axis=1)]
        self._keys = np.unique(_row_keys(finite))

    def _is_member(self, rows) -> np.ndarray:
        """Exact membership of each row, with the semantics of comparing
        tuples of floats: -0.0 matches 0.0 and a NaN coordinate never matches."""
        rows = np.asarray(rows, dtype=float)
        keys = _row_keys(rows)
        if not len(self._keys):
            return np.zeros(len(keys), dtype=bool)
        pos = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        return (self._keys[pos] == keys) & ~np.isnan(rows).any(axis=1)

    def score(self, row) -> float:
        return float(self.predict(np.asarray(row, dtype=float)[None, :])[0])

    def predict(self, rows) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        member = self._is_member(rows)
        out = np.empty(rows.shape[0])
        if member.any():
            out[member] = self.biased.predict(rows[member])
        if not member.all():
            out[~member] = self.innocuous.predict(rows[~member])
        return out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque byte key per row; adding 0.0 folds -0.0 into 0.0 first."""
    block = np.ascontiguousarray(rows + 0.0)
    return block.view(np.dtype((np.void, block.dtype.itemsize * block.shape[1]))).ravel()


def linear_closed_form(model: LinearModel, x, means) -> Attribution:
    """Closed-form attribution for a linear model under any expectation-style
    value function: each coordinate earns coefficient * (value - mean)."""
    x = np.asarray(x, dtype=float)
    means = np.asarray(means, dtype=float)
    if x.shape != (model.arity,) or means.shape != (model.arity,):
        raise ValueError(
            f"expected {model.arity} coordinates, got x{ x.shape } and means{means.shape}"
        )
    values = model.coefficients * (x - means)
    return Attribution(
        base_value=model.score(means),
        values=tuple(float(v) for v in values),
        method="closed-form",
        diagnostics={"family": "linear"},
    )


def multiplicative_closed_form(model: MultiplicativeModel, x) -> Attribution:
    """Closed-form attribution for a product model over independent,
    zero-centered features: every coordinate gets f(x)/d, regardless of its
    own magnitude."""
    fx = model.score(x)
    share = fx / model.arity
    return Attribution(
        base_value=0.0,
        values=tuple(share for _ in range(model.arity)),
        method="closed-form",
        diagnostics={"family": "multiplicative"},
    )
