"""Deterministic demonstration scenarios.

Each scenario builds a small, fully pinned construction (discrete symmetric
designs wherever the claim is distribution-generic, Gaussians only where the
claim is about Gaussians), checks a list of claims and returns a report that
serializes to JSON plus optional plot-ready CSV artifacts. Reports are
byte-identical across runs for fixed parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path

import numpy as np

from .data import TabularDataset
from .games import Coalition, CoalitionGame, PrecedenceOrder
from .models import CallableModel, LinearModel, MultiplicativeModel, QuadraticRecourseModel, ScaffoldedModel, linear_closed_form, multiplicative_closed_form
from .reporting import dump_json, format_csv, atomic_write_text
from .solvers import asymmetric_shapley, exact_shapley_subsets
from .value_functions import (
    MARGINAL_JOINT,
    ValueFunctionSpec,
    build_conditional_game,
    build_interventional_game,
    generate_hybrids,
    ood_fraction,
)


@dataclass
class Claim:
    description: str
    expected: object
    observed: object
    tolerance: float | None
    passed: bool

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "expected": self.expected,
            "observed": self.observed,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


@dataclass
class CsvArtifact:
    name: str
    header: list[str]
    rows: list[tuple]


@dataclass
class ScenarioReport:
    scenario_id: str
    claims: list[Claim] = field(default_factory=list)
    artifacts: list[CsvArtifact] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.claims)

    def failed_claims(self) -> list[Claim]:
        return [c for c in self.claims if not c.passed]

    def to_dict(self) -> dict:
        return {
            "id": self.scenario_id,
            "claims": [c.to_dict() for c in self.claims],
            "artifacts": [a.name for a in self.artifacts],
        }


def _py(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_py(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def close(description, expected, observed, tolerance) -> Claim:
    expected, observed = _py(expected), _py(observed)
    if isinstance(expected, list):
        gap = max(abs(e - o) for e, o in zip(expected, observed)) if expected else 0.0
        ok = len(expected) == len(observed) and gap <= tolerance
    else:
        ok = abs(expected - observed) <= tolerance
    return Claim(description, expected, observed, tolerance, ok)


def truth(description, observed_condition, observed=None) -> Claim:
    return Claim(description, True, _py(observed) if observed is not None else bool(observed_condition), None, bool(observed_condition))


def at_most(description, observed, bound) -> Claim:
    observed = _py(observed)
    return Claim(description, bound, observed, None, observed <= bound)


def at_least(description, observed, bound) -> Claim:
    observed = _py(observed)
    return Claim(description, bound, observed, None, observed >= bound)


def _factorial_design(levels, d) -> list[list[float]]:
    return [list(combo) for combo in product(levels, repeat=d)]


# --- redundancy -------------------------------------------------------------

def run_redundancy_scenario() -> ScenarioReport:
    """A perfectly redundant copy changes every attribution except under the
    precedence-constrained quasivalue."""
    report = ScenarioReport("redundancy")
    rows3 = [[a, b, b] for a, b in product((-1.0, 1.0), repeat=2)]
    data3 = TabularDataset(["a", "b", "c"], rows3)
    rows2 = _factorial_design((-1.0, 1.0), 2)
    data2 = TabularDataset(["a", "b"], rows2)

    f3 = CallableModel(3, lambda r: r[0] * r[1])
    f2 = MultiplicativeModel(2)
    x3, x2 = [1.0, 1.0, 1.0], [1.0, 1.0]

    g3 = build_conditional_game(f3, data3, x3)
    g2 = build_conditional_game(f2, data2, x2)

    A, B, C = 0b001, 0b010, 0b100
    report.claims.append(
        close(
            "conditioning degeneracy: v(B) = v(C) = v(BC)",
            [g3.value_mask(B)] * 3,
            [g3.value_mask(B), g3.value_mask(C), g3.value_mask(B | C)],
            1e-12,
        )
    )
    report.claims.append(
        close(
            "conditioning degeneracy: v(AB) = v(AC) = v(ABC)",
            [g3.value_mask(A | B)] * 3,
            [g3.value_mask(A | B), g3.value_mask(A | C), g3.value_mask(A | B | C)],
            1e-12,
        )
    )

    phi3 = exact_shapley_subsets(g3)
    phi2 = exact_shapley_subsets(g2)
    reduced_a = g3.marginal(0, 0) / 3.0 + 2.0 * g3.marginal(0, B | C) / 3.0
    reduced_b = g3.marginal(1, 0) / 3.0 + g3.marginal(1, A) / 6.0
    report.claims.append(
        close("reduced form: phi(A) = 1/3 D(A,0) + 2/3 D(A,BC)", reduced_a, phi3.values[0], 1e-12)
    )
    report.claims.append(
        close("reduced form: phi(B) = 1/3 D(B,0) + 1/6 D(B,A)", reduced_b, phi3.values[1], 1e-12)
    )
    report.claims.append(close("symmetry of the redundant pair: phi(B) = phi(C)", phi3.values[1], phi3.values[2], 1e-12))
    report.claims.append(close("three-variable attribution at (1,1,1)", [2 / 3, 1 / 6, 1 / 6], phi3.values, 1e-12))
    report.claims.append(close("two-variable attribution at (1,1)", [0.5, 0.5], phi2.values, 1e-12))
    report.claims.append(
        at_least(
            "dropping the copy changes B's value: |phi'(B) - phi(B)| >= 1/12",
            abs(phi2.values[1] - phi3.values[1]),
            1 / 12,
        )
    )
    report.claims.append(
        at_least(
            "and B does not inherit the pair total: |phi'(B) - (phi(B)+phi(C))| >= 1/12",
            abs(phi2.values[1] - (phi3.values[1] + phi3.values[2])),
            1 / 12,
        )
    )

    order = PrecedenceOrder(3, [(1, 2)])  # B precedes its deterministic copy C
    asym = asymmetric_shapley(g3, order)
    report.claims.append(close("precedence-constrained values at (1,1,1)", [2 / 3, 1 / 3, 0.0], asym.values, 1e-12))
    report.claims.append(at_most("redundant descendant gets zero", abs(asym.values[2]), 1e-12))
    report.claims.append(
        at_most(
            "precedence-constrained efficiency gap",
            abs(asym.base_value + sum(asym.values) - g3.grand_value),
            1e-9,
        )
    )

    f3_add = CallableModel(3, lambda r: r[0] + r[1])
    f2_add = LinearModel(0.0, [1.0, 1.0])
    asym_add = asymmetric_shapley(build_conditional_game(f3_add, data3, x3), order)
    phi2_add = exact_shapley_subsets(build_conditional_game(f2_add, data2, x2))
    report.claims.append(
        close(
            "additive model: constrained (A,B) values equal the 2-variable values",
            list(phi2_add.values),
            [asym_add.values[0], asym_add.values[1]],
            1e-12,
        )
    )
    report.claims.append(
        at_least(
            "finding: for the interaction model the constrained B value still differs "
            "from the 2-variable one",
            abs(asym.values[1] - phi2.values[1]),
            1 / 12,
        )
    )
    return report


# --- linear -----------------------------------------------------------------

def run_linear_scenario(seed: int = 0) -> ScenarioReport:
    """Expectation-style games on a linear model reduce to coefficient * offset."""
    report = ScenarioReport("linear")

    def solve(model, data, x):
        spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=data.n_rows, seed=0)
        return exact_shapley_subsets(build_interventional_game(model, data, x, spec))

    data2 = TabularDataset(["x1", "x2"], _factorial_design((-1.0, 1.0), 2))
    model2 = LinearModel(0.0, [2.0, -1.0])
    attr2 = solve(model2, data2, [1.0, 3.0])
    closed2 = linear_closed_form(model2, [1.0, 3.0], data2.means())
    report.claims.append(close("d=2: game values match the closed form (2, -3)", [2.0, -3.0], attr2.values, 1e-9))
    report.claims.append(close("d=2: closed form agrees coordinatewise", list(closed2.values), attr2.values, 1e-9))
    report.claims.append(close("d=2: base value is the mean prediction", model2.score(data2.means()), attr2.base_value, 1e-9))

    data3 = TabularDataset(["x1", "x2", "x3"], _factorial_design((-1.0, 1.0), 3))
    model3 = LinearModel(0.5, [2.0, -1.0, 0.5])
    attr3 = solve(model3, data3, [1.0, 3.0, -2.0])
    report.claims.append(close("d=3: values match coefficient * offset", [2.0, -3.0, -1.0], attr3.values, 1e-9))

    at_mean = solve(model3, data3, data3.means())
    report.claims.append(close("instance at the mean row earns zero everywhere", [0.0, 0.0, 0.0], at_mean.values, 1e-9))

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(5):
        coeffs = rng.uniform(-2.0, 2.0, size=3)
        intercept = float(rng.uniform(-1.0, 1.0))
        x = rng.uniform(-3.0, 3.0, size=3)
        model = LinearModel(intercept, coeffs)
        attr = solve(model, data3, x)
        closed = linear_closed_form(model, x, data3.means())
        worst = max(worst, max(abs(a - c) for a, c in zip(attr.values, closed.values)))
    report.claims.append(at_most("five seeded random (coeffs, x) draws match the closed form", worst, 1e-9))
    return report


# --- multiplicative ---------------------------------------------------------

def run_multiplicative_scenario() -> ScenarioReport:
    """Product models over independent zero-centered designs flatten to f(x)/d
    per feature, whatever the individual coordinates contributed."""
    report = ScenarioReport("multiplicative")
    cases = [
        ("d=2, x=(1,1)", (-1.0, 1.0), 2, [1.0, 1.0]),
        ("d=2, x=(1,-1)", (-1.0, 1.0), 2, [1.0, -1.0]),
        ("d=3, x=(-1,1,1)", (-1.0, 1.0), 3, [-1.0, 1.0, 1.0]),
        ("magnitude-imbalanced d=2, x=(2,-1)", (-2.0, -1.0, 1.0, 2.0), 2, [2.0, -1.0]),
    ]
    for label, levels, d, x in cases:
        data = TabularDataset([f"x{j+1}" for j in range(d)], _factorial_design(levels, d))
        model = MultiplicativeModel(d)
        game = build_conditional_game(model, data, x)
        off_grand = max(abs(game.value_mask(m)) for m in range((1 << d) - 1))
        report.claims.append(at_most(f"{label}: v(S) = 0 off the grand coalition", off_grand, 1e-12))
        attr = exact_shapley_subsets(game)
        fx = model.score(x)
        report.claims.append(close(f"{label}: every feature gets f(x)/d = {fx/d}", [fx / d] * d, attr.values, 1e-9))
        closed = multiplicative_closed_form(model, x)
        report.claims.append(close(f"{label}: closed form agrees", list(closed.values), attr.values, 1e-9))
    return report


# --- recourse ---------------------------------------------------------------

def run_recourse_scenario(n_samples: int = 100_000, seed: int = 0) -> ScenarioReport:
    """A positive attribution does not mean that pushing the feature further is
    beneficial: fit 2 - (x-1)^2 at x=1."""
    report = ScenarioReport("recourse")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal(n_samples)
    data = TabularDataset(["x"], draws.reshape(-1, 1))
    model = QuadraticRecourseModel()
    spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=data.n_rows, seed=0)
    attr = exact_shapley_subsets(build_interventional_game(model, data, [1.0], spec))

    scores = model.predict(data.rows)
    se = float(scores.std(ddof=1) / math.sqrt(n_samples))
    report.claims.append(close("single-input value is f(1) - mean(f) = 2", 2.0, attr.values[0], 0.05))
    report.claims.append(close("estimated mean prediction is 0 (analytic: 2 - (Var+1))", 0.0, attr.base_value, 0.05))
    report.claims.append(at_most("standard error of the mean estimate", se, 0.01))
    report.claims.append(
        truth(
            "raising the input despite the positive value lowers the score: f(2) < f(1)",
            model.score([2.0]) < model.score([1.0]),
            [model.score([2.0]), model.score([1.0])],
        )
    )
    return report


# --- beetle -----------------------------------------------------------------

def run_beetle_scenario() -> ScenarioReport:
    """Necessity vs additive splitting: temperature T is necessary, either
    mutation suffices, yet the split hands T only two thirds."""
    report = ScenarioReport("beetle")
    # players: T=0, M1=1, M2=2; payoff 1 iff T present and at least one mutation
    table = [1.0 if (m & 1 and (m & 0b010 or m & 0b100)) else 0.0 for m in range(8)]
    game = CoalitionGame.from_table(table)
    attr = exact_shapley_subsets(game)
    report.claims.append(close("values are (2/3, 1/6, 1/6)", [2 / 3, 1 / 6, 1 / 6], attr.values, 1e-12))
    report.claims.append(close("efficiency: values sum to the grand value 1", 1.0, attr.base_value + sum(attr.values), 1e-12))
    report.claims.append(at_most("symmetry: the two mutations tie exactly", abs(attr.values[1] - attr.values[2]), 1e-12))
    necessity = all(table[m] == 0.0 for m in range(8) if not m & 1)
    report.claims.append(truth("necessity: no coalition without T pays anything", necessity))
    report.claims.append(
        truth(
            "the necessary cause still receives less than the whole outcome",
            attr.values[0] < game.grand_value,
            [attr.values[0], game.grand_value],
        )
    )
    return report


# --- ood figure -------------------------------------------------------------

def run_ood_figure_scenario(rho: float = 0.8, n: int = 2000, seed: int = 0) -> ScenarioReport:
    """Conditional vs marginal sample clouds used to estimate E[f(1,Y)] and
    E[f(X,2)] when explaining the point (1, 2) under a correlated Gaussian."""
    report = ScenarioReport("ood-figure")
    if not -1.0 < rho < 1.0:
        raise ValueError("rho must lie strictly inside (-1, 1)")
    rng = np.random.default_rng(seed)
    cond_sd = math.sqrt(1.0 - rho * rho)
    x_cond = rng.normal(rho * 2.0, cond_sd, n)  # X | Y=2
    y_cond = rng.normal(rho * 1.0, cond_sd, n)  # Y | X=1
    x_marg = rng.normal(0.0, 1.0, n)
    y_marg = rng.normal(0.0, 1.0, n)

    mean_tol = lambda sd: 4.0 * sd / math.sqrt(n)
    var_tol = lambda var: 4.0 * var * math.sqrt(2.0 / (n - 1))
    checks = [
        ("conditional X|Y=2 mean", x_cond.mean(), rho * 2.0, mean_tol(cond_sd)),
        ("conditional Y|X=1 mean", y_cond.mean(), rho * 1.0, mean_tol(cond_sd)),
        ("conditional X|Y=2 variance", x_cond.var(ddof=1), 1.0 - rho * rho, var_tol(1.0 - rho * rho)),
        ("conditional Y|X=1 variance", y_cond.var(ddof=1), 1.0 - rho * rho, var_tol(1.0 - rho * rho)),
        ("marginal X mean", x_marg.mean(), 0.0, mean_tol(1.0)),
        ("marginal Y mean", y_marg.mean(), 0.0, mean_tol(1.0)),
        ("marginal X variance", x_marg.var(ddof=1), 1.0, var_tol(1.0)),
        ("marginal Y variance", y_marg.var(ddof=1), 1.0, var_tol(1.0)),
    ]
    for label, observed, expected, tol in checks:
        report.claims.append(close(f"{label} within 4 standard errors", expected, observed, tol))

    rows = []
    for v in x_cond:
        rows.append(("conditional", "X|Y=2", float(v), 2.0))
    for v in y_cond:
        rows.append(("conditional", "Y|X=1", 1.0, float(v)))
    for v in x_marg:
        rows.append(("marginal", "X", float(v), 2.0))
    for v in y_marg:
        rows.append(("marginal", "Y", 1.0, float(v)))
    report.artifacts.append(CsvArtifact("ood_figure_points.csv", ["panel", "series", "x", "y"], rows))
    return report


# --- engineered feature -----------------------------------------------------

def run_engineered_feature_scenario(n: int = 2000, seed: int = 0) -> ScenarioReport:
    """Keeping (x1, x2) of a point and resampling the engineered x3 = x1*x2
    produces hybrids that all break the defining constraint."""
    report = ScenarioReport("engineered-feature")
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, 2))
    rows = np.column_stack([base, base[:, 0] * base[:, 1]])
    data = TabularDataset(["x1", "x2", "x3"], rows)
    u1, u2 = rng.standard_normal(2)
    x = [float(u1), float(u2), float(u1 * u2)]  # on the manifold, off the dataset

    constraint = lambda v: abs(v[2] - v[0] * v[1]) <= 1e-9
    spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=data.n_rows, seed=seed)

    kept = generate_hybrids(data, x, Coalition.of([0, 1], 3), spec)
    report.claims.append(
        close("every { x1, x2 }-kept hybrid violates x3 = x1*x2", 1.0, ood_fraction(data, kept, constraint), 0.0)
    )
    report.claims.append(
        close("none of those hybrids is a dataset row", 1.0, ood_fraction(data, kept), 0.0)
    )
    full = generate_hybrids(data, x, Coalition.full(3), spec)
    report.claims.append(
        close("the untouched instance satisfies the constraint", 0.0, ood_fraction(data, full, constraint), 0.0)
    )
    verbatim = generate_hybrids(data, x, Coalition.empty(3), spec)
    report.claims.append(
        close("whole-row replacements are verbatim dataset rows", 0.0, ood_fraction(data, verbatim), 0.0)
    )
    report.claims.append(
        close("and dataset rows never violate the constraint", 0.0, ood_fraction(data, verbatim, constraint), 0.0)
    )
    rows_out = [(h.values[0], h.values[1], h.values[2], abs(h.values[2] - h.values[0] * h.values[1])) for h in kept]
    report.artifacts.append(
        CsvArtifact("engineered_hybrids.csv", ["x1", "x2", "x3", "constraint_gap"], rows_out)
    )
    return report


# --- adversarial scaffold ---------------------------------------------------

def run_adversarial_scenario(seed: int = 0) -> ScenarioReport:
    """A model that discriminates on a protected bit in-distribution but answers
    a constant off-distribution shrinks the protected attribution threefold.

    The suppression is structural, not total: replacements that happen to agree
    with the instance's protected bit land back on the dataset, so the
    scaffolded value is exactly (1 - mean(P)) / 3 under a full background pass.
    The residual-leak identity is asserted below rather than hidden.
    """
    report = ScenarioReport("adversarial")
    n, n_zero = 200, 10
    rng = np.random.default_rng(seed)
    protected = np.array([0.0] * n_zero + [1.0] * (n - n_zero))
    rng.shuffle(protected)
    covers = rng.standard_normal((n, 2))
    data = TabularDataset(["p", "c1", "c2"], np.column_stack([protected, covers]))
    p_mean = float(protected.mean())
    x = data.row(int(np.argmax(data.column("p") == 1.0)))

    biased = LinearModel(0.0, [1.0, 0.0, 0.0])
    innocuous = CallableModel(3, lambda r: 0.5)
    masked = ScaffoldedModel(biased, innocuous, data)

    spec = ValueFunctionSpec(kind=MARGINAL_JOINT, n_samples=data.n_rows, seed=seed)
    raw = exact_shapley_subsets(build_interventional_game(biased, data, x, spec))
    hidden = exact_shapley_subsets(build_interventional_game(masked, data, x, spec))

    report.claims.append(close("unmasked model: protected value is 1 - mean(P)", 1.0 - p_mean, raw.values[0], 1e-9))
    report.claims.append(close("unmasked model: cover features earn nothing", [0.0, 0.0], [raw.values[1], raw.values[2]], 1e-9))
    report.claims.append(at_most("scaffold pushes the protected value under 0.02", abs(hidden.values[0]), 0.02))
    report.claims.append(
        close(
            "finding: the scaffolded value equals the structural leak (1 - mean(P)) / 3",
            (1.0 - p_mean) / 3.0,
            hidden.values[0],
            1e-9,
        )
    )
    disagreement = float(np.max(np.abs(masked.predict(data.rows) - biased.predict(data.rows))))
    report.claims.append(close("scaffold matches the biased model on every dataset row", 0.0, disagreement, 0.0))
    return report


# --- registry / io ----------------------------------------------------------

SCENARIO_NAMES = (
    "redundancy",
    "linear",
    "multiplicative",
    "recourse",
    "beetle",
    "ood-figure",
    "engineered-feature",
    "adversarial",
)


def run_scenario(name: str, seed: int | None = None, n_samples: int | None = None) -> ScenarioReport:
    """Run one scenario by name, applying overrides where they make sense."""
    seed = 0 if seed is None else seed
    if name == "redundancy":
        return run_redundancy_scenario()
    if name == "linear":
        return run_linear_scenario(seed=seed)
    if name == "multiplicative":
        return run_multiplicative_scenario()
    if name == "recourse":
        return run_recourse_scenario(n_samples=n_samples or 100_000, seed=seed)
    if name == "beetle":
        return run_beetle_scenario()
    if name == "ood-figure":
        return run_ood_figure_scenario(n=n_samples or 2000, seed=seed)
    if name == "engineered-feature":
        return run_engineered_feature_scenario(n=n_samples or 2000, seed=seed)
    if name == "adversarial":
        return run_adversarial_scenario(seed=seed)
    raise KeyError(name)


def write_report(report: ScenarioReport, out_dir, extra: dict | None = None) -> list[Path]:
    """Write the JSON report and its CSV artifacts; returns the written paths."""
    out_dir = Path(out_dir)
    payload = report.to_dict()
    if extra:
        payload.update(extra)
    written = []
    for artifact in report.artifacts:
        path = out_dir / artifact.name
        atomic_write_text(path, format_csv(artifact.header, artifact.rows))
        written.append(path)
    report_path = out_dir / f"{report.scenario_id}.json"
    atomic_write_text(report_path, dump_json(payload))
    written.append(report_path)
    return written
