"""The four benchmark workloads: seeded inputs, request mixes and output checks.

A workload writes its inputs (CSV and tree files) in ``setup`` and then hands
out rounds of requests. A round holds every request kind in fixed
proportions, in an order and with instances drawn from the run's seed, so the
mix is the same on every run and rank statistics such as the median fall in
the same request kind. Each request has a timed ``call`` and an untimed
``check`` that compares the output with ``reference`` results computed
without the code under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref

EXACT = 1e-9  # absolute tolerance of every value check
AGREE = 1e-12  # subset and permutation solvers on the same table

SCENARIOS = (
    "redundancy", "linear", "multiplicative", "recourse",
    "beetle", "ood-figure", "engineered-feature", "adversarial",
)
# Scenarios whose construction ignores the seed; their observed claim values
# were stored from the commit that introduced the benchmark.
STORED_SCENARIOS = Path(__file__).with_name("reference_scenarios.json")


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    model_hint: str | None = None  # scoring family of non-LinearModel value games


def _gap(observed, expected) -> float:
    observed = np.asarray(observed, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if observed.shape != expected.shape:
        return float("inf")
    return float(np.max(np.abs(observed - expected))) if observed.size else 0.0


def _expect(problems: list, label: str, observed, expected, tol=EXACT) -> None:
    gap = _gap(observed, expected)
    if not gap <= tol:
        problems.append(f"{label}: off by {gap:.3g} (tolerance {tol:g})")


def _verdict(problems: list) -> str | None:
    return "; ".join(problems) if problems else None


def _write_csv(path: Path, names, rows: np.ndarray) -> None:
    lines = [",".join(names)]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _fit_ensemble(sl, rows: np.ndarray, target: np.ndarray, depth: int, n_trees: int = 3):
    """Boosted ensemble: each tree fits the previous trees' residuals."""
    data = sl.TabularDataset([f"x{j}" for j in range(rows.shape[1])], rows)
    trees = []
    residual = target.astype(float)
    for _ in range(n_trees):
        tree = sl.build_tree_from_data(data, residual, depth)
        trees.append(tree)
        residual = residual - np.array([tree.score(r) for r in rows])
    return sl.TreeEnsemble(trees)


def _probe_block(rows: np.ndarray, rng, n: int) -> np.ndarray:
    """Hybrid rows: a row's coordinates on a random coalition, another's elsewhere."""
    a = rows[rng.integers(0, rows.shape[0], size=n)]
    b = rows[rng.integers(0, rows.shape[0], size=n)]
    return np.where(rng.random(a.shape) < 0.5, a, b)


class Workload:
    name = ""
    why = ""

    def __init__(self, sl, work: Path, seed: int, tiny: bool):
        self.sl = sl
        self.work = work
        self.seed = seed
        self.tiny = tiny
        self.rng = np.random.default_rng(seed)
        self.out = work / "out"
        self._refs: dict = {}

    def cached(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def cli(self, argv):
        return lambda: self.sl.cli.main(argv + ["--out", str(self.out)])

    def read(self, name: str) -> dict:
        return json.loads((self.out / name).read_text())

    def setup(self) -> None:
        raise NotImplementedError

    # Request kinds of one round, repeats included; the first one is the
    # warm-up request of set-up.
    MIX: tuple[str, ...] = ()
    # Untraced runs serve at least this many rounds, so that at least 14
    # requests of the slowest kinds are served: the ten slowest requests then
    # come from those kinds alone, and the tail percentile reads one cluster
    # even when the machine runs slow.
    MIN_ROUNDS = 1

    def request(self, kind: str, rng) -> Request:
        raise NotImplementedError

    def round(self, rng) -> list[Request]:
        kinds = list(self.MIX)
        rng.shuffle(kinds)
        return [self.request(kind, rng) for kind in kinds]

    def inputs(self) -> str:
        raise NotImplementedError

    def requests(self) -> dict[str, str]:
        """What each request kind does, at the sizes ``setup`` chose."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {
            "why": self.why,
            "loop": "closed, one client, one process and thread",
            "inputs": self.inputs(),
            "round": {kind: f"{self.MIX.count(kind)} x {text}" for kind, text in self.requests().items()},
        }

    def probe_models(self) -> dict:
        """{"linear": (model, rows), "tree": (model, rows)} for the score probes.

        Workloads without their own model of a family get one fitted on
        synthetic d=10 data, so every workload reports both probes.
        """
        rng = np.random.default_rng([self.seed, 7])
        rows = rng.standard_normal((64, 10))
        target = rows @ rng.uniform(-2, 2, 10) + np.sin(rows[:, 0]) * rows[:, 1]
        ensemble = _fit_ensemble(self.sl, rows, target, 5)
        block = _probe_block(rows, rng, 2000)
        return {
            "linear": (self.sl.LinearModel(0.5, rng.uniform(-2, 2, 10)), block),
            "tree": (self.sl.CallableModel(10, ensemble.score), block),
        }


# --- interventional-explain ----------------------------------------------------

class InterventionalExplain(Workload):
    name = "interventional-explain"
    why = ("Coalition-table build is over 90% of each explain; linear, tree and "
           "product-of-marginals requests separate row scoring from hybrid building.")

    def setup(self):
        sl, rng = self.sl, self.rng
        self.d, self.n = (5, 30) if self.tiny else (10, 200)
        self.n_tree = 8 if self.tiny else 48
        self.n_pom = 8 if self.tiny else 60
        d, n = self.d, self.n
        z = rng.standard_normal((n, d))
        rows = z.copy()
        for j in range(0, d - 1, 2):  # correlated column pairs
            rho = rng.uniform(0.5, 0.9)
            rows[:, j + 1] = rho * z[:, j] + np.sqrt(1 - rho * rho) * z[:, j + 1]
        self.rows = np.round(rows, 6)
        self.names = [f"x{j}" for j in range(d)]
        self.csv = self.work / "interventional.csv"
        _write_csv(self.csv, self.names, self.rows)
        self.intercept = float(rng.uniform(-1, 1))
        self.coef = rng.uniform(-2, 2, d)
        self.linear = "linear:" + ",".join(repr(float(v)) for v in [self.intercept, *self.coef])
        target = self.rows @ self.coef + np.sin(self.rows[:, 0]) * self.rows[:, 1]
        fit = rng.choice(n, size=min(n, 64), replace=False)
        ensemble = _fit_ensemble(sl, self.rows[fit], target[fit], 3 if self.tiny else 5)
        self.tree_file = self.work / "interventional.trees"
        sl.save_tree(ensemble, self.tree_file)
        self.trees = ref.parse_trees(self.tree_file.read_text())
        self.ensemble = ensemble

    def inputs(self):
        return (f"continuous CSV, d={self.d}, {self.n} rows, correlated column pairs; "
                "linear model; 3-tree boosted ensemble file (depth <= 5)")

    def requests(self):
        return {
            "linear-full": "CLI explain, linear model, full-pass marginal-joint",
            "tree-sampled": f"CLI explain, tree file, marginal-joint --n-samples {self.n_tree}",
            "pom": f"CLI explain, linear model, product-of-marginals --n-samples {self.n_pom}",
            "audit": "CLI audit, linear model, full-pass marginal-joint",
        }

    def f(self, x):
        return self.intercept + float(x @ self.coef)

    MIX = ("linear-full",) * 2 + ("tree-sampled",) * 3 + ("pom",) * 2 + ("audit",)
    MIN_ROUNDS = 5

    def request(self, kind, rng):
        i, s = int(rng.integers(self.n)), int(rng.integers(1 << 20))
        base = ["--dataset", str(self.csv), "--instance", str(i)]
        x = self.rows[i]
        if kind == "linear-full":
            return Request(kind, self.cli(["explain", *base, "--model", self.linear]),
                           lambda rc: self._check_linear_full(rc, x))
        if kind == "tree-sampled":
            argv = ["explain", *base, "--model", str(self.tree_file),
                    "--n-samples", str(self.n_tree), "--seed", str(s)]
            table = lambda: ref.tree_interventional_table(self.trees, self.rows, x, self.n_tree, s)
            fx = lambda: float(ref.ensemble_predict(self.trees, x)[0])
            return Request(kind, self.cli(argv),
                           lambda rc: self._check_table(rc, (kind, i, s), table, fx), "tree")
        if kind == "pom":
            argv = ["explain", *base, "--model", self.linear, "--value-fn",
                    "product-of-marginals", "--n-samples", str(self.n_pom), "--seed", str(s)]
            table = lambda: ref.linear_interventional_table(
                self.intercept, self.coef, self.rows, x, "product-of-marginals", self.n_pom, s)
            return Request(kind, self.cli(argv),
                           lambda rc: self._check_table(rc, (kind, i, s), table, lambda: self.f(x)))
        return Request(kind, self.cli(["audit", *base, "--model", self.linear]), self._check_audit)

    def _attribution(self, rc, problems):
        if rc != 0:
            problems.append(f"exit code {rc}")
            return None
        report = self.read("attribution.json")
        return report["base_value"], [v["phi"] for v in report["values"]]

    def _check_linear_full(self, rc, x):
        problems = []
        got = self._attribution(rc, problems)
        if got:
            base, phi = got
            _expect(problems, "phi vs coef*(x-mean)", phi, self.coef * (x - self.rows.mean(axis=0)))
            _expect(problems, "efficiency", base + sum(phi), self.f(x))
        return _verdict(problems)

    def _check_table(self, rc, key, table, fx):
        problems = []
        got = self._attribution(rc, problems)
        if got:
            base, phi = got
            expected_table = self.cached(key, table)
            _expect(problems, "phi vs reference", phi, ref.shapley_from_table(expected_table))
            _expect(problems, "base value", base, expected_table[0])
            _expect(problems, "efficiency", base + sum(phi), fx())
        return _verdict(problems)

    def _check_audit(self, rc):
        if rc != 0:
            return f"exit code {rc}"
        report = self.read("audit.json")
        problems = []
        if report["pass"] is not True or report["symmetry_violations"] or report["dummy_violations"]:
            problems.append("audit did not pass")
        _expect(problems, "efficiency gap", report["efficiency_gap"], 0.0)
        _expect(problems, "additivity gap", report["additivity_gap"], 0.0)
        return _verdict(problems)

    def probe_models(self):
        rng = np.random.default_rng([self.seed, 7])
        block = _probe_block(self.rows, rng, 2000)
        return {
            "linear": (self.sl.LinearModel(self.intercept, self.coef), block),
            "tree": (self.sl.CallableModel(self.d, self.ensemble.score), block),
        }


# --- table-solve ------------------------------------------------------------------

class TableSolve(Workload):
    name = "table-solve"
    why = ("Solver and memo work on seeded coalition tables with no dataset or model: "
           "batched scoring should not move it, an exact-engine change should.")

    def setup(self):
        rng = self.rng
        tiny = self.tiny
        self.n_subset, self.n_asym, self.n_sampled, self.n_sym, self.n_cli = (
            (10, 5, 17, 8, 4) if tiny else (18, 8, 20, 14, 7))
        self.sampled_perms = 20 if tiny else 400
        self.subset_table = rng.standard_normal(1 << self.n_subset)
        self.asym_table = rng.standard_normal(1 << self.n_asym)
        order = rng.permutation(self.n_asym)
        pairs = [(int(order[a]), int(order[b])) for a in range(self.n_asym) for b in range(a + 1, self.n_asym)]
        self.edges = [pairs[k] for k in rng.choice(len(pairs), size=3, replace=False)]
        self.sampled_table = rng.standard_normal(1 << self.n_sampled)
        self.sym_g = np.cumsum(np.abs(rng.standard_normal(self.n_sym + 1)))  # v(S) = g(|S|)
        self.sym_table = self.sym_g[ref.popcount(np.arange(1 << self.n_sym))]
        n = self.n_cli
        self.cli_rows = np.round(rng.standard_normal((16, n)), 6)
        self.csv = self.work / "background.csv"
        _write_csv(self.csv, [f"f{j}" for j in range(n)], self.cli_rows)
        coef = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        self.linear = "linear:" + ",".join(repr(float(v)) for v in [0.25, *coef])
        order = rng.permutation(n)
        self.cli_edges = ",".join(f"{order[k]}->{order[k + 1]}" for k in range(3))

    def inputs(self):
        return (f"random coalition tables at d={self.n_subset}, {self.n_asym} (3 precedence edges) "
                f"and {self.n_sampled}; a symmetric table at d={self.n_sym}; "
                f"a {self.cli_rows.shape[0]}-row background CSV at d={self.n_cli}")

    def requests(self):
        return {
            "subset": f"CoalitionGame.from_table + exact_shapley_subsets, d={self.n_subset}",
            "cli-audit": f"CLI audit --solver asymmetric, 3 edges, linear model, d={self.n_cli}",
            "asymmetric": f"asymmetric_shapley, exact_shapley_permutations, exact_shapley_subsets, d={self.n_asym}",
            "sampled": f"sampled_shapley, d={self.n_sampled}, {self.sampled_perms} permutations",
            "audit": f"exact_shapley_subsets + audit_axioms on a symmetric game, d={self.n_sym}",
        }

    MIX = ("subset", "cli-audit", "asymmetric", "sampled", "audit")
    MIN_ROUNDS = 7

    def request(self, kind, rng):
        return getattr(self, "_" + kind.replace("-", "_"))(rng)

    def _subset(self, rng):
        sl = self.sl

        def call():
            return sl.exact_shapley_subsets(sl.CoalitionGame.from_table(self.subset_table))

        def check(attr):
            problems = []
            expected = self.cached("subset", lambda: ref.shapley_from_table(self.subset_table))
            _expect(problems, "phi vs reference", attr.values, expected)
            _expect(problems, "efficiency", attr.total, self.subset_table[-1])
            return _verdict(problems)

        return Request("subset", call, check)

    def _asymmetric(self, rng):
        sl = self.sl

        def call():
            game = sl.CoalitionGame.from_table(self.asym_table)
            order = sl.PrecedenceOrder(self.n_asym, self.edges)
            return (sl.asymmetric_shapley(game, order), sl.exact_shapley_permutations(game),
                    sl.exact_shapley_subsets(game))

        def check(out):
            asym, perm, subset = out
            problems = []
            phi, count = self.cached("asym", lambda: ref.asymmetric_from_table(self.asym_table, self.edges))
            _expect(problems, "asymmetric vs order-ideal reference", asym.values, phi)
            if asym.diagnostics["admissible_permutations"] != count:
                problems.append("admissible permutation count")
            _expect(problems, "permutation vs subset", perm.values, subset.values, AGREE)
            for label, attr in (("asymmetric", asym), ("permutation", perm), ("subset", subset)):
                _expect(problems, f"{label} efficiency", attr.total, self.asym_table[-1])
            return _verdict(problems)

        return Request("asymmetric", call, check)

    def _sampled(self, rng):
        sl = self.sl
        s = int(rng.integers(1 << 20))

        def call():
            return sl.sampled_shapley(sl.CoalitionGame.from_table(self.sampled_table), self.sampled_perms, s)

        def check(attr):
            problems = []
            phi, se = ref.sampled_from_table(self.sampled_table, self.sampled_perms, s)
            _expect(problems, "phi vs reference", attr.values, phi)
            _expect(problems, "standard errors", attr.diagnostics["std_errors"], se)
            return _verdict(problems)

        return Request("sampled", call, check)

    def _audit(self, rng):
        sl = self.sl

        def call():
            game = sl.CoalitionGame.from_table(self.sym_table)
            attr = sl.exact_shapley_subsets(game)
            return attr, sl.audit_axioms(game, attr)

        def check(out):
            attr, report = out
            problems = []
            share = (self.sym_g[-1] - self.sym_g[0]) / self.n_sym
            _expect(problems, "symmetric split", attr.values, [share] * self.n_sym)
            _expect(problems, "efficiency gap", report.efficiency_gap, 0.0)
            _expect(problems, "max symmetry gap", report.max_symmetry_gap, 0.0)
            if not report.passes() or report.symmetry_violations or report.dummy_violations:
                problems.append("audit did not pass")
            return _verdict(problems)

        return Request("audit", call, check)

    def _cli_audit(self, rng):
        i = int(rng.integers(self.cli_rows.shape[0]))
        argv = ["audit", "--dataset", str(self.csv), "--model", self.linear, "--instance", str(i),
                "--solver", "asymmetric", "--edges", self.cli_edges]

        def check(rc):
            if rc != 0:
                return f"exit code {rc}"
            report = self.read("audit.json")
            problems = []
            if report["pass"] is not True or report["method"] != "asymmetric":
                problems.append("audit did not pass")
            _expect(problems, "efficiency gap", report["efficiency_gap"], 0.0)
            _expect(problems, "additivity gap", report["additivity_gap"], 0.0)
            return _verdict(problems)

        return Request("cli-audit", self.cli(argv), check)


# --- conditional-tree -----------------------------------------------------------------

class ConditionalTree(Workload):
    name = "conditional-tree"
    why = ("Exact-match conditioning over a shrinking row set, tree-walk scoring "
           "and a visible CSV load; the other use of value_functions.")

    def setup(self):
        sl, rng = self.sl, self.rng
        self.d = 4 if self.tiny else 8
        d = self.d
        levels = [np.sort(rng.choice(np.arange(-3, 4), size=3, replace=False)) for _ in range(d)]
        self.rows = np.array([list(combo) for combo in product(*levels)], dtype=float)
        self.names = [f"c{j}" for j in range(d)]
        self.csv = self.work / "design.csv"
        _write_csv(self.csv, self.names, self.rows)
        a = rng.uniform(-1, 1, d)
        target = (self.rows @ a + rng.uniform(0.5, 1.5) * self.rows[:, 0] * self.rows[:, 1]
                  + (self.rows[:, 2] > 0) * self.rows[:, 3] + 0.1 * rng.standard_normal(len(self.rows)))
        ensemble = _fit_ensemble(sl, self.rows, target, 3 if self.tiny else 6)
        self.tree_file = self.work / "design.trees"
        sl.save_tree(ensemble, self.tree_file)
        self.trees = ref.parse_trees(self.tree_file.read_text())
        self.ensemble = sl.load_tree(self.tree_file)

    def inputs(self):
        return (f"3-level full factorial design CSV, d={self.d}, {len(self.rows)} rows; "
                "3-tree boosted ensemble (depth <= 6) fitted and saved in setup")

    def requests(self):
        return {
            "cli-conditional": "CLI explain --value-fn conditional with the tree file",
            "tree-expectation": ("tree_conditional_expectation over every coalition, then "
                                 f"exact_shapley_subsets, for each of {self.INSTANCES} instances"),
        }

    MIX = ("cli-conditional",) * 2 + ("tree-expectation",) * 3
    MIN_ROUNDS = 7
    INSTANCES = 5  # per tree-expectation request

    def request(self, kind, rng):
        i = int(rng.integers(len(self.rows)))
        x = self.rows[i]
        fx = float(ref.ensemble_predict(self.trees, x)[0])
        if kind == "cli-conditional":
            argv = ["explain", "--dataset", str(self.csv), "--model", str(self.tree_file),
                    "--instance", str(i), "--value-fn", "conditional"]

            def check(rc):
                if rc != 0:
                    return f"exit code {rc}"
                report = self.read("attribution.json")
                table = self.cached((kind, i), lambda: ref.conditional_table(self.trees, self.rows, x)[0])
                phi = [v["phi"] for v in report["values"]]
                problems = []
                _expect(problems, "phi vs reference", phi, ref.shapley_from_table(table))
                _expect(problems, "efficiency", report["base_value"] + sum(phi), fx)
                return _verdict(problems)

            return Request(kind, self.cli(argv), check, "tree")

        sl, d = self.sl, self.d
        # several instances per request: a single one takes about 20 ms, short
        # enough that its CPU time swings with the machine's cache state
        points = [x] + [self.rows[int(j)] for j in rng.integers(len(self.rows), size=self.INSTANCES - 1)]

        def call():
            out = []
            for point in points:
                values = [sl.tree_conditional_expectation(self.ensemble, point, sl.Coalition(m, d))
                          for m in range(1 << d)]
                out.append((values, sl.exact_shapley_subsets(sl.CoalitionGame.from_table(values))))
            return out

        def check(out):
            problems = []
            for point, (values, attr) in zip(points, out):
                table = self.cached((kind, point.tobytes()), lambda: ref.tree_conditional_table(self.trees, point, d))
                fx = float(ref.ensemble_predict(self.trees, point)[0])
                _expect(problems, "expectations vs reference", values, table)
                _expect(problems, "phi vs reference", attr.values, ref.shapley_from_table(table))
                _expect(problems, "efficiency", attr.total, fx)
            return _verdict(problems)

        return Request(kind, call, check)

    def probe_models(self):
        # conditional games score matched design rows, not mixtures of two rows
        rng = np.random.default_rng([self.seed, 7])
        model = self.sl.CallableModel(self.d, self.ensemble.score)
        block = self.rows[rng.integers(0, len(self.rows), size=2000)]
        return {**super().probe_models(), "tree": (model, block)}


# --- scenario-suite ----------------------------------------------------------------------

class ScenarioSuite(Workload):
    name = "scenario-suite"
    why = ("Dozens of tiny games where fixed per-call cost dominates; the only user "
           "of the scenarios layer and of the CSV artifact writes.")

    def setup(self):
        self.stored = json.loads(STORED_SCENARIOS.read_text())

    def inputs(self):
        return "the eight built-in scenarios at their default sizes"

    def requests(self):
        return {"scenario-all": "CLI scenario all --seed <seed>, reports and CSV artifacts written"}

    MIX = ("scenario-all",)
    MIN_ROUNDS = 14

    def request(self, kind, rng):
        argv = ["scenario", "all", "--seed", str(self.seed)]
        return Request(kind, self.cli(argv), self._check)

    def _check(self, rc):
        if rc != 0:
            return f"exit code {rc}"
        problems = []
        for name in SCENARIOS:
            report = self.read(f"{name}.json")
            for claim in report["claims"]:
                label = f"{name}: {claim['description']}"
                if claim["pass"] is not True:
                    problems.append(f"{label}: claim failed")
                elif claim["tolerance"] is not None:
                    _expect(problems, label, claim["observed"], claim["expected"], claim["tolerance"])
            if name in self.stored:
                observed = [c["observed"] for c in report["claims"]]
                if len(observed) != len(self.stored[name]):
                    problems.append(f"{name}: {len(observed)} claims, stored {len(self.stored[name])}")
                else:
                    for got, want in zip(observed, self.stored[name]):
                        if isinstance(want, bool) or isinstance(got, bool):
                            if got != want:
                                problems.append(f"{name}: stored value {want} != {got}")
                        else:
                            _expect(problems, f"{name}: stored value", got, want)
            for artifact in report["artifacts"]:
                if not (self.out / artifact).is_file():
                    problems.append(f"{name}: artifact {artifact} missing")
        return _verdict(problems)


WORKLOADS = {w.name: w for w in (InterventionalExplain, TableSolve, ConditionalTree, ScenarioSuite)}
