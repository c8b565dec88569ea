"""Command-line interface: explain a CSV-backed model, run scenarios, audit axioms.

Exit codes are a stable contract:
  0 success
  2 malformed configuration (bad flags, unknown scenario, missing or
    negative seed, --n-samples below 1 or, for scenarios, below 2, a
    --tolerance that is not finite or is negative, a linear --model with a
    non-finite coefficient, an --out that names an existing file, a config
    file that cannot be read or is not UTF-8, the sampled solver without
    --seed, the asymmetric solver without --edges or with cyclic or unknown
    edges); every command checks all of it before building a game, so a
    configuration fault wins over a computation fault
  3 dataset or model load failure (including a CSV, schema or tree file that
    is not UTF-8), naming the file
  4 computation failure (empty conditioning set, continuous features,
    enumeration caps, non-finite model output); the offending coalition is
    named on standard error
  5 a scenario claim or an axiom audit failed

Configuration is a flat key=value text file (same keys as the long flags,
underscores allowed) with command-line flags taking precedence; the resolved
values are echoed into every report under a "config" key so a run can be
reproduced from its own output. The output directory is not echoed, keeping
report bytes location-independent. All randomness flows from --seed; any
stochastic path without an explicit seed is rejected rather than silently
seeded from the clock.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from .data import DatasetError, TabularDataset
from .games import Attribution, CoalitionGame, CyclicPrecedenceError, EnumerationCapError, PrecedenceOrder
from .models import LinearModel, MultiplicativeModel, PredictiveModel, QuadraticRecourseModel
from .reporting import dump_json, atomic_write_text
from .scenarios import SCENARIO_NAMES, run_scenario, write_report
from .solvers import (
    AllDummyInconsistencyError,
    asymmetric_shapley,
    audit_axioms,
    equal_split_attribution,
    exact_shapley_subsets,
    sampled_shapley,
)
from .trees import TreeFormatError, ZeroCoverageError, load_tree
from .value_functions import (
    CONDITIONAL,
    ContinuousFeatureError,
    EmptyConditioningSetError,
    MARGINAL_JOINT,
    NonFiniteScoreError,
    PRODUCT_OF_MARGINALS,
    SINGLE_REFERENCE,
    ValueFunctionSpec,
    build_conditional_game,
    build_interventional_game,
)

_VALUE_FN_TOKENS = {
    "conditional": CONDITIONAL,
    "marginal-joint": MARGINAL_JOINT,
    "product-of-marginals": PRODUCT_OF_MARGINALS,
    "single-reference": SINGLE_REFERENCE,
}
_SOLVERS = ("exact", "sampled", "asymmetric", "equal-split")
_DEFAULT_SAMPLES = 1000  # product-of-marginals draws and sampled-solver permutations
_CONFIG_KEYS = (
    "dataset",
    "model",
    "instance",
    "value_fn",
    "solver",
    "edges",
    "n_samples",
    "seed",
    "tolerance",
    "out",
)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(2, f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(2, f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise CliError(2, f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value
    return values


def _resolve(args, key, cast=str):
    """Flag value if given, else config-file value, else None. Flags win."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    raw = args._file_config.get(key)
    if raw is None:
        return None
    try:
        return cast(raw)
    except ValueError as exc:
        raise CliError(2, f"config key {key}: {exc}") from None


def _resolve_checked(args, key, cast, valid, rule):
    """``_resolve`` plus a range check; out-of-range values are config errors."""
    value = _resolve(args, key, cast)
    if value is not None and not valid(value):
        raise CliError(2, f"--{key.replace('_', '-')} must be {rule}, got {value}")
    return value


def _resolve_out(args) -> Path:
    """The output directory, which may not exist yet; a file in its place, or
    in place of the nearest existing ancestor, is a configuration fault."""
    out = Path(_resolve(args, "out") or ".")
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise CliError(2, f"--out {str(out)!r}: {path} exists and is not a directory")
            break
    return out


def _load_dataset(path) -> TabularDataset:
    if path is None:
        raise CliError(2, "a dataset is required (--dataset or config)")
    try:
        return TabularDataset.from_csv(path)
    except (OSError, DatasetError) as exc:
        raise CliError(3, f"cannot load dataset: {exc}") from None


def _resolve_model(token, arity: int):
    if token is None:
        raise CliError(2, "a model is required (--model or config)")
    if token.startswith("linear:"):
        try:
            params = [float(v) for v in token[len("linear:"):].split(",")]
        except ValueError:
            raise CliError(2, f"malformed linear model spec {token!r}") from None
        if len(params) != arity + 1:
            raise CliError(2, f"linear model needs intercept plus {arity} coefficients")
        if not all(math.isfinite(v) for v in params):
            raise CliError(2, f"--model {token!r} has a non-finite coefficient")
        return LinearModel(params[0], params[1:])
    if token == "multiplicative":
        return MultiplicativeModel(arity)
    if token == "recourse":
        if arity != 1:
            raise CliError(2, "the recourse model is univariate")
        return QuadraticRecourseModel()
    path = Path(token)
    if not path.exists():
        raise CliError(3, f"model {token!r} is neither a builtin (linear:..., multiplicative, recourse) nor a readable file")
    try:
        model = load_tree(path)
    except (OSError, TreeFormatError) as exc:
        raise CliError(3, f"cannot load tree model {token}: {exc}") from None
    if model.arity > arity:
        raise CliError(3, f"tree model uses feature {model.arity - 1}, dataset has {arity} features")
    # trees may ignore trailing features; present the dataset arity
    model.arity = arity
    return model


def _parse_values(token: str, arity: int, what: str) -> list[float]:
    try:
        values = [float(v) for v in token.split(",")]
    except ValueError:
        raise CliError(2, f"malformed {what} {token!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise CliError(2, f"{what} {token!r} has a non-finite value")
    if len(values) != arity:
        raise CliError(2, f"{what} needs {arity} comma-separated values, got {len(values)}")
    return values


def _resolve_instance(token, data: TabularDataset) -> np.ndarray:
    if token is None:
        raise CliError(2, "an instance is required (--instance or config)")
    if "," not in token:
        try:
            index = int(token)
        except ValueError:
            raise CliError(2, f"instance must be a row index or comma-separated values, got {token!r}") from None
        if not 0 <= index < data.n_rows:
            raise CliError(3, f"instance row {index} out of range (dataset has {data.n_rows} rows)")
        return data.row(index)
    return np.asarray(_parse_values(token, data.n_features, "instance"), dtype=float)


def _resolve_value_fn(token, data: TabularDataset, n_samples, seed) -> ValueFunctionSpec:
    if token is None:
        token = "marginal-joint"
    kind_token, _, ref_token = token.partition(":")
    if kind_token not in _VALUE_FN_TOKENS:
        raise CliError(2, f"unknown value function {kind_token!r} (choose from {', '.join(_VALUE_FN_TOKENS)})")
    kind = _VALUE_FN_TOKENS[kind_token]
    if kind == CONDITIONAL:
        return ValueFunctionSpec(kind=kind)
    if kind == SINGLE_REFERENCE:
        if not ref_token:
            raise CliError(2, "single-reference needs a reference: --value-fn single-reference:IDX or :v1,v2,...")
        if "," in ref_token:
            reference = _parse_values(ref_token, data.n_features, "reference")
        else:
            try:
                index = int(ref_token)
            except ValueError:
                raise CliError(2, f"malformed reference {ref_token!r}") from None
            if not 0 <= index < data.n_rows:
                raise CliError(3, f"reference row {index} out of range")
            reference = [float(v) for v in data.row(index)]
        return ValueFunctionSpec(kind=kind, reference=tuple(reference))
    if ref_token:
        raise CliError(2, f"{kind_token} takes no reference suffix")
    if kind == MARGINAL_JOINT:
        n = data.n_rows if n_samples is None else n_samples
        if n < data.n_rows and seed is None:
            raise CliError(2, "sub-full marginal-joint sampling requires --seed")
        return ValueFunctionSpec(kind=kind, n_samples=n, seed=seed or 0)
    # product of marginals is always stochastic
    if seed is None:
        raise CliError(2, "product-of-marginals sampling requires --seed")
    n = _DEFAULT_SAMPLES if n_samples is None else n_samples
    return ValueFunctionSpec(kind=kind, n_samples=n, seed=seed)


def _parse_edges(token: str, data: TabularDataset) -> list[tuple[int, int]]:
    edges = []
    for part in token.split(","):
        part = part.strip()
        if not part:
            continue
        if "->" not in part:
            raise CliError(2, f"edge {part!r} must look like ancestor->descendant")
        a_tok, d_tok = (s.strip() for s in part.split("->", 1))
        edges.append((_player_index(a_tok, data), _player_index(d_tok, data)))
    if not edges:
        raise CliError(2, "no edges parsed from --edges")
    return edges


def _player_index(token: str, data: TabularDataset) -> int:
    if token in data.feature_names:
        return data.feature_names.index(token)
    try:
        index = int(token)
    except ValueError:
        raise CliError(2, f"unknown feature {token!r} in --edges") from None
    if not 0 <= index < data.n_features:
        raise CliError(2, f"edge index {index} out of range")
    return index


def _bind_solver(solver, data, edges_token, n_samples, seed, tolerance):
    """The configured solver as one ``game -> Attribution`` callable.

    Solver functions are looked up when the run is resolved, so a rebound
    module attribute (such as a profiling wrapper) sees every call.
    """
    if solver == "sampled":
        if seed is None:
            raise CliError(2, "the sampled solver requires --seed")
        return partial(sampled_shapley, n_samples=_DEFAULT_SAMPLES if n_samples is None else n_samples, seed=seed)
    if solver == "asymmetric":
        if edges_token is None:
            raise CliError(2, "the asymmetric solver requires --edges")
        try:
            order = PrecedenceOrder(data.n_features, _parse_edges(edges_token, data))
        except CyclicPrecedenceError as exc:
            raise CliError(2, str(exc)) from None
        return partial(asymmetric_shapley, order=order)
    if solver == "equal-split":
        return partial(equal_split_attribution, dummy_tolerance=1e-9 if tolerance is None else tolerance)
    return exact_shapley_subsets


@dataclass(frozen=True)
class RunConfig:
    """An explain/audit run resolved from flags and config file, checked
    before any game is built."""

    data: TabularDataset
    model: PredictiveModel
    instance: np.ndarray
    spec: ValueFunctionSpec
    solver: str
    solve: Callable[[CoalitionGame], Attribution]
    tolerance: float  # the audit's; the equal-split dummy tolerance is bound into solve
    out: Path
    probe_seed: int
    echo: dict

    @classmethod
    def resolve(cls, args) -> RunConfig:
        dataset_token = _resolve(args, "dataset")
        data = _load_dataset(dataset_token)
        n_samples = _resolve_checked(args, "n_samples", int, lambda v: v >= 1, "at least 1")
        seed = _resolve_checked(args, "seed", int, lambda v: v >= 0, "non-negative")
        tolerance = _resolve_checked(args, "tolerance", float, lambda v: 0 <= v < math.inf, "finite and non-negative")
        out = _resolve_out(args)
        solver = _resolve(args, "solver") or "exact"
        if solver not in _SOLVERS:
            raise CliError(2, f"unknown solver {solver!r} (choose from {', '.join(_SOLVERS)})")
        edges_token = _resolve(args, "edges")
        if edges_token is not None and solver != "asymmetric":
            raise CliError(2, "--edges is only meaningful with the asymmetric solver")
        model_token = _resolve(args, "model")
        instance_token = _resolve(args, "instance")
        value_fn_token = _resolve(args, "value_fn")
        model = _resolve_model(model_token, data.n_features)
        instance = _resolve_instance(instance_token, data)
        spec = _resolve_value_fn(value_fn_token, data, n_samples, seed)
        solve = _bind_solver(solver, data, edges_token, n_samples, seed, tolerance)
        echo = dict(
            command=args.command, dataset=dataset_token, model=model_token, instance=instance_token,
            value_fn=value_fn_token or "marginal-joint", solver=solver, edges=edges_token,
            n_samples=n_samples, seed=seed, tolerance=tolerance,
        )
        return cls(
            data=data,
            model=model,
            instance=instance,
            spec=spec,
            solver=solver,
            solve=solve,
            tolerance=1e-6 if tolerance is None else tolerance,  # empirical-game default
            out=out,
            probe_seed=0 if seed is None else seed,
            echo={key: value for key, value in echo.items() if value is not None},
        )

    def build_game(self) -> CoalitionGame:
        if self.spec.kind == CONDITIONAL:
            return build_conditional_game(self.model, self.data, self.instance)
        return build_interventional_game(self.model, self.data, self.instance, self.spec)


def cmd_explain(args) -> int:
    cfg = RunConfig.resolve(args)
    attribution = cfg.solve(cfg.build_game())
    fx = float(cfg.model.score(cfg.instance))
    payload = {
        "base_value": attribution.base_value,
        "values": [
            {"feature": name, "phi": value}
            for name, value in zip(cfg.data.feature_names, attribution.values)
        ],
        "contrast": {"fx": fx, "base": attribution.base_value},
        "method": attribution.method,
        "diagnostics": attribution.diagnostics,
        "config": cfg.echo,
    }
    atomic_write_text(cfg.out / "attribution.json", dump_json(payload))
    print(f"wrote {cfg.out / 'attribution.json'}")
    return 0


def _additivity_probe(solve, n, probe_seed, tol) -> float:
    """Worst additivity gap of ``solve`` over a brute-force search of seeded
    random n-player game pairs.

    The CLI grammar admits a single game, so additivity is probed on synthetic
    table games instead. Pairs use 0/1 payoffs and plant an ignored player in
    one side: non-additive attributions (the equal split) redistribute when the
    dummy pattern of the sum differs from the parts, which smooth random tables
    never expose.
    """
    rng = np.random.default_rng(probe_seed)
    worst = 0.0
    for k in range(40):
        tv = rng.integers(0, 2, size=1 << n).astype(float)
        dummy_bit = 1 << (k % n)
        for mask in range(1 << n):
            if mask & dummy_bit:
                tv[mask] = tv[mask & ~dummy_bit]
        tw = rng.integers(0, 2, size=1 << n).astype(float)
        try:
            probe_v = CoalitionGame.from_table(tv)
            probe_w = CoalitionGame.from_table(tw)
            report = audit_axioms(
                probe_v, solve(probe_v), other=(probe_w, solve(probe_w)), tolerance=tol, solve=solve
            )
        except AllDummyInconsistencyError:
            continue
        worst = max(worst, report.additivity_gap)
    return worst


def cmd_audit(args) -> int:
    cfg = RunConfig.resolve(args)
    game = cfg.build_game()
    attribution = cfg.solve(game)
    # precedence edges name the game's players, so the asymmetric probe keeps them all
    n = game.n_players if cfg.solver == "asymmetric" else min(game.n_players, 3)
    additivity_gap = _additivity_probe(cfg.solve, n, cfg.probe_seed, cfg.tolerance)

    report = audit_axioms(game, attribution, tolerance=cfg.tolerance)
    efficiency_exempt = attribution.method == "sampled"
    passed = report.passes(efficiency_exempt=efficiency_exempt) and additivity_gap <= cfg.tolerance
    payload = report.to_dict()
    payload.update(
        {
            "method": attribution.method,
            "additivity_gap": additivity_gap,
            "additivity_probe_seed": cfg.probe_seed,
            "efficiency_flagged": efficiency_exempt and report.efficiency_gap > cfg.tolerance,
            "pass": passed,
            "config": cfg.echo,
        }
    )
    atomic_write_text(cfg.out / "audit.json", dump_json(payload))
    print(f"wrote {cfg.out / 'audit.json'}")
    return 0 if passed else 5


def cmd_scenario(args) -> int:
    name = args.name
    if name != "all" and name not in SCENARIO_NAMES:
        raise CliError(2, f"unknown scenario {name!r} (choose from {', '.join(SCENARIO_NAMES)} or all)")
    seed = _resolve_checked(args, "seed", int, lambda v: v >= 0, "non-negative")
    # scenarios report sample variances, which need two draws
    n_samples = _resolve_checked(args, "n_samples", int, lambda v: v >= 2, "at least 2 for scenarios")
    out = _resolve_out(args)
    names = SCENARIO_NAMES if name == "all" else (name,)
    all_passed = True
    for scenario_name in names:
        echo = {"command": "scenario", "scenario": scenario_name}
        echo.update((key, value) for key, value in (("seed", seed), ("n_samples", n_samples)) if value is not None)
        report = run_scenario(scenario_name, seed=seed, n_samples=n_samples)
        write_report(report, out, extra={"config": echo})
        status = "pass" if report.passed else "FAIL"
        print(f"{scenario_name}: {status} ({len(report.claims)} claims)")
        for claim in report.failed_claims():
            print(
                f"  failed: {claim.description}: expected {claim.expected}, "
                f"observed {claim.observed}, tolerance {claim.tolerance}",
                file=sys.stderr,
            )
        all_passed = all_passed and report.passed
    return 0 if all_passed else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shaplab",
        description="Coalition-game feature attribution: explain models, reproduce pathology scenarios, audit axioms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--dataset", help="CSV dataset (header row of feature names)")
        p.add_argument("--model", help="linear:b0,b1,... | multiplicative | recourse | tree file path")
        p.add_argument("--instance", help="dataset row index or v1,v2,...")
        p.add_argument("--value-fn", dest="value_fn", help="conditional | marginal-joint | product-of-marginals | single-reference:REF")
        p.add_argument("--solver", help="exact | sampled | asymmetric | equal-split")
        p.add_argument("--edges", help="precedence edges a->b,c->d (names or indices; asymmetric solver only)")
        p.add_argument("--n-samples", dest="n_samples", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--tolerance", type=float)
        p.add_argument("--out", help="output directory (default: current directory)")

    add_common(sub.add_parser("explain", help="write an attribution report for one instance"))
    add_common(sub.add_parser("audit", help="write an axiom-audit report"))

    ps = sub.add_parser("scenario", help="run a named scenario (or all) and write its reports")
    ps.add_argument("name")
    ps.add_argument("--config", help="flat key=value config file; flags override it")
    ps.add_argument("--seed", type=int)
    ps.add_argument("--n-samples", dest="n_samples", type=int)
    ps.add_argument("--out", help="output directory (default: current directory)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._file_config = _load_config_file(args.config) if getattr(args, "config", None) else {}
        if args.command == "explain":
            return cmd_explain(args)
        if args.command == "audit":
            return cmd_audit(args)
        return cmd_scenario(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (EmptyConditioningSetError, ContinuousFeatureError, EnumerationCapError,
            AllDummyInconsistencyError, ZeroCoverageError, NonFiniteScoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())
