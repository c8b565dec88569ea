"""Spans around calls into shaplab's layers, recorded from outside the package.

``Tracer.install`` replaces public functions of the ``shaplab`` modules (and a
few methods) with wrappers that record a span: name, start, end, parent span
and request id, on the process CPU clock like the request times. Spans stay
in memory until the run writes them out. No source file of the package
changes; ``uninstall`` puts the originals back.

Counts are recorded at the same boundaries, but anything that costs real work
(matching rows, scanning tables) is derived after the request's clock stops,
from references the wrappers kept. The model is never wrapped: per-row
scoring is measured by a separate probe, so a future batched scoring path is
timed as it runs.
"""

from __future__ import annotations

import functools
import math
import sys
import time

import numpy as np

from reference import audit_masks_checked

# (span name, module, attribute) for plain functions; every shaplab module that
# imported the function gets the wrapper.
_FUNCTIONS = (
    ("cli.main", "shaplab.cli", "main"),
    ("trees.load", "shaplab.trees", "load_tree"),
    ("trees.cond_expectation", "shaplab.trees", "tree_conditional_expectation"),
    ("value_functions.build", "shaplab.value_functions", "build_interventional_game"),
    ("value_functions.build", "shaplab.value_functions", "build_conditional_game"),
    ("solvers.subset", "shaplab.solvers", "exact_shapley_subsets"),
    ("solvers.permutation", "shaplab.solvers", "exact_shapley_permutations"),
    ("solvers.asymmetric", "shaplab.solvers", "asymmetric_shapley"),
    ("solvers.sampled", "shaplab.solvers", "sampled_shapley"),
    ("solvers.audit", "shaplab.solvers", "audit_axioms"),
    ("solvers.equal_split", "shaplab.solvers", "equal_split_attribution"),
    ("reporting.write", "shaplab.reporting", "atomic_write_text"),
    ("scenarios.run", "shaplab.scenarios", "run_scenario"),
)

LAYERS = ("cli", "data", "trees", "value_functions", "games", "solvers", "reporting", "scenarios")


class Tracer:
    def __init__(self, shaplab):
        self.sl = shaplab
        self.spans: list[list] = []  # [name, start, end, parent, request_id, info]
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.request_id = -1
        self._games: list = []
        self._value_games: dict[int, dict] = {}

    # --- spans ----------------------------------------------------------------

    def _open(self, name, info=None) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.process_time(), None, parent, self.request_id, info])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.process_time()
        self._stack.pop()

    def _active(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._active(name):  # recursion inside one layer call is one span
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                self.spans[index][5] = after(self.spans[index], args, kwargs, result)
            return result

        return wrapper

    # --- install / uninstall ----------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "shaplab" or mod_name.startswith("shaplab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def _replace_attr(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        sl = self.sl
        after = {
            "value_functions.build": self._after_build,
            "solvers.permutation": self._after_permutation,
            "solvers.asymmetric": self._after_asymmetric,
            "solvers.audit": self._after_audit,
            "reporting.write": lambda span, args, kw, res: {"bytes": len(args[1].encode())},
        }
        for name, mod_name, attr in _FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            if name == "scenarios.run":
                wrapper = self._scenario_wrapper(original)
            else:
                wrapper = self._wrap(name, original, after.get(name))
            self._replace_everywhere(original, wrapper)

        from_csv = sl.TabularDataset.__dict__["from_csv"].__func__
        self._replace_attr(
            sl.TabularDataset,
            "from_csv",
            classmethod(self._wrap("data.load", from_csv, lambda s, a, k, res: {"rows": res.n_rows})),
        )

        game_cls = sl.CoalitionGame
        from_table = game_cls.__dict__["from_table"].__func__
        self._replace_attr(game_cls, "from_table", classmethod(self._wrap("games.from_table", from_table)))
        game_init = game_cls.__dict__["__init__"]
        game_table = game_cls.__dict__["table"]
        games = self._games
        value_games = self._value_games
        vf_table = self._wrap(
            "value_functions.table",
            game_table,
            lambda span, args, kw, res: value_games[id(args[0])]["tables"].append(span),
        )
        plain_table = self._wrap("games.table", game_table)

        def init(game, *args, **kwargs):
            games.append(game)
            game_init(game, *args, **kwargs)

        def table(game):
            return (vf_table if id(game) in value_games else plain_table)(game)

        self._replace_attr(game_cls, "__init__", functools.wraps(game_init)(init))
        self._replace_attr(game_cls, "table", functools.wraps(game_table)(table))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _scenario_wrapper(self, original):
        wrapped = {}

        @functools.wraps(original)
        def wrapper(name, *args, **kwargs):
            if name not in wrapped:
                wrapped[name] = self._wrap(
                    f"scenarios.{name}", original, lambda s, a, k, res: {"claims": len(res.claims)}
                )
            return wrapped[name](name, *args, **kwargs)

        return wrapper

    # --- cheap hooks: keep references, derive later -------------------------------

    def _after_build(self, span, args, kwargs, game):
        model, data, x = args[0], args[1], args[2]
        spec = args[3] if len(args) > 3 else None
        self._value_games[id(game)] = {
            "game": game, "model": model, "data": data, "x": x, "spec": spec,
            "build": span, "tables": [],
        }
        return None

    def _after_permutation(self, span, args, kwargs, result):
        return {"enumerated": math.factorial(args[0].n_players)}

    def _after_asymmetric(self, span, args, kwargs, result):
        return {
            "enumerated": math.factorial(args[0].n_players),
            "admissible": result.diagnostics["admissible_permutations"],
        }

    def _after_audit(self, span, args, kwargs, result):
        # 1e-12 is audit_axioms's own default profile tolerance
        profile_tolerance = kwargs.get("profile_tolerance", args[4] if len(args) > 4 else 1e-12)
        return {"table": args[0].table(), "profile_tolerance": profile_tolerance}

    # --- requests -----------------------------------------------------------------

    def begin_request(self, request_id: int, kind: str) -> int:
        self.request_id = request_id
        return self._open(f"request.{kind}")

    def end_request(self, index: int, model_hint) -> dict:
        """Close the request span, then derive its counts off the clock.

        ``model_hint`` names the scoring cost ("linear" or "tree") of value
        games whose model is not a ``LinearModel``; None leaves them out of
        the per-family split.
        """
        self._close(index)
        out = {
            "oracle_calls": sum(g.oracle_calls for g in self._games),
            "rows_scored": 0,
            "table_s": 0.0,
            "family_rows": {},
            "family_s": {},
        }
        for record in self._value_games.values():
            rows = _rows_scored(self.sl, record)
            busy = sum(span[2] - span[1] for span in [record["build"], *record["tables"]])
            out["rows_scored"] += rows
            out["table_s"] += busy
            family = "linear" if isinstance(record["model"], self.sl.LinearModel) else model_hint
            if family is not None:
                out["family_rows"][family] = out["family_rows"].get(family, 0) + rows
                out["family_s"][family] = out["family_s"].get(family, 0.0) + busy
        for span in self.spans[index:]:
            info = span[5]
            if isinstance(info, dict) and "table" in info:
                span[5] = {"masks_checked": audit_masks_checked(info["table"], info["profile_tolerance"])}
        self._games.clear()
        self._value_games.clear()
        self.request_id = -1
        return out


def _rows_scored(sl, record) -> int:
    """Model rows a value-function game scored, from its oracle-call count.

    Interventional games score one row for the grand coalition and a fixed
    number of hybrids for every other coalition; conditional games score the
    rows matching the instance on each coalition. Evaluations of a partial
    table count at the per-coalition mean.
    """
    game = record["game"]
    data = record["data"]
    spec = record["spec"]
    d = game.n_players
    calls = game.oracle_calls
    if spec is None:  # conditional
        rows = data.rows
        x = np.asarray(record["x"], dtype=float)
        equal = rows == x[None, :]
        total = 1
        for mask in range((1 << d) - 1):
            cols = [j for j in range(d) if mask >> j & 1]
            total += int(equal[:, cols].all(axis=1).sum()) if cols else rows.shape[0]
        return total if calls == 1 << d else round(total * calls / (1 << d))
    if spec.kind == sl.SINGLE_REFERENCE:
        return calls
    per = min(spec.n_samples, data.n_rows) if spec.kind == sl.MARGINAL_JOINT else spec.n_samples
    if calls == 1 << d:
        return (calls - 1) * per + 1
    return calls * per


# --- summaries ------------------------------------------------------------------------

SOLVERS = ("subset", "permutation", "asymmetric", "sampled", "audit", "equal_split")


def score_probe(model, block, repeats: int = 5) -> float:
    """Microseconds per row to score a fixed block one row at a time."""
    times = []
    for _ in range(repeats):
        start = time.process_time()
        for row in block:
            model.score(row)
        times.append(time.process_time() - start)
    return sorted(times)[len(times) // 2] / len(block) * 1e6


def _self_times(spans) -> list[float]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(tracer: Tracer, workload, untraced, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics, as means per request, and notes on what they rest on.

    Times are busy time: the program is one thread with no queues, so no
    layer waits for another.
    """
    spans = tracer.spans
    own = _self_times(spans)
    n = len(traced)
    incl: dict[str, float] = {}
    self_by_name: dict[str, float] = {}
    info_sum: dict[str, float] = {}
    for span, self_s in zip(spans, own):
        name, start, end, _, _, info = span
        incl[name] = incl.get(name, 0.0) + end - start
        self_by_name[name] = self_by_name.get(name, 0.0) + self_s
        for key, value in (info or {}).items():
            info_sum[f"{name}:{key}"] = info_sum.get(f"{name}:{key}", 0.0) + value

    probes = {family: score_probe(model, block) for family, (model, block) in workload.probe_models().items()}
    counts = [r.counts for r in traced]
    table_s = sum(c["table_s"] for c in counts)
    rows = sum(c["rows_scored"] for c in counts)
    nonscore = sum(
        c["family_s"][f] - c["family_rows"][f] * probes[f] * 1e-6 for c in counts for f in c["family_s"]
    )
    asym_enumerated = info_sum.get("solvers.asymmetric:enumerated", 0.0)
    untraced_s = sum(r.latency for r in untraced)
    traced_s = sum(r.latency for r in traced)

    m = {
        "cli.request_s": (incl.get("cli.main", 0.0) / n, "s"),
        "data.load_s": (incl.get("data.load", 0.0) / n, "s"),
        "data.rows_loaded": (info_sum.get("data.load:rows", 0.0) / n, "count"),
        "trees.load_s": (incl.get("trees.load", 0.0) / n, "s"),
        "trees.cond_expectation_s": (incl.get("trees.cond_expectation", 0.0) / n, "s"),
        "trees.score_us_per_row": (probes["tree"], "us"),
        "models.score_us_per_row": (probes["linear"], "us"),
        "value_functions.table_s": (table_s / n, "s"),
        "value_functions.rows_scored": (rows / n, "count"),
        "value_functions.rows_scored_per_s": (rows / table_s if table_s else 0.0, "1/s"),
        "value_functions.nonscore_s": (nonscore / n, "s"),
        "games.oracle_calls": (sum(c["oracle_calls"] for c in counts) / n, "count"),
        "games.table_s": (incl.get("games.table", 0.0) / n, "s"),
    }
    for solver in SOLVERS:
        m[f"solvers.{solver}_s"] = (self_by_name.get(f"solvers.{solver}", 0.0) / n, "s")
    m["solvers.permutations_enumerated"] = (
        (info_sum.get("solvers.permutation:enumerated", 0.0) + asym_enumerated) / n, "count")
    m["solvers.admissible_ratio"] = (
        info_sum.get("solvers.asymmetric:admissible", 0.0) / asym_enumerated if asym_enumerated else 0.0,
        "ratio")
    m["solvers.audit_masks_checked"] = (info_sum.get("solvers.audit:masks_checked", 0.0) / n, "count")
    m["reporting.write_s"] = (incl.get("reporting.write", 0.0) / n, "s")
    m["reporting.bytes_written"] = (info_sum.get("reporting.write:bytes", 0.0) / n, "bytes")
    scenario_names = sorted({s[0] for s in spans if s[0].startswith("scenarios.")})
    for name in scenario_names:
        m[f"{name}_s"] = (incl[name] / n, "s")
    m["scenarios.claims_checked"] = (
        sum(v for k, v in info_sum.items() if k.startswith("scenarios.") and k.endswith(":claims")) / n,
        "count")
    layer_self: dict[str, float] = {}
    for name, value in self_by_name.items():
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + value
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0) / n, "s")
    m["bench.self_s"] = (layer_self.get("request", 0.0) / n, "s")
    m["trace.overhead_s"] = ((traced_s - untraced_s) / n, "s")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    m["trace.spans_per_request"] = (len(spans) / n, "count")

    notes = [
        f"{n} requests replayed with tracing; per-request means; busy time only (one thread, no queues)",
        "counts marked computed: rows_scored (oracle calls x hybrids per coalition, numpy match counts), "
        "permutations_enumerated (n!), audit_masks_checked (numpy scan of the audited table)",
        f"nonscore_s = table time - rows scored x probe cost (linear {probes['linear']:.3g} us, "
        f"tree {probes['tree']:.3g} us per row)",
    ]
    return m, notes


def by_kind(tracer: Tracer, records) -> dict:
    """Per request kind: count, mean latency and mean self time per layer."""
    own = _self_times(tracer.spans)
    kinds: dict[str, dict] = {}
    for record in records:
        entry = kinds.setdefault(record.kind, {"requests": 0, "latency_s": 0.0, "self_s": {}})
        entry["requests"] += 1
        entry["latency_s"] += record.latency
    request_kind = {}
    for span, self_s in zip(tracer.spans, own):
        if span[0].startswith("request."):
            request_kind[span[4]] = span[0][len("request."):]
        kind = request_kind.get(span[4])
        if kind in kinds:
            layer = span[0].split(".")[0]
            kinds[kind]["self_s"][layer] = kinds[kind]["self_s"].get(layer, 0.0) + self_s
    for entry in kinds.values():
        entry["latency_s"] /= entry["requests"]
        entry["self_s"] = {k: v / entry["requests"] for k, v in entry["self_s"].items()}
    return kinds


def write_trace(path, tracer: Tracer, workload, records, metrics) -> None:
    import json

    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "workload": workload.name,
        "seed": workload.seed,
        "span_fields": ["name", "start_s", "end_s", "parent", "request_id", "info"],
        "spans": tracer.spans,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "by_kind": by_kind(tracer, records),
    }
    path.write_text(json.dumps(payload, default=str) + "\n")
