"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload at its tiny size, untraced and traced, and checks that the
result line follows BENCHMARK.json (names and units), that every output check
passed, and that the printed report names every end-to-end and per-layer
metric the benchmark defines, each with a unit. It sets every workload up at
full size and checks that spec.json describes it as run.py would. Last, it
copies only BENCHMARK.json and bench/ into a scratch directory and checks that
the benchmark refuses to run there. Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_work" / "smoke"

END_TO_END = ("setup_s", "requests_per_s", "latency_p50_s", "latency_tail_s", "peak_rss_mb", "failed_fraction")
PER_LAYER = (
    "cli.request_s", "cli.self_s", "data.load_s", "data.rows_loaded", "trees.load_s",
    "trees.cond_expectation_s", "trees.score_us_per_row", "models.score_us_per_row",
    "value_functions.table_s", "value_functions.rows_scored", "value_functions.rows_scored_per_s",
    "value_functions.nonscore_s", "games.oracle_calls", "games.table_s", "solvers.subset_s",
    "solvers.permutation_s", "solvers.asymmetric_s", "solvers.sampled_s", "solvers.audit_s",
    "solvers.permutations_enumerated", "solvers.admissible_ratio", "solvers.audit_masks_checked",
    "reporting.write_s", "reporting.bytes_written", "scenarios.claims_checked", "trace.overhead_s",
)
SCENARIO_SPANS = tuple(f"scenarios.{name}_s" for name in (
    "redundancy", "linear", "multiplicative", "recourse",
    "beetle", "ood-figure", "engineered-feature", "adversarial"))
METRIC_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9][0-9.e+-]*)\s+(\S+)$")


def run(argv, cwd=ROOT):
    return subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec, workload, trace) -> None:
    proc = run(["bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    label = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {sorted(result)}"
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, label
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}, f"{label}: metrics {sorted(result['metrics'])}"
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), f"{label}: {m['name']}"
    printed = {}
    for line in lines[:-1]:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = match.group(3)
    names = PER_LAYER if trace else END_TO_END
    if trace and workload == "scenario-suite":
        names += SCENARIO_SPANS
    missing = [n for n in names if n not in printed]
    assert not missing, f"{label}: report does not name {missing}"
    print(f"ok  {label}: {result['attempted']} requests, {len(printed)} metrics printed with units")


def check_spec(spec) -> None:
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]
    import shaplab
    import shaplab.cli  # noqa: F401
    import workloads

    doc = json.loads((ROOT / "bench" / "spec.json").read_text())
    documented = {m["name"] for m in doc["per_layer"]}
    undocumented = [m["name"] for m in spec["per_layer"] if m["name"] not in documented]
    assert not undocumented, f"spec.json does not document {undocumented}"
    shutil.rmtree(SCRATCH, ignore_errors=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(shaplab, SCRATCH / name, 1, False)
            workload.work.mkdir(parents=True)
            workload.setup()
            assert workload.describe() == doc["workloads"][name], f"spec.json is stale for {name}"
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print("ok  spec.json matches every workload at full size")


def check_refuses_without_package() -> None:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
    shutil.copytree(ROOT / "bench", SCRATCH / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(["bench/run.py", "--workload", "scenario-suite", "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=SCRATCH)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    assert proc.returncode != 0, "ran without a package"
    assert '"metrics"' not in proc.stdout, "printed a result without a package"
    print(f"ok  without src/: exit {proc.returncode}, no result printed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_spec(spec)
    check_refuses_without_package()
    return 0


if __name__ == "__main__":
    sys.exit(main())
