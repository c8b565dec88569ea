"""Run-to-run spread of the benchmark over seeds, and a baseline record.

    python3 bench/prove.py [--seeds 10] [--first-seed 1] [--workloads a,b] [--out FILE]

Runs ``bench/run.py`` once per seed and workload, one run at a time, with the
command and run length from BENCHMARK.json. For every end-to-end metric it
reports the median and the quartile spread, (Q3 - Q1) / median with
``statistics.quantiles(values, n=4)``, next to the metric's bound. The spread
should stay below a third of the bound for every metric but ``setup_s``.
Then it makes one traced run per workload on the first seed. ``--out`` writes
all of it, with the machine it ran on, as JSON (``bench/baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, seed, seconds, trace):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        print(f"{workload} seed {seed}: exit {proc.returncode}, {result['failed']} failed", file=sys.stderr)
    return result, wall, proc.returncode == 0 and result["correct"]


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                    capture_output=True, text=True).stdout.strip()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the summary as JSON here")
    args = parser.parse_args()

    summary = {"machine": machine(), "run_seconds": args.seconds,
               "seeds": list(range(args.first_seed, args.first_seed + args.seeds)), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        walls = []
        for seed in summary["seeds"]:
            result, wall, passed = run(spec, workload, seed, args.seconds, 0)
            walls.append(wall)
            ok = ok and passed
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            rows[metric["name"]] = {"median": median, "spread": (q3 - q1) / median,
                                    "bound": metric["bound"], "unit": metric["unit"], "values": vals}
            print(f"{workload:<24} {metric['name']:<16} median {median:<12.6g} {metric['unit']:<4} "
                  f"spread {(q3 - q1) / median:6.3f} (bound {metric['bound']})")
        print(f"{workload:<24} wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s",
              flush=True)
        summary["workloads"][workload] = {"end_to_end": rows, "wall_s": walls}
    for workload in args.workloads.split(","):
        result, wall, passed = run(spec, workload, args.first_seed, args.seconds, 1)
        ok = ok and passed
        trace = json.loads((ROOT / ".bench_work" / "traces" / f"{workload}-seed{args.first_seed}.json").read_text())
        summary["workloads"][workload]["per_layer"] = {
            "seed": args.first_seed, "wall_s": wall,
            "metrics": {k: v["value"] for k, v in trace["metrics"].items()}, "by_kind": trace["by_kind"]}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
