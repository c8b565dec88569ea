"""shaplab benchmark: one closed-loop client, one process, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Inputs are generated from ``--seed`` under ``.bench_work/`` and
removed at exit. Each request is timed on its own, then its output is checked
against references computed without the code under test (``reference.py``);
a request that raises, exits non-zero or fails its check counts as failed.

Times are CPU time of this single-threaded process (``time.process_time``),
so time the machine spends running other tenants is not charged to the
program; on a shared virtual machine that is the difference between a
steady figure and a noisy one. The host's own speed still drifts, so a
calibration loop runs between requests and timed metrics are scaled to a
reference host speed (``hostspeed.py``). Unscaled CPU and wall-clock figures
are printed beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the requests
untraced for half the time, replays the same requests with spans around every
call into a shaplab layer (``tracing.py``), prints the per-layer metrics and
writes the spans to ``.bench_work/traces/``. The last line of standard output
is always one JSON object: correct, attempted, failed and metrics. The exit
code is 1 when any output check failed and 2 when there is no package to run.
"""

from __future__ import annotations

import os

# numpy reads these when it is first imported: no thread pools beyond our one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3


@dataclass
class Record:
    kind: str
    latency: float  # CPU seconds
    wall: float
    error: str | None
    counts: dict | None = None
    scale: float = 1.0  # host-speed factor from the calibration loops (hostspeed.py)

    @property
    def scaled(self) -> float:
        return self.latency * self.scale


def load_shaplab():
    package = ROOT / "src" / "shaplab" / "__init__.py"
    if not package.is_file():
        print(f"error: no shaplab package at {package.relative_to(ROOT)}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import shaplab
    import shaplab.cli  # noqa: F401  (cli is not imported by the package itself)

    return shaplab


def run_request(request, tracer=None, request_id=0) -> Record:
    sink = io.StringIO()
    counts = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        span = tracer.begin_request(request_id, request.kind) if tracer else None
        start, wall_start = time.process_time(), time.perf_counter()
        try:
            output, error = request.call(), None
        except Exception as exc:  # a crash is a failed request, not a crashed benchmark
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        latency, wall = time.process_time() - start, time.perf_counter() - wall_start
        if tracer:
            counts = tracer.end_request(span, request.model_hint)
    if error is None:
        try:
            error = request.check(output)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return Record(request.kind, latency, wall, error, counts)


def run_pass(rounds, seconds, tracer=None, min_rounds=0, meter=None) -> list[Record]:
    """Whole rounds until the summed request time reaches ``seconds``.

    With a ``meter``, a calibration loop runs before every request and after
    the last, and each record gets its host-speed factor from them.
    """
    records = []
    busy = 0.0
    for served, requests in enumerate(rounds, start=1):
        for request in requests:
            if meter:
                meter.sample()
            records.append(run_request(request, tracer, len(records)))
            busy += records[-1].latency
        if busy >= seconds and served >= min_rounds:
            break
    if meter:
        meter.sample()
        for k, record in enumerate(records):
            record.scale = meter.factor(k)
    return records


def tail_latency(latencies):
    """Latency at the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:  # no such percentile: report the maximum
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(args, run_dir: Path) -> tuple[float, float, float]:
    """Median scaled CPU, CPU and wall time of fresh processes that set up and serve one request."""
    meter = hostspeed.Meter()
    times, walls = [], []
    for k in range(SETUP_REPEATS):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(run_dir / f"setup{k}")]
        if args.tiny:
            argv.append("--tiny")
        meter.sample()
        start, wall_start = _children_cpu(), time.perf_counter()
        # a failed warm-up check is reported by this process's own requests
        subprocess.run(argv, stdout=subprocess.DEVNULL, timeout=150)
        times.append(_children_cpu() - start)
        walls.append(time.perf_counter() - wall_start)
    meter.sample()
    scaled = [t * meter.factor(k) for k, t in enumerate(times)]
    return statistics.median(scaled), statistics.median(times), statistics.median(walls)


def set_up(sl, workload_cls, work: Path, seed: int, tiny: bool):
    """Generate and write the inputs, then serve one warm-up request."""
    import numpy as np

    work.mkdir(parents=True, exist_ok=True)
    workload = workload_cls(sl, work, seed, tiny)
    workload.setup()
    warm = run_request(workload.request(workload.MIX[0], np.random.default_rng([seed, 2])))
    return workload, warm


def new_rounds(workload, seed, served: list):
    """Fresh rounds from the seed, each kept in ``served`` for a traced replay."""
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    while True:
        served.append(workload.round(rng))
        yield served[-1]


def _figures(times, ok) -> str:
    return (f"p50 {statistics.median(times):.4g} s, tail {tail_latency(times)[0]:.4g} s, "
            f"{ok / sum(times):.4g} requests/s")


def end_to_end(records, setup) -> tuple[dict, list[str]]:
    latencies = [r.scaled for r in records]
    ok = sum(r.error is None for r in records)
    tail, percentile, beyond = tail_latency(latencies)
    setup_s, setup_cpu, setup_wall = setup
    scales = [r.scale for r in records]
    notes = [
        f"tail latency at p{percentile:.1f}, {beyond} of {len(records)} samples beyond",
        f"host speed: scale factor median {statistics.median(scales):.4g}, "
        f"range {min(scales):.4g}-{max(scales):.4g} (reference loop {hostspeed.REFERENCE_S} CPU s)",
        f"unscaled CPU: setup {setup_cpu:.4g} s, " + _figures([r.latency for r in records], ok),
        f"wall clock: setup {setup_wall:.4g} s, " + _figures([r.wall for r in records], ok),
    ]
    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (ok / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "failed_fraction": ((len(records) - ok) / len(records), "ratio"),
    }, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for smoke tests")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    sl = load_shaplab()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from {', '.join(workloads.WORKLOADS)})")
    workload_cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        _, warm = set_up(sl, workload_cls, Path(args.setup_only), args.seed, args.tiny)
        return 0 if warm.error is None else 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setup = None if args.trace else measure_setup(args, run_dir)
        workload, warm = set_up(sl, workload_cls, run_dir / "run", args.seed, args.tiny)
        rounds = []
        if args.trace:  # per-layer means need no tail: half the time, then the replay
            records = [warm] + run_pass(new_rounds(workload, args.seed, rounds), args.seconds / 2)
        else:
            records = [warm] + run_pass(new_rounds(workload, args.seed, rounds), args.seconds,
                                        min_rounds=workload.MIN_ROUNDS, meter=hostspeed.Meter())
        timed = records[1:]
        if args.trace:
            import tracing

            tracer = tracing.Tracer(sl)
            tracer.install()
            try:
                traced = run_pass(rounds, float("inf"), tracer)
            finally:
                tracer.uninstall()
            records += traced
            metrics, lines = tracing.summarize(tracer, workload, timed, traced)
            path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
            tracing.write_trace(path, tracer, workload, traced, metrics)
            lines.append(f"spans written to {path.relative_to(ROOT)}")
            wanted = spec["per_layer"]
        else:
            metrics, lines = end_to_end(timed, setup)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failures = [r for r in records if r.error is not None]
    described = workload.describe()
    print(f"workload {args.workload}, seed {args.seed}: {described['loop']}; {described['inputs']}")
    for kind, text in described["round"].items():
        print(f"  round: {kind}: {text}")
    print(f"{len(timed)} timed requests in {sum(r.latency for r in timed):.2f} CPU s "
          f"({sum(r.scaled for r in timed):.2f} scaled s, {sum(r.wall for r in timed):.2f} s wall)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    for line in lines:
        print(f"  {line}")
    for kind in sorted({r.kind for r in timed}):
        own = [r for r in timed if r.kind == kind]
        print(f"  {kind}: {len(own)} requests, median {statistics.median(r.latency for r in own):.4g} CPU s, "
              f"{statistics.median(r.scaled for r in own):.4g} scaled s")
    for record in failures[:10]:
        print(f"FAILED {record.kind}: {record.error}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
