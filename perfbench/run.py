"""ptqm benchmark: three seeded workloads, end-to-end metrics untraced,
per-layer metrics from a separate traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectral-large --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for why each was chosen): spectral-large,
timeseries-small, cli-mixed. The library is imported from src/ of the
same checkout, never from an installed copy; without src/ptqm the run
fails with exit code 2 and prints no result.

--trace 0 prints the end-to-end metrics: setup_s (median of three fresh
processes, each doing interpreter start, imports, input generation and
warm-up), ops_per_s, op_p50_ms, op_tail_ms (the workload's fixed
percentile), ok_rate and peak_rss_mb. One closed-loop client runs the
workload's cycle of operations until --seconds have passed. The three
operation times are scaled to a nominal host speed by a reference
kernel timed between operations (calibrate.py); setup_s is wall clock.
The unscaled figures are printed on the "#" lines.

--trace 1 prints the per-layer metrics: untraced and traced cycles
alternate for --seconds, the traced ones recording spans and counters
(tracing.py). Per-layer counts and times are per traced operation. The
spans are written to .bench_work/spans-<workload>.jsonl.gz.

The last stdout line is the JSON result; lines before it, starting with
"#", record the environment and how the figures were taken.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: on a small shared machine
# a second thread adds spread without adding speed.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
STARTUP_REPEATS = 5


def _load_library():
    """Import ptqm from this checkout's src/, or exit 2."""
    if not (SRC / "ptqm" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no ptqm sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import ptqm

    if Path(ptqm.__file__).resolve().parent != SRC / "ptqm":
        sys.stderr.write(f"benchmark: imported ptqm from {ptqm.__file__}, not {SRC}\n")
        sys.exit(2)
    return ptqm


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def setup(name: str, seed: int, workdir: Path):
    """Import, generate the inputs and warm up: everything setup_s times."""
    _load_library()
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.warmup()
    return wl


def measure_setup(name: str, seed: int) -> list:
    """Wall times of fresh processes that only set up and exit."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def measure_startup() -> list:
    """Wall times of `python -c "import ptqm.cli"` subprocesses."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(STARTUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ptqm.cli"], check=True,
                       stdin=subprocess.DEVNULL, cwd=ROOT, env=env)
        times.append(time.perf_counter() - start)
    return times


class Tally:
    """Attempted and failed operations, with the first failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, op):
        """Run and check one operation; returns its latency in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # noqa: BLE001 - an unexpected raise is a failed op
            elapsed = time.perf_counter() - start
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - start
            try:
                reason = op.check(result)
            except Exception as exc:  # noqa: BLE001 - output the check cannot parse
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op.label}: {reason}")
        return elapsed


def tail(latencies: list, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def timed_run(wl, seconds: float, tally: Tally) -> dict:
    """The workload's cycle in a closed loop for `seconds`, with the
    reference kernel timed between operations (calibrate.py). Latencies
    are scaled to the nominal host; ops_per_s is operations over the
    sum of their scaled latencies, so checking and the reference are
    not counted. The wall-clock figures are printed as comments."""
    import calibrate

    ops = wl.cycle()
    ref = calibrate.Reference(wl.reference)
    ref.sample()
    latencies, marks = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        marks.append(ref.mark())
        latencies.append(tally.run(ops[i % len(ops)]))
        i += 1
        if time.perf_counter() >= deadline:
            break
        ref.sample_if_due()
    ref.sample()
    wall = time.perf_counter() - start
    scaled = [lat * ref.scale(mark) for lat, mark in zip(latencies, marks)]
    tail_s, beyond = tail(scaled, wl.tail_pct)
    raw_tail_s, _ = tail(latencies, wl.tail_pct)
    print(f"# {len(latencies)} ops in {wall:.3f} s ({i / len(ops):.2f} cycles); "
          f"op_tail_ms is p{wl.tail_pct:g} with {beyond} samples beyond it")
    print(f"# wall clock: {len(latencies) / sum(latencies):.4f} ops/s, "
          f"p50 {1e3 * statistics.median(latencies):.3f} ms, "
          f"p{wl.tail_pct:g} {1e3 * raw_tail_s:.3f} ms")
    print(f"# reference {ref.kernel.name}: {len(ref.times)} timings, median "
          f"{1e3 * statistics.median(ref.times):.3f} ms, range "
          f"{1e3 * min(ref.times):.3f}-{1e3 * max(ref.times):.3f} ms, "
          f"nominal {1e3 * ref.kernel.nominal_s:g} ms")
    return {
        "ops_per_s": (len(scaled) / sum(scaled), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "ok_rate": (1.0 - tally.failed / tally.attempted, "ratio"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }


def traced_run(wl, name: str, seconds: float, tally: Tally) -> dict:
    import tracing

    startup = measure_startup()
    ops = wl.cycle(in_process=True)
    tracer = tracing.Tracer()
    plain_s = traced_s = 0.0
    n_ops = points = 0
    labels: dict[str, list] = {}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for op in ops:
            tally.run(op)
        plain_s += time.perf_counter() - t0
        with tracer:
            t0 = time.perf_counter()
            for op in ops:
                tracer.op = n_ops
                tally.run(op)
                labels.setdefault(op.label, []).append(n_ops)
                n_ops += 1
                points += op.points
            traced_s += time.perf_counter() - t0
        if time.perf_counter() - start >= seconds:
            break

    counters = sorted({key for c in tracer.counts.values() for key in c})
    for label, ids in labels.items():
        sums = {key: sum(tracer.op_counts(i)[key] for i in ids) for key in counters}
        text = " ".join(f"{key}={val / len(ids):g}" for key, val in sums.items() if val)
        if sums.get("linalg.schur_sorted_dim"):
            text += (" linalg.schur_useful_ratio="
                     f"{sums['linalg.schur_sorted_sdim'] / sums['linalg.schur_sorted_dim']:.6g}")
        print(f"# per op, {label}: {text or 'no counted calls'}")
    tracer.write(WORK / f"spans-{name}.jsonl.gz")

    metrics = {}
    for layer, (calls, self_s, failed) in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (calls / n_ops, "1/op")
        metrics[f"{layer}.self_s"] = (self_s / n_ops, "s/op")
        metrics[f"{layer}.failed"] = (failed / n_ops, "1/op")
    for key in ("linalg.schur_calls", "linalg.expm_calls", "dynamics.validate_density_calls",
                "metric.basis_coefficients_calls", "dilation.halmos_dilation_calls",
                "superposition.free_kraus_defect_calls"):
        metrics[key] = (tracer.total(key) / n_ops, "1/op")
    sorted_dim = tracer.total("linalg.schur_sorted_dim")
    metrics["linalg.schur_useful_ratio"] = (
        tracer.total("linalg.schur_sorted_sdim") / sorted_dim if sorted_dim else 0.0, "ratio")
    metrics["dynamics.propagator_calls_per_point"] = (
        tracer.total("dynamics.propagator_calls") / points if points else 0.0, "1/point")
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, then exit (used to time set-up)")
    args = parser.parse_args(argv)

    _load_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            setup(args.workload, args.seed, workdir)
            return 0
        print("# env " + json.dumps(environment(), sort_keys=True))
        setup_times = [] if args.trace else measure_setup(args.workload, args.seed)
        wl = setup(args.workload, args.seed, workdir)
        tally = Tally()
        if args.trace:
            metrics = traced_run(wl, args.workload, args.seconds, tally)
        else:
            metrics = timed_run(wl, args.seconds, tally)
            metrics["setup_s"] = (statistics.median(setup_times), "s")
            print("# setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup_times))
        for reason in tally.reasons:
            print(f"# failed: {reason}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
