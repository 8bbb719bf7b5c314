"""Parallel resolution scaling — speedup and parity per worker count.

Resolves the IOS stand-in with the serial blocking filter
(``workers=0``) and the parallel blocking substrate at 1, 2 and 4
workers, reporting wall-clock, speedup over serial, and — the property
everything else rests on — whether each run's entity clusters are
identical to serial's.

``--workers`` chooses only the blocking-filter pool: every row builds
``G_D`` with the same inline array pass and runs the same bootstrap and
merge, so the speedup column measures blocking alone.  Worker counts
above the machine's CPU count degrade gracefully to the in-process
pipeline (vectorised MinHash, chunked numpy filters), so on a small box
the 2- and 4-worker rows mostly measure that pipeline rather than
fan-out.

Runs standalone (CI's perf-smoke job uses ``--quick``)::

    python benchmarks/bench_parallel_scaling.py [--quick]

or under the pytest-benchmark harness with the other benches.  Emits the
text table to ``benchmarks/results/bench_parallel_scaling.txt`` plus a
machine-readable ``bench_parallel_scaling.metrics.json``.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import BENCH_SCALE, emit, emit_report, format_table, telemetry
from repro.core import SnapsConfig, SnapsResolver
from repro.data.synthetic import make_ios_dataset
from repro.parallel import ParallelConfig, available_cpus

# --quick targets the CI smoke job: big enough that the parallel path is
# exercised end to end (well above ParallelConfig.min_records once the
# explicit worker counts below bypass auto mode), small enough to finish
# in tens of seconds on one core.
QUICK_SCALE = 0.08
WORKER_COUNTS = (0, 1, 2, 4)
BENCH_NAME = "bench_parallel_scaling"


def _clusters(result) -> list[tuple[int, ...]]:
    return sorted(
        tuple(sorted(e.record_ids)) for e in result.entities.entities()
    )


def run_scaling(scale: float) -> dict:
    """One resolve per worker count; returns rows + parity/speedup facts."""
    dataset = make_ios_dataset(scale=scale)
    rows: list[list[object]] = []
    runs: dict[int, dict] = {}
    serial_clusters = None
    serial_s = None
    trace, metrics = telemetry()
    for workers in WORKER_COUNTS:
        instrument = workers == WORKER_COUNTS[-1]
        start = time.perf_counter()
        result = SnapsResolver(SnapsConfig()).resolve(
            dataset,
            trace=trace if instrument else None,
            metrics=metrics if instrument else None,
            parallel=ParallelConfig(workers=workers),
        )
        elapsed = time.perf_counter() - start
        clusters = _clusters(result)
        if workers == 0:
            serial_clusters, serial_s = clusters, elapsed
        identical = clusters == serial_clusters
        speedup = serial_s / elapsed if elapsed > 0 else float("inf")
        runs[workers] = {
            "seconds": round(elapsed, 3),
            "speedup": round(speedup, 3),
            "identical": identical,
        }
        rows.append([
            "serial" if workers == 0 else f"{workers} worker(s)",
            f"{elapsed:.2f}",
            f"{speedup:.2f}x",
            "yes" if identical else "NO",
        ])
    emit(
        BENCH_NAME,
        format_table(
            f"Parallel resolution scaling — {len(dataset)} records, "
            f"{available_cpus()} CPU(s) available",
            ["workers", "seconds", "speedup", "identical to serial"],
            rows,
        ),
    )
    emit_report(
        BENCH_NAME,
        trace,
        metrics,
        meta={
            "records": len(dataset),
            "dataset_scale": scale,
            "available_cpus": available_cpus(),
            "runs": {str(w): facts for w, facts in runs.items()},
        },
    )
    return runs


def _check(runs: dict) -> None:
    assert all(facts["identical"] for facts in runs.values()), (
        "parallel output diverged from serial"
    )
    # The parallel pipeline must not be slower than serial (generous
    # noise margin — absolute speedup depends on scale and CPU count).
    assert runs[1]["seconds"] <= runs[0]["seconds"] * 1.2


def test_parallel_scaling(benchmark):
    runs = benchmark.pedantic(
        lambda: run_scaling(QUICK_SCALE), rounds=1, iterations=1
    )
    _check(runs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"run at scale {QUICK_SCALE} instead of REPRO_BENCH_SCALE "
             f"(currently {BENCH_SCALE}) — the CI smoke configuration",
    )
    args = parser.parse_args(argv)
    runs = run_scaling(QUICK_SCALE if args.quick else BENCH_SCALE)
    _check(runs)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
