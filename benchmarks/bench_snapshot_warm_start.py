"""Snapshot warm start — what persistence buys at boot and at ingest.

Two comparisons, both on the IOS stand-in:

1. **Boot**: cold boot re-runs index construction (keyword index K +
   similarity-aware index S) from the pedigree graph, exactly what
   ``repro serve --graph`` does; warm boot deserialises the same indexes
   from a snapshot directory (``repro serve --snapshot``).  The paper's
   offline/online split assumes the offline output is *kept*; this
   measures the keep.

2. **Ingest**: a delta batch of certificates arrives.  Both variants
   produce the same deliverable — an up-to-date snapshot: "full"
   re-resolves base+delta from scratch then saves; ``repro snapshot
   ingest`` loads the base dataset from its snapshot, re-resolves base +
   delta and commits a child snapshot.  Both do the same resolution
   work, so the row shows what loading the base from the snapshot and
   recording the lineage cost on top.

Emits the text table to ``benchmarks/results/`` plus a
machine-readable ``bench_snapshot_warm_start.metrics.json``.
"""

from __future__ import annotations

import time

from common import emit, emit_report, format_table, ios_dataset, telemetry
from repro.core import SnapsConfig, SnapsResolver
from repro.data.records import Dataset
from repro.parallel import ParallelConfig
from repro.pedigree import build_pedigree_graph
from repro.query import QueryEngine
from repro.serve import ServeConfig, ServingApp
from repro.store import IncrementalResolver, SnapshotStore

N_DELTA_CERTS = 40


def _split(dataset, n_delta):
    """(base, delta): the last ``n_delta`` certificates form the delta."""
    cert_ids = sorted(dataset.certificates)
    delta_ids = set(cert_ids[-n_delta:])

    def subset(name, keep):
        certs = [c for cid, c in dataset.certificates.items() if cid in keep]
        rids = {rid for c in certs for rid in c.member_record_ids()}
        return Dataset(name, [r for r in dataset if r.record_id in rids], certs)

    return subset("base", set(cert_ids) - delta_ids), subset("delta", delta_ids)


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def test_snapshot_warm_start(benchmark, tmp_path):
    dataset = ios_dataset()
    config = SnapsConfig()
    store = SnapshotStore(tmp_path / "store")
    trace, metrics = telemetry()

    def run():
        timings = {}

        # Offline resolve + snapshot save (amortised once, shown for scale).
        result, timings["resolve_full"] = _timed(
            lambda: SnapsResolver(config).resolve(dataset)
        )
        graph = build_pedigree_graph(dataset, result.entities)
        manifest, timings["snapshot_save"] = _timed(
            lambda: store.save(
                result, graph=graph, config=config, trace=trace, metrics=metrics
            )
        )

        # Boot: cold builds K and S from the graph; warm deserialises them.
        def cold_boot():
            return ServingApp(graph, ServeConfig())

        def warm_boot():
            loaded = store.load(
                artifacts=("graph", "indexes"), trace=trace, metrics=metrics
            )
            return ServingApp(
                loaded.graph,
                ServeConfig(),
                keyword_index=loaded.keyword_index,
                sim_index=loaded.sim_index,
            )

        cold_app, timings["boot_cold"] = _timed(cold_boot)
        warm_app, timings["boot_warm"] = _timed(warm_boot)

        # Sanity: both boots must serve the same answers.
        probe = {"first_name": "john", "surname": "macdonald", "top": "5"}
        cold_body = cold_app.handle("GET", "/v1/search", probe).body
        warm_body = warm_app.handle("GET", "/v1/search", probe).body
        assert cold_body == warm_body, "warm boot diverged from cold boot"

        # Ingest: both paths end with an up-to-date snapshot on disk.
        base, delta = _split(dataset, N_DELTA_CERTS)
        ingest_store = SnapshotStore(tmp_path / "ingest-store")
        ingest_store.save(SnapsResolver(config).resolve(base), config=config)

        def full_path():
            # The blocking-filter mode ingest and `repro resolve` default to.
            result = SnapsResolver(config).resolve(
                dataset, parallel=ParallelConfig()
            )
            full_store = SnapshotStore(tmp_path / "full-store")
            return full_store.save(
                result,
                graph=build_pedigree_graph(dataset, result.entities),
                config=config,
            )

        _, timings["reresolve_full"] = _timed(full_path)
        outcome, timings["ingest_snapshot"] = _timed(
            lambda: IncrementalResolver(ingest_store).ingest(
                delta, trace=trace, metrics=metrics
            )
        )
        return timings, manifest, outcome

    timings, manifest, outcome = benchmark.pedantic(run, rounds=1, iterations=1)

    boot_speedup = timings["boot_cold"] / max(timings["boot_warm"], 1e-9)
    ingest_speedup = timings["reresolve_full"] / max(
        timings["ingest_snapshot"], 1e-9
    )
    rows = [
        ["boot", "cold (build K+S)", f"{1000 * timings['boot_cold']:.1f}", ""],
        [
            "boot",
            "warm (load snapshot)",
            f"{1000 * timings['boot_warm']:.1f}",
            f"{boot_speedup:.1f}x",
        ],
        [
            "ingest",
            "full re-resolve + save",
            f"{1000 * timings['reresolve_full']:.1f}",
            "",
        ],
        [
            "ingest",
            f"snapshot ingest ({N_DELTA_CERTS} certs)",
            f"{1000 * timings['ingest_snapshot']:.1f}",
            f"{ingest_speedup:.1f}x",
        ],
        ["(once)", "offline resolve", f"{1000 * timings['resolve_full']:.1f}", ""],
        ["(once)", "snapshot save", f"{1000 * timings['snapshot_save']:.1f}", ""],
    ]
    emit(
        "bench_snapshot_warm_start",
        format_table(
            "Snapshot warm start (IOS stand-in)",
            ["phase", "variant", "time ms", "speedup"],
            rows,
        ),
    )
    emit_report(
        "bench_snapshot_warm_start",
        trace=trace,
        metrics=metrics,
        meta={
            "snapshot_id": manifest.snapshot_id,
            "n_delta_certs": N_DELTA_CERTS,
            "timings_ms": {k: round(1000 * v, 3) for k, v in timings.items()},
            "boot_speedup": round(boot_speedup, 3),
            "ingest_speedup": round(ingest_speedup, 3),
            "ingest_stats": outcome.stats,
        },
    )
    assert timings["boot_warm"] < timings["boot_cold"], (
        "warm boot should beat cold boot"
    )
