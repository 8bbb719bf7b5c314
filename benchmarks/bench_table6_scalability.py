"""Table 6 — scalability over growing BHIC time windows.

Paper Table 6 widens the BHIC window (1900–1935 → 1870–1935), reports
per-phase times (generate N_A, generate N_R, bootstrap, iterative
merging) and the linkage time per node and per edge.  The headline
claims: merging dominates total runtime, and linkage time grows
near-linearly with graph size.

A second sweep (``test_table6_shard_scaling``) resolves the widest
window with ``repro.shard`` at 1/2/4 shards, reporting wall-clock,
speedup over serial, boundary-pair counts, and — the invariant the
subsystem exists to keep — whether each shard count's clusters payload
is byte-identical to the serial one.

The ``workers=0`` reference filters blocking pairs serially but builds
``G_D`` with the same inline array pass as every other worker count, so
its timings (and the speedups quoted against it) are lower than those of
runs made when ``workers=0`` also meant a per-pair graph build with
unseeded scorer caches.
"""

from __future__ import annotations

import json
import time

from common import bhic_dataset, emit, emit_report, format_table, telemetry
from repro.core import SnapsConfig, SnapsResolver
from repro.obs import MetricsRegistry

_WINDOWS = [(1920, 1935), (1910, 1935), (1900, 1935), (1890, 1935)]
_SHARD_COUNTS = (1, 2, 4)


def _run_window(start, end, harness_metrics):
    dataset = bhic_dataset(start, end)
    trace, metrics = telemetry()
    result = SnapsResolver(SnapsConfig()).resolve(
        dataset, trace=trace, metrics=metrics
    )
    harness_metrics.merge(metrics)
    times = result.timings.times
    n_nodes = result.n_relational
    n_edges = sum(len(g.edges) for g in result.graph.groups.values())
    linkage_time = times.get("bootstrap", 0.0) + times.get("merging", 0.0)
    return {
        "window": f"{start}-{end}",
        "nodes": n_nodes,
        "edges": n_edges,
        "gen_na_s": times.get("graph_generation", 0.0),
        "gen_nr_s": times.get("blocking", 0.0),
        "bootstrap_s": times.get("bootstrap", 0.0),
        "merge_s": times.get("merging", 0.0),
        "linkage_ms_per_node": 1000.0 * linkage_time / max(1, n_nodes),
        "linkage_ms_per_edge": 1000.0 * linkage_time / max(1, n_edges),
        "candidate_pairs": metrics.counter_value("blocking.candidate_pairs"),
    }


def test_table6_scalability(benchmark):
    harness_metrics = MetricsRegistry()

    def run():
        return [
            _run_window(start, end, harness_metrics) for start, end in _WINDOWS
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(
        "table6", metrics=harness_metrics,
        meta={"windows": [f"{s}-{e}" for s, e in _WINDOWS]},
    )
    rows = [
        [
            r["window"], r["nodes"], r["edges"],
            f"{r['gen_na_s']:.2f}", f"{r['gen_nr_s']:.2f}",
            f"{r['bootstrap_s']:.2f}", f"{r['merge_s']:.2f}",
            f"{r['linkage_ms_per_node']:.3f}", f"{r['linkage_ms_per_edge']:.3f}",
        ]
        for r in results
    ]
    emit(
        "table6",
        format_table(
            "Table 6 — offline scalability over growing BHIC windows",
            ["window", "nodes", "edges", "gen N_A (s)", "gen N_R (s)",
             "bootstrap (s)", "merge (s)", "link ms/node", "link ms/edge"],
            rows,
        ),
    )
    # Shape 1: graph size grows with the window.
    sizes = [r["nodes"] for r in results]
    assert sizes == sorted(sizes)
    # Shape 2: merging dominates bootstrap in every window.
    for r in results:
        assert r["merge_s"] >= r["bootstrap_s"]
    # Shape 3: near-linear scaling — per-node linkage time grows far
    # slower than the graph itself (the paper's per-node column grows
    # sub-linearly relative to nodes; allow generous head-room).
    growth_nodes = results[-1]["nodes"] / max(1, results[0]["nodes"])
    growth_per_node = results[-1]["linkage_ms_per_node"] / max(
        1e-9, results[0]["linkage_ms_per_node"]
    )
    assert growth_per_node < growth_nodes


def _clusters_payload(result) -> bytes:
    """The exact bytes ``clusters.json`` would hold for this result."""
    from repro.store import codecs

    blob = codecs.encode_clusters(
        result.entities,
        {"n_atomic": result.n_atomic, "n_relational": result.n_relational},
    )
    return json.dumps(blob).encode()


def run_shard_sweep(harness_metrics=None) -> dict:
    """Serial reference plus 1/2/4-shard resolves of the widest window."""
    from repro.parallel import ParallelConfig, available_cpus
    from repro.shard import resolve_sharded

    start_year, end_year = _WINDOWS[-1]
    dataset = bhic_dataset(start_year, end_year)
    config = SnapsConfig()
    begin = time.perf_counter()
    serial = SnapsResolver(config).resolve(
        dataset, parallel=ParallelConfig(workers=0)
    )
    serial_s = time.perf_counter() - begin
    reference = _clusters_payload(serial)
    rows: list[list[object]] = [
        ["serial", f"{serial_s:.2f}", "1.00x", "-", "(reference)"]
    ]
    runs: dict[str, dict] = {"serial": {"seconds": round(serial_s, 3)}}
    trace, metrics = telemetry()
    for n_shards in _SHARD_COUNTS:
        instrument = n_shards == _SHARD_COUNTS[-1]
        begin = time.perf_counter()
        sharded = resolve_sharded(
            dataset,
            config,
            n_shards=n_shards,
            trace=trace if instrument else None,
            metrics=metrics if instrument else None,
        )
        elapsed = time.perf_counter() - begin
        identical = _clusters_payload(sharded.result) == reference
        speedup = serial_s / elapsed if elapsed > 0 else float("inf")
        runs[str(n_shards)] = {
            "seconds": round(elapsed, 3),
            "speedup": round(speedup, 3),
            "identical": identical,
            "boundary_pairs": sharded.n_boundary_pairs,
        }
        rows.append([
            f"{n_shards} shard(s)",
            f"{elapsed:.2f}",
            f"{speedup:.2f}x",
            sharded.n_boundary_pairs,
            "yes" if identical else "NO",
        ])
    if harness_metrics is not None:
        harness_metrics.merge(metrics)
    emit(
        "table6_shards",
        format_table(
            f"Table 6 companion — sharded resolution, BHIC "
            f"{start_year}-{end_year} ({len(dataset)} records, "
            f"{available_cpus()} CPU(s) available)",
            ["configuration", "seconds", "speedup", "boundary pairs",
             "identical to serial"],
            rows,
        ),
    )
    emit_report(
        "table6_shards",
        trace,
        metrics,
        meta={
            "records": len(dataset),
            "window": f"{start_year}-{end_year}",
            "available_cpus": available_cpus(),
            "runs": runs,
        },
    )
    return runs


def test_table6_shard_scaling(benchmark):
    harness_metrics = MetricsRegistry()
    runs = benchmark.pedantic(
        lambda: run_shard_sweep(harness_metrics), rounds=1, iterations=1
    )
    # The parity column is the whole point: every shard count must
    # reproduce the serial clusters payload byte for byte.
    assert all(
        facts["identical"]
        for name, facts in runs.items()
        if name != "serial"
    ), "sharded output diverged from serial"
