"""Table 6 — scalability over growing BHIC time windows.

Paper Table 6 widens the BHIC window (1900–1935 → 1870–1935), reports
per-phase times (generate N_A, generate N_R, bootstrap, iterative
merging) and the linkage time per node and per edge.  The headline
claims: merging dominates total runtime, and linkage time grows
near-linearly with graph size.
"""

from __future__ import annotations

from common import bhic_dataset, emit, emit_report, format_table, telemetry
from repro.core import SnapsConfig, SnapsResolver
from repro.obs import MetricsRegistry

_WINDOWS = [(1920, 1935), (1910, 1935), (1900, 1935), (1890, 1935)]


def _run_window(start, end, harness_metrics):
    dataset = bhic_dataset(start, end)
    trace, metrics = telemetry()
    result = SnapsResolver(SnapsConfig()).resolve(
        dataset, trace=trace, metrics=metrics
    )
    harness_metrics.merge(metrics)
    times = result.timings.times
    n_nodes = result.n_relational
    graph = result.graph
    n_edges = sum(len(graph.group_edges(g)) for g in range(graph.n_groups))
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
