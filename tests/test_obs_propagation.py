"""Cross-process telemetry propagation (the --workers N coherence gate).

The parallel substrate ships a :class:`TraceContext` inside every chunk
task and gets back a worker span plus a pickled metrics-delta registry;
the parent stitches both into its own trace and registry.  These tests
pin the acceptance criteria: a multi-worker resolve produces ONE
coherent span tree (chunk spans descend from the resolve root), worker
counters land in the parent registry, resolution output stays
byte-identical to serial with telemetry enabled, and a crash mid-resolve
leaves a parseable streamed trace file.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.cli import main
from repro.core import SnapsConfig, SnapsResolver
from repro.data.loader import save_dataset_csv
from repro.data.synthetic import make_tiny_dataset
from repro.faults import InjectedFault, injected
from repro.obs import (
    LATENCY_BUCKETS_S,
    MetricsRegistry,
    Trace,
    TraceWriter,
    read_trace_jsonl,
)
from repro.parallel import ParallelConfig


def clusters_of(result):
    return sorted(
        tuple(sorted(e.record_ids)) for e in result.entities.entities()
    )


def spans_named(trace, prefix):
    return [span for _, span in trace.walk() if span.name.startswith(prefix)]


def ancestor_names(trace, target):
    """Names along the root→target path (excluding the target itself)."""
    path = []

    def descend(span, trail):
        if span is target:
            path.extend(trail)
            return True
        return any(descend(c, trail + [span.name]) for c in span.children)

    for root in trace.roots:
        if descend(root, []):
            break
    return path


# ----------------------------------------------------------------------
# Resolver-level propagation through a genuine ProcessPoolExecutor
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool_run(tmp_path_factory):
    """One traced + metered resolve over a real 2-worker process pool."""
    tiny = make_tiny_dataset(seed=3)
    path = tmp_path_factory.mktemp("obs-prop") / "trace.jsonl"
    trace = Trace(writer=TraceWriter(path))
    metrics = MetricsRegistry()
    result = SnapsResolver(SnapsConfig()).resolve(
        tiny,
        trace=trace,
        metrics=metrics,
        # oversubscribe forces an actual pool even on a one-core box.
        parallel=ParallelConfig(workers=2, oversubscribe=True),
    )
    serial = SnapsResolver(SnapsConfig()).resolve(
        tiny, parallel=ParallelConfig(workers=0)
    )
    return result, serial, trace, metrics, path


class TestPoolPropagation:
    def test_output_identical_with_telemetry_on(self, pool_run):
        result, serial, _, _, _ = pool_run
        assert clusters_of(result) == clusters_of(serial)

    def test_worker_spans_descend_from_resolve_root(self, pool_run):
        _, _, trace, _, _ = pool_run
        assert [s.name for s in trace.roots] == ["resolve"]
        workers = spans_named(trace, "worker.")
        assert workers  # chunks actually produced spans
        for span in workers:
            ancestry = ancestor_names(trace, span)
            assert ancestry[0] == "resolve"
            # The direct parent is the pool's per-chunk wait span.
            assert ancestry[-1].startswith("parallel.")

    def test_worker_spans_ran_in_other_processes(self, pool_run):
        _, _, trace, _, _ = pool_run
        pids = {span.attrs["pid"] for span in spans_named(trace, "worker.")}
        assert pids and os.getpid() not in pids

    def test_worker_metrics_merged_into_parent(self, pool_run):
        _, _, trace, metrics, _ = pool_run
        assert metrics.counter_value("parallel.worker.pairs_in") > 0
        assert metrics.counter_value("parallel.worker.pairs_kept") > 0
        chunk_hist = metrics.histograms["parallel.worker.chunk_seconds"]
        assert chunk_hist.count == len(spans_named(trace, "worker."))

    def test_trace_file_is_one_coherent_tree(self, pool_run):
        _, _, trace, _, path = pool_run
        rebuilt = read_trace_jsonl(path)
        assert rebuilt.trace_id == trace.trace_id
        assert [s.name for s in rebuilt.roots] == ["resolve"]
        # Live tree and file agree on the whole span population.
        live = sorted(span.span_id for _, span in trace.walk())
        from_file = sorted(span.span_id for _, span in rebuilt.walk())
        assert from_file == live
        for span in spans_named(rebuilt, "worker."):
            assert ancestor_names(rebuilt, span)[0] == "resolve"


# ----------------------------------------------------------------------
# Registry pickling through a real pool, merge collision semantics
# ----------------------------------------------------------------------


def _worker_registry(n: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("parallel.worker.pairs_in", n)
    registry.inc("shared.counter", 1)
    registry.observe(
        "parallel.worker.chunk_seconds", 0.01 * n, buckets=LATENCY_BUCKETS_S
    )
    return registry


class TestRegistryAcrossProcesses:
    def test_merge_after_real_pool_round_trip(self):
        parent = MetricsRegistry()
        parent.inc("shared.counter", 10)
        with ProcessPoolExecutor(max_workers=2) as pool:
            for registry in pool.map(_worker_registry, [1, 2, 3]):
                parent.merge(registry)
        assert parent.counter_value("parallel.worker.pairs_in") == 6
        # Name collisions accumulate — worker deltas never clobber.
        assert parent.counter_value("shared.counter") == 13
        hist = parent.histograms["parallel.worker.chunk_seconds"]
        assert hist.count == 3
        assert hist.buckets == LATENCY_BUCKETS_S

    def test_bucket_mismatch_still_rejected_after_round_trip(self):
        import pickle

        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.observe("h", 1.0, buckets=[1.0, 2.0])
        worker.observe("h", 1.0, buckets=[5.0])
        with pytest.raises(ValueError):
            parent.merge(pickle.loads(pickle.dumps(worker)))


# ----------------------------------------------------------------------
# CLI end-to-end: trace file + byte identity, and crash durability
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def stem(tmp_path_factory):
    root = tmp_path_factory.mktemp("obs-prop-data")
    stem = root / "tiny"
    save_dataset_csv(make_tiny_dataset(seed=3), stem)
    return stem


class TestCliTraceOut:
    def test_workers_resolve_writes_walkable_trace(self, stem, tmp_path):
        plain = tmp_path / "serial.json"
        assert main([
            "resolve", "--data", str(stem), "--workers", "0",
            "--out", str(plain),
        ]) == 0
        out, trace_path = tmp_path / "graph.json", tmp_path / "trace.jsonl"
        assert main([
            "resolve", "--data", str(stem), "--workers", "2",
            "--out", str(out), "--trace-out", str(trace_path),
        ]) == 0
        assert out.read_bytes() == plain.read_bytes()
        rebuilt = read_trace_jsonl(trace_path)
        assert [s.name for s in rebuilt.roots] == ["resolve"]
        phases = [s.name for s in rebuilt.roots[0].children]
        for phase in ("blocking", "graph", "bootstrap", "merge", "refine"):
            assert phase in phases
        workers = spans_named(rebuilt, "worker.")
        assert workers
        for span in workers:
            assert ancestor_names(rebuilt, span)[0] == "resolve"

    def test_crash_mid_resolve_leaves_parseable_trace(self, stem, tmp_path):
        """FaultInjector kills scoring mid-run; every span closed before
        the crash must still be on disk and linkable (satellite b)."""
        out, trace_path = tmp_path / "graph.json", tmp_path / "trace.jsonl"
        with injected("similarity.compare:error:after=100:times=1"):
            with pytest.raises(InjectedFault):
                main([
                    "resolve", "--data", str(stem), "--workers", "0",
                    "--out", str(out), "--trace-out", str(trace_path),
                ])
        assert not out.exists()
        rebuilt = read_trace_jsonl(trace_path)  # parses despite the crash
        names = {span.name for _, span in rebuilt.walk()}
        assert "blocking" in names  # completed before scoring crashed
        # The escaping fault is recorded on the aborted spans.
        errored = {s.name for _, s in rebuilt.walk() if s.error == "InjectedFault"}
        assert "resolve" in errored
