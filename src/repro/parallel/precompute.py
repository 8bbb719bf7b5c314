"""Chunked candidate-pair filtering for the blocking phase.

Raw block pairs are filtered in deterministic chunks (optionally across
a process pool) and merged back in chunk order, so the surviving pairs,
their order and the rejection counters equal the serial
:func:`repro.blocking.candidates.generate_candidate_pairs` exactly.
"""

from __future__ import annotations

from functools import partial

from repro.blocking.base import block_pair_array
from repro.blocking.candidates import CandidatePair
from repro.core.config import SnapsConfig
from repro.data.records import Dataset
from repro.data.roles import Role
from repro.obs.metrics import MetricsRegistry, merge_counts
from repro.obs.trace import Trace
from repro.parallel import worker
from repro.parallel.config import (
    CHUNKS_PER_WORKER,
    MIN_CHUNK_SIZE,
    ParallelConfig,
)
from repro.supervise import TaskRunner

__all__ = ["build_payload", "make_tasks", "parallel_candidate_pairs"]


def make_tasks(items, workers: int, fingerprint: str) -> list[dict]:
    """Split ``items`` (a sequence or an array of pair rows) into
    contiguous, deterministic chunk tasks.

    Chunk boundaries depend only on the item count and the requested
    worker count; results are merged back in chunk order, so chunking
    never influences output — only load balance.
    """
    if not len(items):
        return []
    target = max(1, workers * CHUNKS_PER_WORKER)
    size = max(MIN_CHUNK_SIZE, -(-len(items) // target))
    return [
        {
            "chunk": index,
            "fingerprint": fingerprint,
            "pairs": items[offset : offset + size],
        }
        for index, offset in enumerate(range(0, len(items), size))
    ]


def build_payload(dataset: Dataset, config: SnapsConfig) -> dict:
    """The per-run worker payload plus its defensive fingerprint."""
    # Imported lazily: repro.store pulls in the resolver at import time.
    from repro.store.manifest import config_fingerprint

    fingerprint = f"{config_fingerprint(config)}:{dataset.name}:{len(dataset)}"
    return {"dataset": dataset, "config": config, "fingerprint": fingerprint}


def parallel_candidate_pairs(
    dataset: Dataset,
    blocker,
    config: SnapsConfig,
    workers: int,
    parallel: ParallelConfig,
    roles: list[Role] | None = None,
    trace: Trace | None = None,
    metrics: MetricsRegistry | None = None,
) -> list[CandidatePair]:
    """Blocking with vectorised signatures and chunked pair filtering.

    Emits the same pairs, in the same order, with the same metric
    totals, as :func:`repro.blocking.candidates.generate_candidate_pairs`
    over the same blocker stack.
    """
    if roles is None:
        records = list(dataset)
    else:
        records = dataset.records_with_role(roles)
    prepare = getattr(blocker, "prepare", None)
    if prepare is not None:
        prepare(records)
    raw_pairs = block_pair_array(records, blocker, metrics=metrics)
    payload = build_payload(dataset, config)
    runner = TaskRunner(
        workers,
        key="chunk",
        span="parallel.{label}.chunk{index}",
        counter="parallel.chunks",
        seconds="parallel.chunk_seconds",
        trace=trace,
        metrics=metrics,
        supervise=parallel.supervise,
        oversubscribe=parallel.oversubscribe,
        install=partial(worker.set_payload, payload),
    )
    tasks = make_tasks(raw_pairs, workers, payload["fingerprint"])
    results = runner.map(worker.filter_pairs_chunk, tasks, "filter")
    pairs: list[CandidatePair] = []
    rejected: dict[str, int] = {}
    for result in results:
        kept = result["kept"]
        pairs.extend(map(CandidatePair, kept[:, 0].tolist(), kept[:, 1].tolist()))
        for name, count in result["rejected"].items():
            rejected[name] = rejected.get(name, 0) + count
    merge_counts(metrics, rejected, prefix="blocking.rejected_")
    if metrics is not None:
        metrics.inc("blocking.candidate_pairs", len(pairs))
        total = len(records) * (len(records) - 1) // 2
        if total:
            metrics.set_gauge(
                "blocking.reduction_ratio", 1.0 - len(pairs) / total
            )
    return pairs
