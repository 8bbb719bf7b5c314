"""Worker-side chunk function for parallel blocking.

A worker process owns one module-level payload (dataset + config +
fingerprint) and lazily builds its context from it once: a
column-oriented record table for vectorised predicates.  Under a
``fork`` start method the payload is inherited from the parent for
free; under ``spawn`` it is shipped once via the pool initializer.
Either way the per-chunk task messages carry only an ``(n, 2)`` pair-id
array plus the config fingerprint, which every chunk verifies against
its context (a stale worker must fail loudly, never filter under the
wrong configuration).

The pair filters are numpy boolean masks over integer record columns
(certificate ids, role codes, gender codes, birth-year bounds) — integer
comparisons are exact, so the masks equal the serial per-pair
predicates decision for decision.
"""

from __future__ import annotations

import time

import numpy as np

from repro.blocking.candidates import RecordTable, pair_masks
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.trace import context_span

__all__ = ["filter_pairs_chunk", "set_payload"]

# Rejection counters in the order generate_candidate_pairs applies them.
REJECT_KEYS = ("same_cert", "role", "same_census", "gender", "temporal")

_PAYLOAD: dict | None = None
_CONTEXT: "_Context | None" = None


def set_payload(payload: dict | None) -> None:
    """Install the worker payload (idempotent on the same object).

    Also the pool initializer for start methods that cannot inherit
    globals.
    """
    global _PAYLOAD, _CONTEXT
    if payload is _PAYLOAD:
        return
    _PAYLOAD = payload
    _CONTEXT = None


class _Context:
    """Per-process filter context, built once from the payload."""

    def __init__(self, payload: dict) -> None:
        self.fingerprint: str = payload["fingerprint"]
        self.dataset = payload["dataset"]
        self.config = payload["config"]
        self._table: RecordTable | None = None

    @property
    def table(self) -> RecordTable:
        """The record table; like the serial filters, it needs every
        record's ``birth_range()``."""
        if self._table is None:
            table = RecordTable(list(self.dataset))
            if table.error is not None:
                raise table.error
            self._table = table
        return self._table


def _context(fingerprint: str) -> _Context:
    global _CONTEXT
    if _PAYLOAD is None:
        raise RuntimeError("worker has no payload installed")
    if _CONTEXT is None:
        _CONTEXT = _Context(_PAYLOAD)
    if _CONTEXT.fingerprint != fingerprint:
        raise RuntimeError(
            f"task fingerprint {fingerprint!r} does not match worker "
            f"payload {_CONTEXT.fingerprint!r}"
        )
    return _CONTEXT


def _finish(task: dict, result: dict, counters: dict[str, int]) -> dict:
    """Attach the telemetry the parent asked for to a chunk result.

    When the task carries a trace context, a detached ``worker.filter``
    span (pid/chunk/pairs annotated, elapsed = chunk wall time) rides
    home as a dict; when ``collect`` is set, a fresh
    :class:`MetricsRegistry` of this chunk's deltas does too.  The
    parent grafts/merges both — see ``TaskRunner._absorb``.
    """
    elapsed = result["elapsed"]
    ctx = task.get("ctx")
    if ctx is not None:
        span = context_span(
            ctx,
            f"worker.filter.chunk{task['chunk']}",
            chunk=task["chunk"],
            pairs=len(task["pairs"]),
        )
        span.elapsed = elapsed
        result["span"] = span.as_dict()
    if task.get("collect"):
        deltas = MetricsRegistry()
        for name, n in counters.items():
            if n:
                deltas.inc(name, n)
        deltas.observe("parallel.worker.chunk_seconds", elapsed, LATENCY_BUCKETS_S)
        result["wmetrics"] = deltas
    return result


def filter_pairs_chunk(task: dict) -> dict:
    """Apply the candidate-pair filters to one chunk of raw block pairs.

    Mirrors :func:`repro.blocking.candidates.generate_candidate_pairs`
    filter for filter, in order, returning the surviving rows of the
    chunk's ``(n, 2)`` pair array and the per-filter rejection counts
    the serial path would have emitted.
    """
    ctx = _context(task["fingerprint"])
    started = time.perf_counter()
    pairs = np.asarray(task["pairs"], dtype=np.int64).reshape(-1, 2)
    rejected = dict.fromkeys(REJECT_KEYS, 0)
    kept = pairs
    if len(pairs):
        table = ctx.table
        ia, ib = table.rows(pairs[:, 0]), table.rows(pairs[:, 1])
        masks = pair_masks(table, ia, ib, ctx.config.temporal_slack_years)
        alive = np.ones(len(pairs), dtype=bool)
        for name, mask in zip(REJECT_KEYS, masks):
            hits = mask & alive
            rejected[name] = int(hits.sum())
            alive &= ~mask
        kept = pairs[alive]
    result = {
        "chunk": task["chunk"],
        "elapsed": time.perf_counter() - started,
        "kept": kept,
        "rejected": rejected,
    }
    return _finish(
        task,
        result,
        {
            "parallel.worker.pairs_in": len(pairs),
            "parallel.worker.pairs_kept": len(kept),
        },
    )
