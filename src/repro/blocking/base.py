"""Blocker protocol and helpers shared by all blocking strategies."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Protocol

import numpy as np

from repro.data.records import Record

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["Blocker", "block_key_pairs", "block_pair_array", "BLOCK_SIZE_BUCKETS"]

# Upper bounds for the block-size histogram: 1, 2, 4, ... 4096 members.
BLOCK_SIZE_BUCKETS = [float(2**i) for i in range(13)]


class Blocker(Protocol):
    """Strategy mapping each record to one or more block keys.

    Records sharing at least one block key become candidate pairs.  A
    record mapped to no keys is never compared (this happens for records
    whose blocking attributes are all missing).
    """

    def block_keys(self, record: Record) -> list[str]:
        """Block keys for ``record``."""
        ...


def block_pair_array(
    records: Iterable[Record],
    blocker: Blocker,
    metrics: "MetricsRegistry | None" = None,
) -> np.ndarray:
    """Unique unordered record-id pairs sharing a block key.

    Returns an ``(n, 2)`` int64 array of ``(low_id, high_id)`` rows.
    Blocks are visited in order of their first key, and each block's
    sorted members yield their ``i < j`` pairs; a pair sharing several
    blocks keeps its first position only.  The whole enumeration is one
    array pass: every block's pairs are laid out flat, then
    ``np.unique(..., return_index=True)`` finds each pair's first
    occurrence.

    ``metrics``, when given, receives the block-size distribution
    (``blocking.block_size`` histogram, one observation per block) and
    ``blocking.blocks`` / ``blocking.raw_pairs`` counters.
    """
    blocks: dict[str, list[int]] = {}
    for record in records:
        for key in blocker.block_keys(record):
            blocks.setdefault(key, []).append(record.record_id)
    if metrics is not None:
        metrics.inc("blocking.blocks", len(blocks))
        histogram = metrics.histogram("blocking.block_size", BLOCK_SIZE_BUCKETS)
        for members in blocks.values():
            histogram.observe(len(members))
    sizes = np.fromiter(map(len, blocks.values()), dtype=np.int64, count=len(blocks))
    members = np.fromiter(
        (rid for block in blocks.values() for rid in block),
        dtype=np.int64,
        count=int(sizes.sum()),
    )
    # Sort each block's members in place: by block, then by record id.
    block_of = np.repeat(np.arange(len(sizes)), sizes)
    members = members[np.lexsort((members, block_of))]
    # Member t of a block pairs with every later member of its block:
    # lay those runs out flat, in block order, i-major.
    ends = np.repeat(np.cumsum(sizes), sizes)
    runs = ends - np.arange(len(members)) - 1
    left = np.repeat(np.arange(len(members)), runs)
    run_starts = np.repeat(np.cumsum(runs) - runs, runs)
    right = left + 1 + (np.arange(len(left)) - run_starts)
    del ends, runs, run_starts
    # Dense codes keep (low, high) order and bound the pair key.
    ids, codes = np.unique(members, return_inverse=True)
    codes = codes.reshape(-1)
    _, first = np.unique(
        codes[left] * len(ids) + codes[right], return_index=True
    )
    first.sort()
    pairs = np.empty((len(first), 2), dtype=np.int64)
    pairs[:, 0] = members[left[first]]
    pairs[:, 1] = members[right[first]]
    if metrics is not None:
        metrics.inc("blocking.raw_pairs", len(pairs))
    return pairs


def block_key_pairs(
    records: Iterable[Record],
    blocker: Blocker,
    metrics: "MetricsRegistry | None" = None,
) -> Iterator[tuple[int, int]]:
    """Yield the rows of :func:`block_pair_array` as ``(low_id, high_id)``
    tuples of Python ints, in the same order."""
    pairs = block_pair_array(records, blocker, metrics)
    yield from zip(pairs[:, 0].tolist(), pairs[:, 1].tolist())
