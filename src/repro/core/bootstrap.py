"""Bootstrapping: merge the very-high-confidence node groups first.

Paper Section 4.2.6: "merge only nodes in groups (leaving the singletons),
where the average atomic similarities of all nodes in a group must be at
least the bootstrap threshold t_b = 0.95".  Groups carry more relationship
evidence than individual nodes, so only multi-node groups qualify at this
stage; constraints are still validated (a group can be near-identical yet
biologically impossible).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import SnapsConfig
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import DependencyGraph
from repro.core.entities import EntityStore
from repro.core.scoring import PairScorer
from repro.obs.metrics import SIMILARITY_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["bootstrap_merge"]


def bootstrap_merge(
    graph: DependencyGraph,
    store: EntityStore,
    scorer: PairScorer,
    checker: ConstraintChecker,
    config: SnapsConfig,
    metrics: "MetricsRegistry | None" = None,
) -> int:
    """Merge all qualifying groups; return the number of nodes merged.

    A group qualifies when it has at least two alive nodes, every node
    passes constraint validation, and the mean atomic similarity (Eq. 1)
    reaches ``t_b``.  Without REL (ablation) the behaviour is unchanged —
    bootstrapping never drops individual nodes in the paper either.

    ``metrics`` receives the group mean-similarity distribution
    (``similarity.bootstrap_group_mean``) and merge counters — the means
    are computed anyway, so observing them costs one histogram insert.

    In a resolve both hot calls below read columns the graph build
    seeds for every worker count: ``scorer.atomic_similarity`` reads the
    node scores and ``checker.records_compatible``/``can_merge`` read the
    singleton verdicts — same numbers, same decisions, no recompute.
    """
    if metrics is not None:
        mean_histogram = metrics.histogram(
            "similarity.bootstrap_group_mean", SIMILARITY_BUCKETS
        )
    # Bootstrap marks only the nodes of the group it is processing, so
    # every group's alive nodes are found once, up front.
    alive, sizes = graph.alive_groups()
    starts = np.cumsum(sizes) - sizes
    multi = sizes > 1  # most groups hold one node: no alive pair to find
    alive = memoryview(alive)
    merged_nodes = 0
    for start, size in zip(memoryview(starts[multi]), memoryview(sizes[multi])):
        nodes = alive[start : start + size].tolist()
        mean_atomic = sum(scorer.atomic_similarity(graph, k) for k in nodes) / size
        if metrics is not None:
            mean_histogram.observe(mean_atomic)
        if mean_atomic < config.bootstrap_threshold:
            continue
        # Validate every node before touching the store: bootstrap merges
        # a group atomically or not at all.
        records = [graph.records_of(k) for k in nodes]
        if not all(
            checker.records_compatible(a, b, k) for k, (a, b) in zip(nodes, records)
        ):
            continue
        for k, (a, b) in zip(nodes, records):
            if not checker.can_merge(store, a, b, k):
                continue  # an earlier merge in this group may conflict
            store.merge(a.record_id, b.record_id)
            graph.merged[k] = True
            merged_nodes += 1
    if metrics is not None:
        metrics.inc("bootstrap.nodes_merged", merged_nodes)
    return merged_nodes
