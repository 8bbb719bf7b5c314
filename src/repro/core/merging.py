"""Iterative merging: priority-queue processing of node groups.

Paper Section 4.2.6.  The queue holds all relational node groups, larger
groups first, ties broken by higher average node similarity — with AMB
enabled the average uses the combined similarity of Eq. (3), so groups of
*unambiguous* (rare-name) pairs are processed before ambiguous ones and
their links constrain later decisions (this ordering effect is AMB's main
contribution; see DESIGN.md "Deviations").

Processing one group (the REL technique, Section 4.2.4):

1. drop nodes violating temporal/link constraints against the current
   entities (PROP-C as negative evidence);
2. re-point each remaining node's atomic nodes against the entities'
   accumulated QID values (PROP-A as positive evidence);
3. if the group's mean gate similarity reaches ``t_m`` merge every node,
   otherwise remove the lowest-scoring node and repeat, until a merge
   happens or the group is exhausted.

Without REL, a group either merges in full on first evaluation or not at
all — partial-match groups (a sibling node dragging the average down)
then block their parents' merge, which is exactly the Table 3 ablation
result (Bp-Dp quality collapses to zero).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.config import SnapsConfig
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import DependencyGraph
from repro.core.entities import EntityStore
from repro.core.scoring import PairScorer
from repro.obs.metrics import SIMILARITY_BUCKETS
from repro.utils.sums import builtin_sum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.obs.metrics import MetricsRegistry

__all__ = ["iterative_merge"]


def iterative_merge(
    graph: DependencyGraph,
    store: EntityStore,
    scorer: PairScorer,
    checker: ConstraintChecker,
    config: SnapsConfig,
    metrics: "MetricsRegistry | None" = None,
) -> int:
    """Run the merging step over all groups; return nodes merged.

    ``metrics`` receives per-group outcome counters (groups merged /
    rejected, nodes dropped) and the distribution of gate similarities
    (``similarity.merge_gate``) already computed by the REL loop.
    """
    # A node's ``merged`` flag changes only while its own group is
    # processed, so each group's alive nodes are found once, here, in one
    # pass; groups with no alive node would sort last and be skipped
    # anyway, so they are left out.
    flat, sizes = graph.alive_groups()
    # Priority: group size, then mean combined similarity.  The queue is
    # static (merging never creates groups), so a stable sort is the
    # priority queue: lexsort keeps equal keys in group order, as
    # ``sorted(..., reverse=True)`` of (size, mean) tuples would.
    mean = _group_means(scorer.combined_similarities(graph, flat), sizes)
    # The loop reads the arrays through memoryviews, whose items are
    # Python ints, rather than holding a list of ints per node.
    order = memoryview(np.lexsort((-mean, -sizes)))
    starts = memoryview(np.cumsum(sizes) - sizes)
    sizes, flat = memoryview(sizes), memoryview(flat)
    del mean

    key = graph.key
    record = graph.dataset.record
    merged_flags = graph.merged
    can_merge = checker.can_merge
    same_entity = store.same_entity
    propagate = scorer.propagate_values if config.use_propagation else None
    has_must_evidence = scorer.has_must_evidence if config.use_relational else None
    atomic_similarity = scorer.atomic_similarity
    gate_similarity = (
        scorer.combined_similarity if config.gate_on_combined else None
    )
    threshold = config.merge_threshold
    observe_gate = None
    if metrics is not None:
        gate_histogram = None

        def observe_gate(value: float) -> None:
            # The histogram handle is fetched once, on the first gate.
            nonlocal gate_histogram
            if gate_histogram is None:
                gate_histogram = metrics.histogram(
                    "similarity.merge_gate", SIMILARITY_BUCKETS
                )
            gate_histogram.observe(value)

    merged_count = groups_merged = 0
    for index in order:
        start = starts[index]
        if sizes[index] > 1:
            merged = _process_group(
                flat[start : start + sizes[index]].tolist(),
                graph,
                store,
                scorer,
                checker,
                config,
                metrics,
                observe_gate,
            )
            groups_merged += merged > 0
            merged_count += merged
            continue
        # A lone node: the REL loop's calls for a one-node group, in its
        # order, without the loop.  It is gated on its combined or atomic
        # similarity (``gate_on_combined``, see ``_process_group``), and
        # a node the loop would drop ends the group.
        k = flat[start]
        rid_a, rid_b = key(k)
        a, b = record(rid_a), record(rid_b)
        if not (can_merge(store, a, b, k) or same_entity(rid_a, rid_b)):
            continue
        if propagate is not None:
            propagate(graph, k, store)
        if has_must_evidence is not None and not has_must_evidence(graph, k):
            continue
        gate = atomic_similarity(graph, k)
        if gate_similarity is not None:
            gate = gate_similarity(graph, k)
        if observe_gate is not None:
            observe_gate(gate)
        if gate >= threshold and (
            same_entity(rid_a, rid_b) or can_merge(store, a, b, k)
        ):
            store.merge(rid_a, rid_b)
            merged_flags[k] = True
            groups_merged += 1
            merged_count += 1
    if metrics is not None:
        # Group outcomes are counted once, at the end; a counter is
        # created only when it is non-zero.
        if groups_merged:
            metrics.inc("merging.groups_merged", groups_merged)
        if len(order) > groups_merged:
            metrics.inc("merging.groups_rejected", len(order) - groups_merged)
        metrics.inc("merging.nodes_merged", merged_count)
    return merged_count


def _group_means(combined: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each group's ``sum(similarities) / len(group)``, bit for bit.

    ``combined`` lists the groups' node similarities one group after
    another.  A lone node's mean is its similarity (``sum([x]) / 1`` is
    ``x``).  For larger groups, column ``j`` holds each group's ``j``-th
    similarity (0.0 past its end), and the columns are summed as builtin
    ``sum()`` adds a group's similarities in order.
    """
    starts = np.cumsum(sizes) - sizes
    means = combined[starts]
    multi = np.flatnonzero(sizes > 1)
    if len(multi):
        first, size = starts[multi], sizes[multi]
        columns = []
        for j in range(int(size.max())):
            rows = np.flatnonzero(size > j)
            column = np.zeros(len(multi), dtype=np.float64)
            column[rows] = combined[first[rows] + j]
            columns.append(column)
        means[multi] = builtin_sum(columns) / size
    return means


def _process_group(
    nodes: list[int],
    graph: DependencyGraph,
    store: EntityStore,
    scorer: PairScorer,
    checker: ConstraintChecker,
    config: SnapsConfig,
    metrics: "MetricsRegistry | None" = None,
    observe_gate: "Callable[[float], None] | None" = None,
) -> int:
    """Apply the REL loop to the group of node ids ``nodes``; return
    nodes merged.

    Gate policy: a group of two or more mutually-supporting nodes is
    gated on its mean atomic similarity (Eq. 1) — relationship structure
    substitutes for disambiguation evidence.  A lone node has no such
    support, so it is gated on the combined similarity (Eq. 3): an
    ambiguous pair on its own cannot merge, however well its names agree.
    """
    use_rel = config.use_relational
    # Nodes removed because their records *actively disagree* (both Must
    # values present yet dissimilar) are remembered as negative evidence:
    # if the disagreeing nodes come to outnumber the survivors, the group
    # is rejected.  This separates the sibling case (one sibling node vs
    # two agreeing parent nodes → merge parents) from the father-and-son
    # namesake case (one agreeing father node vs one disagreeing wife
    # node → no merge).
    key = graph.key
    record = graph.dataset.record
    can_merge = checker.can_merge
    same_entity = store.same_entity

    def mergeable(k: int) -> bool:
        rid_a, rid_b = key(k)
        return can_merge(store, record(rid_a), record(rid_b), k) or same_entity(
            rid_a, rid_b
        )

    disagreements = 0
    while nodes:
        valid = [k for k in nodes if mergeable(k)]
        if len(valid) < len(nodes):
            if not use_rel:
                return 0  # a violating node blocks the whole group
            nodes = valid
            continue
        if config.use_propagation:
            for k in valid:
                scorer.propagate_values(graph, k, store)
        if use_rel:
            supported: list[int] = []
            unsupported: list[int] = []
            for k in valid:
                if scorer.has_must_evidence(graph, k):
                    supported.append(k)
                else:
                    unsupported.append(k)
            if unsupported:
                # REL's node-dropping: nodes without Must-attribute
                # evidence may never merge.  A node whose Must values are
                # present on both sides yet dissimilar is *active
                # disagreement*; one with a missing Must value is merely
                # uninformative and is dropped silently.  Without REL the
                # weak node stays and drags the group average down — the
                # paper's partial-match-group failure mode.
                disagreements += sum(
                    1 for k in unsupported if _must_values_disagree(graph, scorer, k)
                )
                nodes = supported
                continue
        atomic = [scorer.atomic_similarity(graph, k) for k in valid]
        if use_rel and len(valid) > 1 and min(atomic) < config.node_floor:
            # A clearly-dissimilar node (a sibling pair, say) must not be
            # dragged into a merge by an otherwise-strong group.
            kept = [k for k, s in zip(valid, atomic) if s >= config.node_floor]
            disagreements += sum(
                1
                for k, s in zip(valid, atomic)
                if s < config.node_floor and _must_values_disagree(graph, scorer, k)
            )
            nodes = kept
            continue
        if disagreements >= len(valid):
            return 0
        if len(valid) >= 2:
            mean_gate = sum(atomic) / len(atomic)
        elif config.gate_on_combined:
            mean_gate = scorer.combined_similarity(graph, valid[0])
        else:
            mean_gate = atomic[0]
        if observe_gate is not None:
            observe_gate(mean_gate)
        if mean_gate >= config.merge_threshold:
            merged = 0
            for k in valid:
                rid_a, rid_b = key(k)
                if same_entity(rid_a, rid_b) or can_merge(
                    store, record(rid_a), record(rid_b), k
                ):
                    store.merge(rid_a, rid_b)
                    graph.merged[k] = True
                    merged += 1
            return merged
        if not use_rel or len(valid) == 1:
            return 0
        # Drop the weakest node by combined similarity (ambiguous pairs
        # are least trustworthy) and retry with the rest.
        combined = [scorer.combined_similarity(graph, k) for k in valid]
        weakest = min(range(len(valid)), key=lambda i: combined[i])
        if _must_values_disagree(graph, scorer, valid[weakest]):
            disagreements += 1
        if metrics is not None:
            metrics.inc("merging.nodes_dropped")
        nodes = valid[:weakest] + valid[weakest + 1 :]
    return 0


def _must_values_disagree(graph: DependencyGraph, scorer: PairScorer, k: int) -> bool:
    """True when node ``k``'s records both carry a Must attribute (of the
    scorer's schema) whose best similarity still falls below the atomic
    threshold — active negative evidence, as opposed to mere missing
    values."""
    a, b = graph.records_of(k)
    views = graph.atom_view
    for attribute in scorer.must_names:
        value_a, value_b = a.get(attribute), b.get(attribute)
        if value_a is None or value_b is None:
            continue
        if views[attribute][k] >= 0:
            continue  # an atomic node exists, so the values agree
        return True
    return False
