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
from repro.core.dependency_graph import DependencyGraph, RelationalNode
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
    # processed, so each group's alive nodes are found once, here.  Most
    # groups hold one node, which is kept as is rather than in a list;
    # groups with no alive node would sort last and be skipped anyway.
    nodes_of = graph.nodes
    alive: list = []
    flat: list[RelationalNode] = []
    sizes: list[int] = []
    for group in graph.groups.values():
        nodes = [
            node
            for node in map(nodes_of.__getitem__, group.node_keys)
            if not node.merged
        ]
        if nodes:
            alive.append(nodes if len(nodes) > 1 else nodes[0])
            flat += nodes
            sizes.append(len(nodes))
    # Priority: group size, then mean combined similarity.  The queue is
    # static (merging never creates groups), so a stable sort is the
    # priority queue: lexsort keeps equal keys in group order, as
    # ``sorted(..., reverse=True)`` of (size, mean) tuples would.
    size = np.array(sizes, dtype=np.int64)
    mean = _group_means(scorer.combined_similarities(flat), size)
    order = np.lexsort((-mean, -size)).tolist()
    del flat, sizes, size, mean

    record = graph.dataset.record
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
        node = alive[index]
        if type(node) is list:
            merged = _process_group(
                node, graph, store, scorer, checker, config, metrics, observe_gate
            )
            groups_merged += merged > 0
            merged_count += merged
            continue
        # A lone node: the REL loop's calls for a one-node group, in its
        # order, without the loop.  It is gated on its combined or atomic
        # similarity (``gate_on_combined``, see ``_process_group``), and
        # a node the loop would drop ends the group.
        rid_a, rid_b = node.rid_a, node.rid_b
        a, b = record(rid_a), record(rid_b)
        if not (can_merge(store, a, b) or same_entity(rid_a, rid_b)):
            continue
        if propagate is not None:
            propagate(graph, node, store)
        if has_must_evidence is not None and not has_must_evidence(node):
            continue
        gate = atomic_similarity(node)
        if gate_similarity is not None:
            gate = gate_similarity(node)
        if observe_gate is not None:
            observe_gate(gate)
        if gate >= threshold and (
            same_entity(rid_a, rid_b) or can_merge(store, a, b)
        ):
            store.merge(rid_a, rid_b)
            node.merged = True
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
    nodes: list[RelationalNode],
    graph: DependencyGraph,
    store: EntityStore,
    scorer: PairScorer,
    checker: ConstraintChecker,
    config: SnapsConfig,
    metrics: "MetricsRegistry | None" = None,
    observe_gate: "Callable[[float], None] | None" = None,
) -> int:
    """Apply the REL loop to one group; return nodes merged.

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
    record = graph.dataset.record
    can_merge = checker.can_merge
    same_entity = store.same_entity
    disagreements = 0
    while nodes:
        valid = [
            node
            for node in nodes
            if can_merge(store, record(node.rid_a), record(node.rid_b))
            or same_entity(node.rid_a, node.rid_b)
        ]
        if len(valid) < len(nodes):
            if not use_rel:
                return 0  # a violating node blocks the whole group
            nodes = valid
            continue
        if config.use_propagation:
            for node in valid:
                scorer.propagate_values(graph, node, store)
        if use_rel:
            supported: list[RelationalNode] = []
            unsupported: list[RelationalNode] = []
            for node in valid:
                if scorer.has_must_evidence(node):
                    supported.append(node)
                else:
                    unsupported.append(node)
            if unsupported:
                # REL's node-dropping: nodes without Must-attribute
                # evidence may never merge.  A node whose Must values are
                # present on both sides yet dissimilar is *active
                # disagreement*; one with a missing Must value is merely
                # uninformative and is dropped silently.  Without REL the
                # weak node stays and drags the group average down — the
                # paper's partial-match-group failure mode.
                disagreements += sum(
                    1
                    for n in unsupported
                    if _must_values_disagree(graph, scorer, n)
                )
                nodes = supported
                continue
        atomic = [scorer.atomic_similarity(n) for n in valid]
        if use_rel and len(valid) > 1 and min(atomic) < config.node_floor:
            # A clearly-dissimilar node (a sibling pair, say) must not be
            # dragged into a merge by an otherwise-strong group.
            kept = [n for n, s in zip(valid, atomic) if s >= config.node_floor]
            disagreements += sum(
                1
                for n, s in zip(valid, atomic)
                if s < config.node_floor and _must_values_disagree(graph, scorer, n)
            )
            nodes = kept
            continue
        if disagreements >= len(valid):
            return 0
        if len(valid) >= 2:
            mean_gate = sum(atomic) / len(atomic)
        elif config.gate_on_combined:
            mean_gate = scorer.combined_similarity(valid[0])
        else:
            mean_gate = atomic[0]
        if observe_gate is not None:
            observe_gate(mean_gate)
        if mean_gate >= config.merge_threshold:
            merged = 0
            for node in valid:
                if same_entity(node.rid_a, node.rid_b) or can_merge(
                    store, record(node.rid_a), record(node.rid_b)
                ):
                    store.merge(node.rid_a, node.rid_b)
                    node.merged = True
                    merged += 1
            return merged
        if not use_rel or len(valid) == 1:
            return 0
        # Drop the weakest node by combined similarity (ambiguous pairs
        # are least trustworthy) and retry with the rest.
        combined = [scorer.combined_similarity(n) for n in valid]
        weakest = min(range(len(valid)), key=lambda i: combined[i])
        if _must_values_disagree(graph, scorer, valid[weakest]):
            disagreements += 1
        if metrics is not None:
            metrics.inc("merging.nodes_dropped")
        nodes = valid[:weakest] + valid[weakest + 1 :]
    return 0


def _must_values_disagree(
    graph: DependencyGraph, scorer: PairScorer, node: RelationalNode
) -> bool:
    """True when the node's records both carry a Must attribute (of the
    scorer's schema) whose best similarity still falls below the atomic
    threshold — active negative evidence, as opposed to mere missing
    values."""
    a, b = graph.records_of(node)
    for attribute in scorer.must_names:
        value_a, value_b = a.get(attribute), b.get(attribute)
        if value_a is None or value_b is None:
            continue
        if attribute in node.atomic:
            continue  # an atomic node exists, so the values agree
        return True
    return False
