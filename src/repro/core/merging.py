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

from typing import TYPE_CHECKING

from repro.core.config import SnapsConfig
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import DependencyGraph, RelationalNode
from repro.core.entities import EntityStore
from repro.core.scoring import PairScorer
from repro.obs.metrics import SIMILARITY_BUCKETS

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
    priorities: list[tuple[int, float]] = []
    for group in graph.groups.values():
        nodes = [
            node
            for node in map(nodes_of.__getitem__, group.node_keys)
            if not node.merged
        ]
        if not nodes:
            continue
        # Priority: group size, then mean combined similarity.  The queue
        # is static (merging never creates groups), so a stably sorted
        # list is the priority queue.
        mean = sum(scorer.combined_similarity(n) for n in nodes) / len(nodes)
        priorities.append((len(nodes), mean))
        alive.append(nodes if len(nodes) > 1 else nodes[0])
    order = sorted(range(len(alive)), key=priorities.__getitem__, reverse=True)
    del priorities
    merged_count = groups_merged = 0
    for index in order:
        nodes = alive[index]
        merged = _process_group(
            nodes if type(nodes) is list else [nodes],
            graph,
            store,
            scorer,
            checker,
            config,
            metrics,
        )
        groups_merged += merged > 0
        merged_count += merged
    if metrics is not None:
        # Group outcomes are counted once, at the end; a counter is
        # created only when it is non-zero.
        if groups_merged:
            metrics.inc("merging.groups_merged", groups_merged)
        if len(order) > groups_merged:
            metrics.inc("merging.groups_rejected", len(order) - groups_merged)
        metrics.inc("merging.nodes_merged", merged_count)
    return merged_count


def _process_group(
    nodes: list[RelationalNode],
    graph: DependencyGraph,
    store: EntityStore,
    scorer: PairScorer,
    checker: ConstraintChecker,
    config: SnapsConfig,
    metrics: "MetricsRegistry | None" = None,
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
        if metrics is not None:
            metrics.observe("similarity.merge_gate", mean_gate, SIMILARITY_BUCKETS)
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
