"""Rel-Cluster baseline: Bhattacharya & Getoor (TKDD 2007)-style
collective relational clustering.

Entities are clusters; candidate cluster pairs are scored with a convex
combination of **attribute similarity** (on the records' *static* values
— no propagation of changed values) and **relational similarity** (Jaccard
overlap of the clusters' neighbour-cluster sets, where neighbours are the
co-occurring people on the same certificates).  Ambiguity is incorporated
in the attribute component exactly as SNAPS's Eq. (2)/(3).  The queue is
processed greedily best-first and merges update the relational
neighbourhoods of affected clusters — the iterative cluster-merging
process of the original paper, and also why this baseline is the slowest
unsupervised system in Table 5.

Differences from SNAPS (per the paper's Section 10 discussion): no
propagation of changing QID values, no partial-match-group handling, no
wrong-link refinement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.blocking.candidates import generate_candidate_pairs
from repro.blocking.composite import CompositeBlocker, PhoneticNameKeyBlocker
from repro.blocking.lsh import LshBlocker
from repro.core.config import SnapsConfig
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import build_dependency_graph
from repro.core.entities import EntityStore
from repro.core.scoring import PairScorer
from repro.data.records import Dataset
from repro.data.roles import PARENT_ROLE_GROUPS
from repro.similarity.registry import ComparatorRegistry, default_registry
from repro.utils.timer import Stopwatch

__all__ = ["RelClusterLinker", "RelClusterResult"]


@dataclass
class RelClusterResult:
    """Final clustering produced by the relational clustering loop."""

    dataset: Dataset
    entities: EntityStore
    timings: Stopwatch = field(default_factory=Stopwatch)
    merges: int = 0

    def matched_pairs(self, role_pair: str) -> set[tuple[int, int]]:
        left, right = role_pair.split("-")
        return self.entities.matched_pairs(
            PARENT_ROLE_GROUPS[left], PARENT_ROLE_GROUPS[right]
        )


class RelClusterLinker:
    """Greedy best-first collective relational clustering."""

    def __init__(
        self,
        threshold: float = 0.80,
        alpha: float = 0.7,
        config: SnapsConfig | None = None,
        registry: ComparatorRegistry | None = None,
    ) -> None:
        """``alpha`` weights attribute vs relational similarity;
        ``threshold`` is the minimum combined score for a merge."""
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.alpha = alpha
        self.config = config or SnapsConfig()
        self.registry = registry or default_registry()

    # ------------------------------------------------------------------

    def link(self, dataset: Dataset) -> RelClusterResult:
        config = self.config
        timings = Stopwatch()
        blocker = CompositeBlocker(
            [
                LshBlocker(
                    n_bands=config.lsh_bands,
                    rows_per_band=config.lsh_rows_per_band,
                    seed=config.lsh_seed,
                ),
                PhoneticNameKeyBlocker(),
            ]
        )
        with timings.phase("blocking"):
            pairs = list(
                generate_candidate_pairs(dataset, blocker, config.temporal_slack_years)
            )
        with timings.phase("graph_generation"):
            graph = build_dependency_graph(dataset, pairs, config, self.registry)
        scorer = PairScorer(dataset, config, self.registry)
        checker = ConstraintChecker(config.temporal_slack_years, propagate=True)
        store = EntityStore(dataset)
        # Certificate co-occurrence neighbourhood of each record.
        neighbours: dict[int, set[int]] = {r.record_id: set() for r in dataset}
        for cert in dataset.certificates.values():
            rids = list(cert.roles.values())
            for a, b in itertools.combinations(rids, 2):
                neighbours[a].add(b)
                neighbours[b].add(a)
        merges = 0
        with timings.phase("clustering"):
            # Bootstrap phase (Bhattacharya & Getoor seed their clustering
            # with exact/near-exact attribute matches): merge pairs whose
            # attribute+ambiguity score alone clears the threshold.  This
            # gives the relational component non-empty neighbourhoods.
            scored: list[tuple[float, int, int]] = []
            for k, (rid_a, rid_b) in enumerate(graph.keys()):
                base = scorer.combined_similarity(graph, k)
                if base >= self.threshold - (1.0 - self.alpha):
                    scored.append((base, rid_a, rid_b))
            scored.sort(reverse=True)
            for base, rid_a, rid_b in scored:
                if base < self.threshold:
                    break
                if store.same_entity(rid_a, rid_b):
                    continue
                a, b = dataset.record(rid_a), dataset.record(rid_b)
                if checker.can_merge(store, a, b):
                    store.merge(rid_a, rid_b)
                    merges += 1
            # Iterative phase: relational evidence lifts borderline pairs
            # over the threshold; repeat until no merge changes anything.
            changed = True
            while changed:
                changed = False
                for base, rid_a, rid_b in scored:
                    if store.same_entity(rid_a, rid_b):
                        continue
                    a, b = dataset.record(rid_a), dataset.record(rid_b)
                    if not checker.can_merge(store, a, b):
                        continue
                    relational = self._relational_similarity(
                        store, neighbours, rid_a, rid_b
                    )
                    score = self.alpha * base + (1.0 - self.alpha) * relational
                    if score >= self.threshold:
                        store.merge(rid_a, rid_b)
                        merges += 1
                        changed = True
        return RelClusterResult(
            dataset=dataset, entities=store, timings=timings, merges=merges
        )

    def _relational_similarity(
        self,
        store: EntityStore,
        neighbours: dict[int, set[int]],
        rid_a: int,
        rid_b: int,
    ) -> float:
        """Jaccard overlap of the two clusters' neighbour-cluster sets."""
        entity_a = store.entity_of(rid_a)
        entity_b = store.entity_of(rid_b)
        clusters_a = self._neighbour_clusters(store, neighbours, entity_a.record_ids)
        clusters_b = self._neighbour_clusters(store, neighbours, entity_b.record_ids)
        if not clusters_a and not clusters_b:
            return 0.0
        union = clusters_a | clusters_b
        if not union:
            return 0.0
        return len(clusters_a & clusters_b) / len(union)

    @staticmethod
    def _neighbour_clusters(
        store: EntityStore, neighbours: dict[int, set[int]], record_ids: set[int]
    ) -> set[int]:
        out: set[int] = set()
        for rid in record_ids:
            for neighbour_rid in neighbours[rid]:
                out.add(store.entity_of(neighbour_rid).entity_id)
        return out
