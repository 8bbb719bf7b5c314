"""Attr-Sim baseline: traditional pairwise record linkage.

Every blocked candidate pair is scored with the weighted attribute
similarity of Eq. (1) on the raw record values; pairs at or above the
threshold are classified matches and closed transitively (an entity is a
connected component of match decisions).  No relationship information, no
constraints beyond the structural role/gender/temporal candidate filters,
no propagation — the paper's Table 4 shows this keeps recall high but
destroys precision on ambiguous person data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.blocking.candidates import generate_candidate_pairs
from repro.blocking.composite import CompositeBlocker, PhoneticNameKeyBlocker
from repro.blocking.lsh import LshBlocker
from repro.core.config import SnapsConfig
from repro.core.dependency_graph import build_dependency_graph
from repro.core.scoring import PairScorer
from repro.data.records import Dataset
from repro.data.roles import PARENT_ROLE_GROUPS
from repro.similarity.registry import ComparatorRegistry, default_registry
from repro.utils.timer import Stopwatch
from repro.utils.union_find import UnionFind

__all__ = ["AttrSimLinker", "AttrSimResult"]


@dataclass
class AttrSimResult:
    """Entities as connected components of threshold match decisions."""

    dataset: Dataset
    components: UnionFind
    timings: Stopwatch = field(default_factory=Stopwatch)

    def matched_pairs(self, role_pair: str) -> set[tuple[int, int]]:
        """Within-component record pairs restricted to ``role_pair``."""
        left_name, right_name = role_pair.split("-")
        left = PARENT_ROLE_GROUPS[left_name]
        right = PARENT_ROLE_GROUPS[right_name]
        groups = self.components.groups()
        pairs: set[tuple[int, int]] = set()
        for members in groups.values():
            if len(members) < 2:
                continue
            records = [self.dataset.record(rid) for rid in members]
            for i, a in enumerate(records):
                for b in records[i + 1 :]:
                    if (a.role in left and b.role in right) or (
                        a.role in right and b.role in left
                    ):
                        lo, hi = sorted((a.record_id, b.record_id))
                        pairs.add((lo, hi))
        return pairs


class AttrSimLinker:
    """Pairwise weighted-similarity linkage with transitive closure."""

    def __init__(
        self,
        threshold: float = 0.85,
        config: SnapsConfig | None = None,
        registry: ComparatorRegistry | None = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.config = config or SnapsConfig()
        self.registry = registry or default_registry()

    def link(self, dataset: Dataset) -> AttrSimResult:
        """Classify all candidate pairs and close transitively."""
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
                generate_candidate_pairs(
                    dataset, blocker, config.temporal_slack_years
                )
            )
        with timings.phase("comparison"):
            graph = build_dependency_graph(dataset, pairs, config, self.registry)
            scorer = PairScorer(dataset, config, self.registry)
        components: UnionFind = UnionFind(r.record_id for r in dataset)
        with timings.phase("classification"):
            for k, (rid_a, rid_b) in enumerate(graph.keys()):
                if scorer.atomic_similarity(graph, k) >= self.threshold:
                    components.union(rid_a, rid_b)
        return AttrSimResult(dataset=dataset, components=components, timings=timings)
