"""Node similarity: Equations (1)–(3) with AMB and PROP-A.

``PairScorer`` computes, for relational node ``k`` of a dependency graph:

* the **atomic similarity** ``s_a`` (Eq. 1) — weighted combination of the
  Must/Core/Extra category averages of the node's atomic-node
  similarities;
* the **disambiguation similarity** ``s_d`` (Eq. 2) — a normalised
  inverse-document-frequency of the records' name combinations, so rare
  names carry more evidence than "John Macdonald";
* the **combined similarity** ``s = γ·s_a + (1-γ)·s_d`` (Eq. 3).

Under PROP-A the scorer first *re-points* the node's atomic nodes: each
attribute of one record is compared against **all values of the other
record's current entity**, and the best-matching value pair becomes the
node's atomic node for that attribute (the (Smith, Taylor) →
(Tayler, Taylor) example of Figure 4).  This is what lets SNAPS link a
woman's maiden-name records to her married-name records.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import SnapsConfig
from repro.core.dependency_graph import AtomicNode, DependencyGraph
from repro.core.entities import EntityStore
from repro.data.records import Dataset, Record
from repro.data.schema import AttributeCategory
from repro.faults import fire
from repro.similarity.registry import ComparatorRegistry, default_registry

__all__ = ["NameFrequencyIndex", "PairScorer"]


class NameFrequencyIndex:
    """Frequencies of name combinations, for Eq. (2).

    A record's key is its (first name, surname) pair; ``frequency``
    returns how many records in the dataset share that key.  Records with
    a missing component fall back to the frequency of the present
    component alone (ambiguity evidence degrades gracefully rather than
    vanishing).
    """

    def __init__(self, dataset: Dataset) -> None:
        self._combo: dict[tuple[str, str], int] = {}
        self._first: dict[str, int] = {}
        self._surname: dict[str, int] = {}
        for record in dataset:
            first = (record.get("first_name") or "").lower()
            surname = (record.get("surname") or "").lower()
            if first and surname:
                key = (first, surname)
                self._combo[key] = self._combo.get(key, 0) + 1
            if first:
                self._first[first] = self._first.get(first, 0) + 1
            if surname:
                self._surname[surname] = self._surname.get(surname, 0) + 1
        self.total_records = len(dataset)

    def frequency(self, record: Record) -> int:
        """Occurrences of the record's name combination (at least 1)."""
        first = (record.get("first_name") or "").lower()
        surname = (record.get("surname") or "").lower()
        if first and surname:
            return max(1, self._combo.get((first, surname), 1))
        if first:
            return max(1, self._first.get(first, 1))
        if surname:
            return max(1, self._surname.get(surname, 1))
        # No name at all: treat as maximally ambiguous.
        return max(1, self.total_records // 2)


class PairScorer:
    """Scores relational nodes per Equations (1)–(3)."""

    def __init__(
        self,
        dataset: Dataset,
        config: SnapsConfig,
        registry: ComparatorRegistry | None = None,
        frequency_index: NameFrequencyIndex | None = None,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.registry = registry or default_registry()
        self.frequencies = frequency_index or NameFrequencyIndex(dataset)
        schema = config.schema
        # Attribute names per category, in schema order: read per node
        # by Equation (1) and the Must-evidence checks.
        self._category_names = tuple(
            (category, tuple(schema.names_in(category)))
            for category in AttributeCategory
        )
        self.must_names = tuple(schema.names_in(AttributeCategory.MUST))
        self._sim_cache: dict[tuple[str, str, str], float] = {}
        # Per-node scores seeded from the graph build, indexed by node id
        # (memoryviews over float64 columns; ``None`` when unseeded).  s_d
        # is a pure function of the two records and is never
        # invalidated; s_a is set to NaN whenever PROP-A actually changes
        # the node's atomic nodes, and recomputed on the next read.
        self._s_a: memoryview | None = None
        self._s_d: memoryview | None = None
        # PROP-A result memo.  The best value pair per attribute is a
        # pure function of the two entities' value sets, so one
        # computation serves every node whose records sit in the same
        # pair of entity states.  (entity_id, size) identifies a state
        # exactly: ids are never reused and every membership change either
        # grows the entity or replaces it with a fresh id.  An entry holds
        # ``(attribute, atom id)`` pairs of ``_memo_graph`` (-1: no atomic
        # node), registered there when the entry is computed; a call with
        # another graph starts the memo afresh.
        self._propagate_memo: dict[tuple, tuple[tuple[str, int], ...]] = {}
        self._memo_graph: DependencyGraph | None = None
        # PROP-A value tables: (entity_id, size) -> attribute -> the
        # entity's sorted distinct values (``EntityStore.value_table``).
        self._entity_values: dict[tuple[int, int], dict[str, list[str]]] = {}
        self._sim_hits = 0
        self._sim_misses = 0
        self._node_hits = 0
        self._node_misses = 0
        self._propagate_hits = 0
        self._propagate_misses = 0

    # ------------------------------------------------------------------
    # Cached value-pair similarity
    # ------------------------------------------------------------------

    def value_similarity(self, attribute: str, value_a: str, value_b: str) -> float:
        """Comparator output for one value pair, memoised."""
        lo, hi = sorted((value_a, value_b))
        key = (attribute, lo, hi)
        cached = self._sim_cache.get(key)
        if cached is None:
            self._sim_misses += 1
            fire("similarity.compare")
            cached = self.registry.compare(attribute, value_a, value_b) or 0.0
            self._sim_cache[key] = cached
        else:
            self._sim_hits += 1
        return cached

    def seed_caches(
        self,
        sim_table: dict[tuple[str, str, str], float],
        s_a: np.ndarray,
        s_d: np.ndarray,
    ) -> None:
        """Install the graph build's similarity table and score columns.

        The build supplies every comparator output implied by the
        candidate pairs plus each node's initial ``s_a`` (NaN: compute
        lazily) and ``s_d``, all computed to the bit as the scorer would
        compute them — the caches change where numbers come from, never
        what they are.  The columns are indexed by the node ids of the
        graph they were built with, and ``s_a`` is written in place.
        """
        self._sim_cache.update(sim_table)
        self._s_a = memoryview(np.ascontiguousarray(s_a, dtype=np.float64))
        self._s_d = memoryview(np.ascontiguousarray(s_d, dtype=np.float64))

    def publish_cache_metrics(self, metrics) -> None:
        """Record cache hit/miss/size under ``scoring.*`` metrics."""
        if metrics is None:
            return
        metrics.inc("scoring.sim_cache.hits", self._sim_hits)
        metrics.inc("scoring.sim_cache.misses", self._sim_misses)
        metrics.set_gauge("scoring.sim_cache.size", len(self._sim_cache))
        metrics.inc("scoring.node_cache.hits", self._node_hits)
        metrics.inc("scoring.node_cache.misses", self._node_misses)
        metrics.set_gauge(
            "scoring.node_cache.size", 0 if self._s_d is None else len(self._s_d)
        )
        metrics.inc("scoring.propagate_memo.hits", self._propagate_hits)
        metrics.inc("scoring.propagate_memo.misses", self._propagate_misses)
        metrics.set_gauge("scoring.propagate_memo.size", len(self._propagate_memo))

    # ------------------------------------------------------------------
    # PROP-A: re-point atomic nodes using entity value sets
    # ------------------------------------------------------------------

    def propagate_values(
        self, graph: DependencyGraph, k: int, store: EntityStore
    ) -> None:
        """Re-point node ``k``'s atomic nodes at the best value pairs
        across the two records' current entities (global propagation of
        QID values).

        For each schema attribute, every value the two entities have been
        seen under is considered; the highest-similarity cross pair wins.
        An attribute whose best pair still falls below ``t_a`` keeps no
        atomic node.
        """
        rid_a, rid_b = graph.key(k)
        entity_a = store.entity_of(rid_a)
        entity_b = store.entity_of(rid_b)
        if (
            len(entity_a.record_ids) == 1
            and len(entity_b.record_ids) == 1
            and self._s_d is not None
        ):
            # A node of the seeded graph whose entities are both still
            # singletons: each value set is exactly the record's own
            # values — the same values the graph build already chose the
            # best pair from.  Every branch below is then a proven no-op:
            # the winning pair equals the existing atomic node (same
            # values, same seeded comparator output), its key is already
            # registered, and the delete branch cannot trigger.
            return
        # The winning pair per attribute depends only on the two
        # entities' value sets, never on the node — memoise it per
        # entity-state pair and replay the per-node application.
        state = (
            entity_a.entity_id,
            len(entity_a.record_ids),
            entity_b.entity_id,
            len(entity_b.record_ids),
        )
        if graph is not self._memo_graph:
            self._propagate_memo.clear()
            self._memo_graph = graph
        memo = self._propagate_memo.get(state)
        if memo is None:
            self._propagate_misses += 1
            entry = []
            for attribute, best in self._best_pairs(store, entity_a, entity_b).items():
                if best is None:
                    entry.append((attribute, -1))
                else:
                    graph.register_atomic(best)
                    entry.append((attribute, graph.intern(best)))
            memo = self._propagate_memo[state] = tuple(entry)
        else:
            self._propagate_hits += 1
        views = graph.atom_view
        changed = False
        for attribute, best in memo:
            ids = views[attribute]
            if ids[k] != best:
                ids[k] = best
                changed = True
        if changed and self._s_a is not None:
            # The node's atomic evidence moved: its cached s_a is stale.
            self._s_a[k] = math.nan

    def _best_pair(
        self, attribute: str, values_a: list[str], values_b: list[str]
    ) -> AtomicNode | None:
        """Highest-similarity cross pair of the two value lists.

        Reads :meth:`value_similarity`'s cache inline (counting its hits)
        and builds the winning atomic node once, at the end.
        """
        cache = self._sim_cache
        hits = 0
        best_a = best_b = None
        best_similarity = 0.0
        for va in values_a:
            if best_a is not None and best_similarity >= 1.0:
                break
            for vb in values_b:
                similarity = cache.get(
                    (attribute, va, vb) if va <= vb else (attribute, vb, va)
                )
                if similarity is None:
                    similarity = self.value_similarity(attribute, va, vb)
                else:
                    hits += 1
                if best_a is None or similarity > best_similarity:
                    best_a, best_b, best_similarity = va, vb, similarity
                    if similarity >= 1.0:
                        # Comparators are bounded by 1.0 and the update
                        # test is strict `>`: nothing can displace an
                        # exact match, so stop scanning.
                        break
        self._sim_hits += hits
        if best_a is None:
            return None
        return AtomicNode(attribute, best_a, best_b, best_similarity)

    def _best_pairs(
        self, store: EntityStore, entity_a, entity_b
    ) -> dict[str, AtomicNode | None]:
        """PROP-A outcome per attribute for one entity-state pair.

        An attribute maps to its qualifying best pair, to ``None`` when
        both sides have values but the best falls below ``t_a`` (the
        delete case), and is absent when either side has no value (the
        skip case).
        """
        memo: dict[str, AtomicNode | None] = {}
        table_a = self._values_of(entity_a, store)
        table_b = self._values_of(entity_b, store)
        for attribute in self.config.schema.names():
            values_a = table_a[attribute]
            values_b = table_b[attribute]
            if not values_a or not values_b:
                continue
            best = self._best_pair(attribute, values_a, values_b)
            if best is not None and best.similarity >= self.config.atomic_threshold:
                memo[attribute] = best
            else:
                memo[attribute] = None
        return memo

    def _values_of(self, entity, store: EntityStore) -> dict[str, list[str]]:
        """``store.value_table`` of every schema attribute, memoised by
        entity state."""
        key = (entity.entity_id, len(entity.record_ids))
        table = self._entity_values.get(key)
        if table is None:
            table = self._entity_values[key] = store.value_table(
                entity, self.config.schema.names()
            )
        return table

    # ------------------------------------------------------------------
    # Equations (1)-(3)
    # ------------------------------------------------------------------

    def has_must_evidence(self, graph: DependencyGraph, k: int) -> bool:
        """True when at least one Must attribute has an atomic node.

        The paper requires records to "have highly similar values in the
        Must attributes" to be classified similar; a pair whose Must
        attributes are missing or dissimilar must not merge on Core/Extra
        agreement alone (surname + address match any two household
        members).
        """
        views = graph.atom_view
        for attribute in self.must_names:
            if views[attribute][k] >= 0:
                return True
        return False

    def atomic_similarity(self, graph: DependencyGraph, k: int) -> float:
        """Equation (1), memoised per seeded node."""
        s_a = self._s_a
        if s_a is not None:
            value = s_a[k]
            if value == value:  # not NaN
                self._node_hits += 1
                return value
        self._node_misses += 1
        value = self._atomic_similarity_uncached(graph, k)
        if s_a is not None:
            s_a[k] = value
        return value

    def _atomic_similarity_uncached(self, graph: DependencyGraph, k: int) -> float:
        """Equation (1): weighted Must/Core/Extra category combination.

        An attribute present on both records but lacking an atomic node
        (its best similarity fell below ``t_a``) contributes 0 to its
        category — disagreement on a Must attribute is strong negative
        evidence.  Categories with no comparable attribute are excluded
        and the remaining weights renormalised; a node with no comparable
        Must attribute cannot score above the merge threshold on category
        evidence alone, which the caller's threshold handles naturally.
        """
        a, b = graph.records_of(k)
        views, atoms = graph.atom_view, graph.atoms
        schema = self.config.schema
        half_life = self.config.temporal_decay_half_life
        decay = 1.0
        if half_life is not None:
            gap = abs(a.event_year - b.event_year)
            decay = 0.5 ** (gap / half_life)
        weighted_sum = 0.0
        weight_total = 0.0
        for category, names in self._category_names:
            # Per-attribute (similarity, weight) pairs: matched attributes
            # weigh 1; present-but-dissimilar attributes contribute 0 with
            # a weight that decays over the records' time gap for the
            # mutable Extra attributes (people move, change occupations).
            scored: list[tuple[float, float]] = []
            for attribute in names:
                i = views[attribute][k]
                if i >= 0:
                    scored.append((atoms[attribute][i].similarity, 1.0))
                elif a.get(attribute) is not None and b.get(attribute) is not None:
                    weight = (
                        decay if category is AttributeCategory.EXTRA else 1.0
                    )
                    scored.append((0.0, weight))
            denominator = sum(weight for _, weight in scored)
            if denominator <= 0.0:
                continue
            category_sim = (
                sum(sim * weight for sim, weight in scored) / denominator
            )
            # A category whose evidence has decayed counts proportionally
            # less in the overall combination — in the limit a fully
            # decayed disagreement behaves like a missing value.
            weight = schema.weight(category) * (denominator / len(scored))
            weighted_sum += weight * category_sim
            weight_total += weight
        if weight_total == 0.0:
            return 0.0
        return weighted_sum / weight_total

    def disambiguation_similarity(self, graph: DependencyGraph, k: int) -> float:
        """Equation (2), seeded per node by the graph build.

        ``s_d`` depends only on the two records and the frequency index,
        neither of which changes during a run, so a seeded value is never
        invalidated.
        """
        if self._s_d is not None:
            self._node_hits += 1
            return self._s_d[k]
        self._node_misses += 1
        return self._disambiguation_similarity_uncached(graph, k)

    def _disambiguation_similarity_uncached(
        self, graph: DependencyGraph, k: int
    ) -> float:
        """Equation (2): normalised IDF of the two records' name combos."""
        a, b = graph.records_of(k)
        n = max(2, self.frequencies.total_records)
        freq = self.frequencies.frequency(a) + self.frequencies.frequency(b)
        score = math.log2(n / freq) / math.log2(n)
        return min(1.0, max(0.0, score))

    def combined_similarities(
        self, graph: DependencyGraph, nodes: np.ndarray
    ) -> np.ndarray:
        """:meth:`combined_similarity` of the node ids ``nodes``, as a
        float64 array.

        Nodes with a seeded ``s_a`` are scored from the seed columns in
        one array expression, with the scalar method's operation order;
        the rest (all of them when unseeded, and undated ones under
        temporal decay) go through :meth:`combined_similarity` itself.
        The node-cache counters move as the per-node calls would move
        them.
        """
        if self._s_a is None:
            s_a = s_d = np.full(len(nodes), np.nan)
        else:
            s_a = np.asarray(self._s_a)[nodes]
            s_d = np.asarray(self._s_d)[nodes]
        gamma = self.config.effective_gamma
        if gamma >= 1.0:
            combined = s_a
        else:
            combined = gamma * s_a + (1.0 - gamma) * s_d
        rest = np.flatnonzero(np.isnan(s_a)).tolist()
        self._node_hits += (len(nodes) - len(rest)) * (1 if gamma >= 1.0 else 2)
        for j, k in zip(rest, nodes[rest].tolist()):
            combined[j] = self.combined_similarity(graph, k)
        return combined

    def combined_similarity(self, graph: DependencyGraph, k: int) -> float:
        """Equation (3): γ·s_a + (1-γ)·s_d (γ=1 when AMB is ablated)."""
        gamma = self.config.effective_gamma
        s_a = self.atomic_similarity(graph, k)
        if gamma >= 1.0:
            return s_a
        s_d = self.disambiguation_similarity(graph, k)
        return gamma * s_a + (1.0 - gamma) * s_d
