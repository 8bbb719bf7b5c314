"""Accumulator-based query processing and ranking.

The paper's Section 7 pipeline:

1. retrieve from the keyword index ``K`` and similarity index ``S`` all
   entities matching the query's first name and/or surname, exactly or
   approximately, and seed the accumulator ``M`` with the summed name
   match scores (entities without any name match never enter ``M``);
2. for each optional query value (gender, year range, parish) retrieve
   the matching entity ids from ``K`` and *increase* the scores of
   entities already in ``M`` — no new entities are added;
3. rank by the weighted match score
   ``s_r = Σ_a w_a · sim(q_a, o_a)`` and return the top ``m`` entities,
   scores normalised to a percentage of the achievable maximum.

The three steps run as array operations: the matched values' postings
are gathered into one id stream, ``np.unique`` gives M's entities with
their first-entry positions, ``np.maximum.at`` keeps each attribute's
best similarity, the optional values are membership tests against their
postings, and one ``np.lexsort`` ranks by score, then entry order.

Thread safety (audited for the ``repro.serve`` subsystem): after
``__init__`` builds the indexes, :meth:`QueryEngine.search` touches only
per-call local arrays, the immutable arrays of
:class:`~repro.index.keyword.KeywordIndex` and
:class:`~repro.index.simindex.SimilarityAwareIndex` (built, loaded or
memory-mapped alike), the S index's unseen-value cache and bigram arrays
(built lazily and published under their own locks, never mutated
afterwards), and the thread-safe :class:`~repro.obs.metrics.MetricsRegistry` — so concurrent
``search()`` calls on one engine are safe **provided the engine's
``trace`` is the default disabled one**.  An *enabled*
:class:`~repro.obs.trace.Trace` keeps a span stack that must not be
shared across threads; give each thread (or request) its own trace, as
the serving layer does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.roles import Role
from repro.faults import fire
from repro.index.keyword import KeywordIndex
from repro.index.simindex import SimilarityAwareIndex
from repro.obs.logs import get_logger
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.trace import Trace
from repro.pedigree.graph import PedigreeEntity, PedigreeGraph
from repro.utils.sums import builtin_sum

__all__ = ["Query", "QueryEngine", "RankedMatch"]

logger = get_logger("query.engine")

# Match-score weights per query attribute (names dominate, as discussed
# in Section 7; locations are weakest because users often guess them).
DEFAULT_WEIGHTS: dict[str, float] = {
    "first_name": 0.3,
    "surname": 0.3,
    "gender": 0.1,
    "year": 0.2,
    "parish": 0.1,
}


@dataclass(frozen=True)
class Query:
    """One search request as entered on the web form (Figure 5)."""

    first_name: str
    surname: str
    record_type: str | None = None       # "birth" | "death" | None
    gender: str | None = None            # "m" | "f" | None
    year_from: int | None = None
    year_to: int | None = None
    parish: str | None = None

    def __post_init__(self) -> None:
        if not self.first_name or not self.surname:
            raise ValueError("first name and surname are mandatory query fields")
        if self.record_type not in (None, "birth", "death"):
            raise ValueError(f"record_type must be birth/death, got {self.record_type}")
        if self.gender not in (None, "m", "f"):
            raise ValueError(f"gender must be m/f, got {self.gender}")
        if (
            self.year_from is not None
            and self.year_to is not None
            and self.year_to < self.year_from
        ):
            raise ValueError("empty year range")


@dataclass
class RankedMatch:
    """One ranked query result with per-attribute match breakdown."""

    entity: PedigreeEntity
    score_percent: float
    attribute_scores: dict[str, float] = field(default_factory=dict)
    # Which name values matched and whether exactly ("exact") or
    # approximately ("approx") — the colour coding of Figure 6.
    match_kinds: dict[str, str] = field(default_factory=dict)


class QueryEngine:
    """Search front-end over a pedigree graph."""

    def __init__(
        self,
        graph: PedigreeGraph,
        similarity_threshold: float = 0.5,
        weights: dict[str, float] | None = None,
        use_geographic_distance: bool = False,
        geo_half_distance_km: float = 10.0,
        trace: Trace | None = None,
        metrics: MetricsRegistry | None = None,
        keyword_index: KeywordIndex | None = None,
        sim_index: dict[str, SimilarityAwareIndex] | None = None,
    ) -> None:
        """``use_geographic_distance`` switches parish scoring from string
        similarity to geodesic distance against the gazetteer (the paper's
        future-work geographic query refinement): a query for "portree"
        then also surfaces people registered in nearby Snizort at a
        distance-discounted score, while far-away parishes score near 0
        even if their names are string-similar.

        ``trace``/``metrics`` instrument every :meth:`search`: one span
        per stage (accumulate, refine — with a nested ``parish_match``
        span — and rank), a per-query latency histogram, and search/hit
        counters.  Both default to off with no per-query cost.

        ``keyword_index``/``sim_index`` warm-start the engine from
        prebuilt indexes (a ``repro.store`` snapshot) instead of paying
        the K/S construction cost here; when given they must have been
        built from ``graph`` (``similarity_threshold`` is then ignored —
        a prebuilt S index carries its own threshold)."""
        self.graph = graph
        self.weights = dict(weights or DEFAULT_WEIGHTS)
        self.use_geographic_distance = use_geographic_distance
        self.geo_half_distance_km = geo_half_distance_km
        self.trace = trace if trace is not None else Trace.disabled()
        self.metrics = metrics
        self.keyword_index = (
            keyword_index if keyword_index is not None else KeywordIndex(graph)
        )
        if sim_index is not None:
            self.sim_index = dict(sim_index)
        else:
            self.sim_index = {
                attribute: SimilarityAwareIndex(
                    self.keyword_index.values(attribute),
                    threshold=similarity_threshold,
                )
                for attribute in ("first_name", "surname", "parish")
            }

    def _parish_matches(self, query_parish: str) -> list[tuple[str, float]]:
        """(indexed parish, score) pairs for the query's parish value.

        String mode uses the similarity-aware index; geographic mode
        scores every indexed parish by its gazetteer distance to the
        query parish (falling back to string similarity when either
        parish is not in the gazetteer).
        """
        if not self.use_geographic_distance:
            return self.sim_index["parish"].matches(query_parish)
        from repro.data.names import PARISH_COORDINATES
        from repro.similarity.geo import geo_similarity

        origin = PARISH_COORDINATES.get(query_parish.lower())
        if origin is None:
            return self.sim_index["parish"].matches(query_parish)
        scored = []
        for parish in self.keyword_index.values("parish"):
            point = PARISH_COORDINATES.get(parish)
            if point is None:
                continue
            score = geo_similarity(
                origin, point, half_distance_km=self.geo_half_distance_km
            )
            if score > 0.05:
                scored.append((parish, score))
        scored.sort(key=lambda pair: (-pair[1], pair[0]))
        return scored

    # ------------------------------------------------------------------

    def _postings(
        self, attribute: str, matches: list[tuple[str, float]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entity ids holding each matched value, concatenated in match
        order (ascending within one value), with each id's similarity."""
        ids, counts = self.keyword_index.lookup_many(
            attribute, [value for value, _ in matches]
        )
        sims = np.repeat(
            np.array([similarity for _, similarity in matches], dtype=np.float64),
            counts,
        )
        return ids, sims

    def _name_postings(
        self, attribute: str, value: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entity ids matching one query name, with their similarities:
        the exact matches from ``K`` first, then the approximate matches
        from ``S`` in S order.  That is S order throughout, since only
        the value itself scores 1.0 and so heads its own S row."""
        exact = np.array(self.keyword_index.lookup(attribute, value), dtype=np.int64)
        value = value.lower()
        ids, sims = self._postings(attribute, [
            (matched, similarity)
            for matched, similarity in self.sim_index[attribute].matches(value)
            if matched != value
        ])
        return np.concatenate([exact, ids]), np.concatenate([np.ones(len(exact)), sims])

    def _accumulate(
        self, query: Query
    ) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Step 1: accumulator M seeded by exact/approximate name matches.

        Returns the entity ids in M (ascending), the position of each
        one's first entry into M, and per name attribute each entity's
        best similarity (0.0 where that name did not match).
        """
        streams = [
            self._name_postings(attribute, value)
            for attribute, value in (
                ("first_name", query.first_name),
                ("surname", query.surname),
            )
        ]
        entities, first_entry, inverse = np.unique(
            np.concatenate([ids for ids, _ in streams]),
            return_index=True,
            return_inverse=True,
        )
        scores: dict[str, np.ndarray] = {}
        start = 0
        for attribute, (ids, sims) in zip(("first_name", "surname"), streams):
            best = np.zeros(len(entities))
            np.maximum.at(best, inverse[start:start + len(ids)], sims)
            scores[attribute] = best
            start += len(ids)
        return entities, first_entry, scores

    def _refine(
        self, query: Query, entities: np.ndarray, scores: dict[str, np.ndarray]
    ) -> None:
        """Step 2: score the optional values for entities already in M."""
        if query.gender is not None:
            matching = self.keyword_index.lookup_gender(query.gender)
            scores["gender"] = np.isin(entities, matching).astype(np.float64)
        if query.year_from is not None or query.year_to is not None:
            lo = query.year_from if query.year_from is not None else 0
            hi = query.year_to if query.year_to is not None else 9999
            matching = self.keyword_index.lookup_year_range(lo, hi)
            scores["year"] = np.isin(entities, matching).astype(np.float64)
        if query.parish is not None:
            with self.trace.span("parish_match"):
                parish_matches = self._parish_matches(query.parish)
            ids, sims = self._postings("parish", parish_matches)
            rows = np.searchsorted(entities, ids)
            inside = rows < len(entities)
            inside[inside] = entities[rows[inside]] == ids[inside]
            best = np.zeros(len(entities))
            np.maximum.at(best, rows[inside], sims[inside])
            scores["parish"] = best

    def _rank(
        self,
        query: Query,
        entities: np.ndarray,
        order: np.ndarray,
        top_m: int,
    ) -> list[tuple[int, PedigreeEntity]]:
        """The best ``top_m`` (accumulator row, entity) pairs in ``order``
        that hold a record of the searched certificate type (searching
        birth records requires a Bb record, etc.)."""
        if query.record_type is None:
            wanted, order = None, order[:top_m]
        else:
            wanted = Role.BB if query.record_type == "birth" else Role.DD
        picked = []
        for row, entity_id in zip(order.tolist(), entities[order].tolist()):
            entity = self.graph.entity(entity_id)
            if wanted is None or wanted in entity.roles:
                picked.append((row, entity))
                if len(picked) == top_m:
                    break
        return picked

    # ------------------------------------------------------------------

    def search(self, query: Query, top_m: int = 10) -> list[RankedMatch]:
        """Rank entities against ``query``; return the best ``top_m``.

        Scores are normalised so 100% means an exact match on every QID
        value the user provided.

        Ties keep accumulation order, so they depend only on the index
        contents: entities enter the accumulator through the first-name
        matches, then the surname matches, each walked in S order
        (descending similarity, then value) and, within one matched
        value, in ascending entity id.  Equal scores rank the earlier
        entrant first — e.g. equal-scoring namesakes come out in
        ascending entity id.
        """
        if top_m <= 0:
            raise ValueError(f"top_m must be positive, got {top_m}")
        start = time.perf_counter()
        fire("query.search")
        with self.trace.span("query"):
            with self.trace.span("accumulate"):
                entities, first_entry, scores = self._accumulate(query)
            with self.trace.span("refine"):
                self._refine(query, entities, scores)
            with self.trace.span("rank"):
                provided = ["first_name", "surname"]
                if query.gender is not None:
                    provided.append("gender")
                if query.year_from is not None or query.year_to is not None:
                    provided.append("year")
                if query.parish is not None:
                    provided.append("parish")
                max_score = sum(self.weights[a] for a in provided)
                total = builtin_sum([
                    self.weights[attribute] * scores[attribute]
                    for attribute in provided
                ])
                # Best score first; equal scores keep the earlier entrant.
                order = np.lexsort((first_entry, -total))
                picked = self._rank(query, entities, order, top_m)
                rows = np.array([row for row, _ in picked], dtype=np.int64)
                columns = {a: best[rows].tolist() for a, best in scores.items()}
                results: list[RankedMatch] = []
                for k, (score, (_, entity)) in enumerate(
                    zip(total[rows].tolist(), picked)
                ):
                    attribute_scores = {
                        a: column[k] for a, column in columns.items() if column[k] > 0.0
                    }
                    kinds = {
                        a: "exact" if attribute_scores[a] >= 0.9999 else "approx"
                        for a in ("first_name", "surname", "parish")
                        if a in attribute_scores
                    }
                    results.append(
                        RankedMatch(
                            entity=entity,
                            score_percent=round(100.0 * score / max_score, 2),
                            attribute_scores=attribute_scores,
                            match_kinds=kinds,
                        )
                    )
        if self.metrics is not None:
            self.metrics.inc("query.searches")
            self.metrics.inc("query.candidates", len(entities))
            self.metrics.inc("query.hits", len(results))
            self.metrics.observe(
                "query.latency_seconds",
                time.perf_counter() - start,
                LATENCY_BUCKETS_S,
            )
        logger.debug(
            "query %s/%s: %d accumulator entries, %d hits",
            query.first_name,
            query.surname,
            len(entities),
            len(results),
        )
        return results
