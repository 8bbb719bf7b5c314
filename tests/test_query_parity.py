"""The array-native query engine against the per-entity reference loop.

``reference_search`` is the accumulator loop ``QueryEngine.search`` ran
before accumulate, refine and rank became numpy operations: one dict of
attribute scores per entity in the accumulator, then a best-first top-m
where equal scores keep the earlier entrant.  The engine must serialise
to the same ``search_payload`` bytes for every query shape, over indexes
built fresh, loaded eagerly and memory-mapped.
"""

from __future__ import annotations

import json
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SnapsConfig
from repro.data.roles import Role
from repro.pedigree.graph import PedigreeEntity, PedigreeGraph
from repro.query import Query, QueryEngine, RankedMatch
from repro.serve.serialization import search_payload
from repro.store import SnapshotStore
from repro.utils import sums as sums_module
from repro.utils.sums import builtin_sum


def reference_search(engine: QueryEngine, query: Query, top_m: int) -> list[RankedMatch]:
    """The per-entity dict accumulator, refine and rank, over ``engine``'s
    indexes, graph and weights."""
    accumulator: dict[int, dict[str, float]] = {}
    for attribute, value in (
        ("first_name", query.first_name),
        ("surname", query.surname),
    ):
        for matched_value, similarity in engine.sim_index[attribute].matches(value):
            for entity_id in engine.keyword_index.lookup(attribute, matched_value):
                scores = accumulator.setdefault(entity_id, {})
                if similarity > scores.get(attribute, 0.0):
                    scores[attribute] = similarity
    if query.gender is not None:
        matching = set(engine.keyword_index.lookup_gender(query.gender))
        for entity_id, scores in accumulator.items():
            if entity_id in matching:
                scores["gender"] = 1.0
    if query.year_from is not None or query.year_to is not None:
        lo = query.year_from if query.year_from is not None else 0
        hi = query.year_to if query.year_to is not None else 9999
        matching = set(engine.keyword_index.lookup_year_range(lo, hi))
        for entity_id, scores in accumulator.items():
            if entity_id in matching:
                scores["year"] = 1.0
    if query.parish is not None:
        for matched_value, similarity in engine._parish_matches(query.parish):
            for entity_id in engine.keyword_index.lookup("parish", matched_value):
                scores = accumulator.get(entity_id)
                if scores is not None and similarity > scores.get("parish", 0.0):
                    scores["parish"] = similarity
    provided = ["first_name", "surname"]
    if query.gender is not None:
        provided.append("gender")
    if query.year_from is not None or query.year_to is not None:
        provided.append("year")
    if query.parish is not None:
        provided.append("parish")
    max_score = sum(engine.weights[a] for a in provided)
    ranked = []
    for entity_id, scores in accumulator.items():
        entity = engine.graph.entity(entity_id)
        if query.record_type is not None:
            wanted = Role.BB if query.record_type == "birth" else Role.DD
            if wanted not in entity.roles:
                continue
        score = sum(
            engine.weights[attribute] * scores.get(attribute, 0.0)
            for attribute in provided
        )
        ranked.append((score, entity, scores))
    ranked.sort(key=lambda item: -item[0])  # stable: ties keep entry order
    results = []
    for score, entity, scores in ranked[:top_m]:
        kinds = {
            attribute: "exact" if scores[attribute] >= 0.9999 else "approx"
            for attribute in ("first_name", "surname", "parish")
            if attribute in scores
        }
        results.append(
            RankedMatch(
                entity=entity,
                score_percent=round(100.0 * score / max_score, 2),
                attribute_scores=dict(scores),
                match_kinds=kinds,
            )
        )
    return results


def _bytes(matches: list[RankedMatch]) -> bytes:
    return json.dumps(search_payload(matches)).encode()


def _edit(value: str, edits: int, rng: random.Random) -> str:
    for _ in range(edits):
        if len(value) < 3:
            break
        pos = rng.randrange(1, len(value) - 1)
        kind = rng.choice(("delete", "substitute", "transpose"))
        if kind == "delete":
            value = value[:pos] + value[pos + 1:]
        elif kind == "substitute":
            value = value[:pos] + rng.choice("aeilmnorsu") + value[pos + 1:]
        else:
            value = value[:pos] + value[pos + 1] + value[pos] + value[pos + 2:]
    return value


@pytest.fixture(scope="module")
def engines(tmp_path_factory, resolved_tiny, tiny_pedigree_graph):
    """{(indexes, geographic parish scoring): engine} over the tiny graph,
    with indexes built fresh, loaded eagerly and memory-mapped."""
    store = SnapshotStore(tmp_path_factory.mktemp("parity-store"))
    manifest = store.save(resolved_tiny, graph=tiny_pedigree_graph, config=SnapsConfig())
    out = {}
    for geo in (False, True):
        out["fresh", geo] = QueryEngine(tiny_pedigree_graph, use_geographic_distance=geo)
        for name, memmap in (("eager", False), ("memmap", True)):
            loaded = store.load(
                manifest.snapshot_id, artifacts=("graph", "indexes"), memmap=memmap
            )
            out[name, geo] = QueryEngine(
                loaded.graph,
                use_geographic_distance=geo,
                keyword_index=loaded.keyword_index,
                sim_index=loaded.sim_index,
            )
    return out


@pytest.fixture(scope="module")
def named(tiny_pedigree_graph):
    return [
        e for e in tiny_pedigree_graph
        if e.first("first_name") and e.first("surname")
    ]


class TestRandomQueries:
    @given(data=st.data())
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_payload_bytes_match_reference(self, engines, named, data):
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        entity = named[data.draw(st.integers(0, len(named) - 1), label="entity")]
        parish = entity.first("parish") or "portree"
        years = [int(y) for y in entity.values.get("event_year", ()) if y.isdigit()]
        year = years[0] if years else 1880
        query = Query(
            first_name=_edit(entity.first("first_name"), rng.randint(0, 2), rng),
            surname=_edit(entity.first("surname"), rng.randint(0, 2), rng),
            record_type=data.draw(st.sampled_from([None, "birth", "death"])),
            gender=data.draw(st.sampled_from([None, "m", "f"])),
            year_from=data.draw(st.sampled_from([None, year - 5, year])),
            year_to=data.draw(st.sampled_from([None, year + 5])),
            parish=data.draw(
                st.sampled_from([None, parish, _edit(parish, 1, rng), "snizort"])
            ),
        )
        top_m = data.draw(st.integers(1, 100), label="top")
        geo = data.draw(st.booleans(), label="geo")
        expected = _bytes(reference_search(engines["fresh", geo], query, top_m))
        for name in ("fresh", "eager", "memmap"):
            got = _bytes(engines[name, geo].search(query, top_m=top_m))
            assert got == expected, (name, query, top_m)

    def test_every_filter_combination(self, engines, named):
        entity = named[len(named) // 2]
        first, surname = entity.first("first_name"), entity.first("surname")
        for record_type in (None, "birth", "death"):
            for gender in (None, "m", "f"):
                for years in ((None, None), (1860, None), (None, 1890), (1860, 1890)):
                    for parish in (None, entity.first("parish") or "portree"):
                        query = Query(
                            first_name=first, surname=surname,
                            record_type=record_type, gender=gender,
                            year_from=years[0], year_to=years[1], parish=parish,
                        )
                        for geo in (False, True):
                            expected = _bytes(
                                reference_search(engines["fresh", geo], query, 25)
                            )
                            for name in ("fresh", "eager", "memmap"):
                                got = _bytes(engines[name, geo].search(query, top_m=25))
                                assert got == expected, (name, query, geo)

    def test_top_m_must_be_positive(self, engines):
        with pytest.raises(ValueError):
            engines["fresh", False].search(Query(first_name="a", surname="b"), top_m=0)


def _entity(eid: int, first: str, surname: str) -> PedigreeEntity:
    return PedigreeEntity(
        entity_id=eid,
        record_ids=(eid,),
        values={"first_name": (first,), "surname": (surname,)},
        gender="f",
        roles=(Role.BB,),
    )


class TestEqualScoreTies:
    """Equal scores rank the earlier entrant into the accumulator first,
    whatever the entity ids."""

    @pytest.fixture(scope="class")
    def engine(self):
        graph = PedigreeGraph()
        # 700 enters through the exact first name, 100 only through the
        # approximate one; each has one exact and one equally close name.
        graph.add_entity(_entity(700, "catherine", "catherina"))
        graph.add_entity(_entity(100, "catherina", "catherine"))
        # Namesakes with identical values tie and come out by ascending id.
        for eid in (650, 150, 400):
            graph.add_entity(_entity(eid, "catherine", "catherine"))
        return QueryEngine(graph)

    def test_namesake_tie_order(self, engine):
        query = Query(first_name="catherine", surname="catherine")
        hits = engine.search(query, top_m=10)
        assert [h.entity.entity_id for h in hits] == [150, 400, 650, 700, 100]
        assert hits[3].score_percent == hits[4].score_percent
        assert _bytes(hits) == _bytes(reference_search(engine, query, 10))

    def test_tie_cut_by_top_m(self, engine):
        query = Query(first_name="catherine", surname="catherine")
        for top_m in range(1, 6):
            assert _bytes(engine.search(query, top_m=top_m)) == _bytes(
                reference_search(engine, query, top_m)
            )


def _neumaier_sum(terms: list[float]) -> float:
    """Builtin ``sum()`` of floats as Python 3.12+ computes it."""
    total, compensation = terms[0], 0.0
    for term in terms[1:]:
        running = total + term
        if abs(total) >= abs(term):
            compensation += (total - running) + term
        else:
            compensation += (term - running) + total
        total = running
    return total + compensation if compensation else total


_UNIT = st.floats(min_value=0.0, max_value=1.0)


class TestScoreSum:
    """The weighted score is the float a per-entity builtin ``sum()``
    gives: left to right up to Python 3.11, compensated from 3.12."""

    @given(rows=st.lists(st.lists(_UNIT, min_size=4, max_size=4), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_matches_builtin_sum(self, rows):
        columns = [np.array(column) for column in zip(*rows)]
        assert builtin_sum(columns).tolist() == [sum(row) for row in rows]

    @given(terms=st.lists(_UNIT, min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_compensated_branch(self, terms):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sums_module, "_COMPENSATED_SUM", True)
            got = builtin_sum([np.array([term]) for term in terms])
        assert got.tolist() == [_neumaier_sum(terms)]

    def test_weights_where_the_two_sums_differ(self, monkeypatch):
        terms = [np.array([w]) for w in (0.3, 0.3, 0.1, 0.2)]
        monkeypatch.setattr(sums_module, "_COMPENSATED_SUM", False)
        assert builtin_sum(terms).tolist() == [0.8999999999999999]
        monkeypatch.setattr(sums_module, "_COMPENSATED_SUM", True)
        assert builtin_sum(terms).tolist() == [0.9]
