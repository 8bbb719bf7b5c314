"""Generation-assignment tests for pedigree extraction (grandparents at
+2, grandchildren at -2, in-laws share generation)."""

import pytest

from repro.core import SnapsConfig, SnapsResolver
from repro.data.population import PopulationConfig, PopulationSimulator
from repro.pedigree import build_pedigree_graph, extract_pedigree


@pytest.fixture(scope="module")
def three_generation_graph():
    """A longer simulation so grandparent chains exist."""
    config = PopulationConfig(
        start_year=1855, end_year=1901, n_founder_couples=15, seed=43
    )
    dataset = PopulationSimulator(config).run()
    result = SnapsResolver(SnapsConfig()).resolve(dataset)
    return build_pedigree_graph(dataset, result.entities)


def _entity_with_parents_and_children(graph):
    for entity in graph:
        if graph.parents(entity.entity_id) and graph.children(entity.entity_id):
            return entity
    pytest.skip("no middle-generation entity resolved")


class TestGenerations:
    def test_parents_at_plus_one(self, three_generation_graph):
        graph = three_generation_graph
        entity = _entity_with_parents_and_children(graph)
        pedigree = extract_pedigree(graph, entity.entity_id, 2)
        for parent in graph.parents(entity.entity_id):
            if parent in pedigree.entities:
                assert pedigree.generation_of(parent) == 1

    def test_children_at_minus_one(self, three_generation_graph):
        graph = three_generation_graph
        entity = _entity_with_parents_and_children(graph)
        pedigree = extract_pedigree(graph, entity.entity_id, 2)
        for child in graph.children(entity.entity_id):
            if child in pedigree.entities:
                assert pedigree.generation_of(child) == -1

    def test_grandparents_at_plus_two(self, three_generation_graph):
        graph = three_generation_graph
        entity = _entity_with_parents_and_children(graph)
        pedigree = extract_pedigree(graph, entity.entity_id, 2)
        found = False
        for parent in graph.parents(entity.entity_id):
            for grandparent in graph.parents(parent):
                if grandparent in pedigree.entities:
                    assert pedigree.generation_of(grandparent) == 2
                    found = True
        if not found:
            pytest.skip("no grandparent chain resolved in this sample")

    def test_spouse_shares_generation(self, three_generation_graph):
        graph = three_generation_graph
        entity = _entity_with_parents_and_children(graph)
        pedigree = extract_pedigree(graph, entity.entity_id, 2)
        for spouse in graph.spouses(entity.entity_id):
            if spouse in pedigree.entities:
                assert pedigree.generation_of(spouse) == 0

    def test_six_generation_extraction_bounded(self, three_generation_graph):
        """The DS database promises up to six generations; deep
        extraction must stay well-formed."""
        graph = three_generation_graph
        entity = _entity_with_parents_and_children(graph)
        deep = extract_pedigree(graph, entity.entity_id, 6)
        shallow = extract_pedigree(graph, entity.entity_id, 2)
        assert set(shallow.entities) <= set(deep.entities)
        assert all(0 <= hop <= 6 for hop in deep.hops.values())


class TestGenerationMapOnce:
    """The JSON payload and the ASCII tree label every entity from one
    generation map per pedigree, with the values ``generation_of`` gives."""

    def test_payload_generations_match_generation_of(self, three_generation_graph):
        from repro.serve.serialization import pedigree_payload

        for entity in three_generation_graph:
            pedigree = extract_pedigree(three_generation_graph, entity.entity_id)
            payload = pedigree_payload(pedigree)
            assert [blob["generation"] for blob in payload["entities"]] == [
                pedigree.generation_of(entity_id)
                for entity_id in sorted(pedigree.entities)
            ]

    def test_one_bfs_per_rendering(self, three_generation_graph, monkeypatch):
        from repro.pedigree.extraction import Pedigree
        from repro.pedigree.visualize import render_ascii_tree
        from repro.serve.serialization import pedigree_payload

        runs = []
        generations = Pedigree.generations

        def counted(self):
            runs.append(self.root_id)
            return generations(self)

        monkeypatch.setattr(Pedigree, "generations", counted)
        entity = _entity_with_parents_and_children(three_generation_graph)
        pedigree = extract_pedigree(three_generation_graph, entity.entity_id)
        assert len(pedigree) > 3
        pedigree_payload(pedigree)
        assert len(runs) == 1
        render_ascii_tree(pedigree)
        assert len(runs) == 2
