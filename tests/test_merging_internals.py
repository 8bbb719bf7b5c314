"""White-box tests for merging internals: disagreement detection and the
interaction of REF with the entity store after merging."""

import pytest

from repro.core.config import SnapsConfig
from repro.core.dependency_graph import AtomicNode, DependencyGraph, RelationalNode
from repro.core.merging import _must_values_disagree
from repro.core.scoring import PairScorer
from repro.data.records import Certificate, Dataset, Record
from repro.data.roles import CertificateType, Role


@pytest.fixture()
def ctx():
    records = [
        Record(1, 1, Role.BM, {"first_name": "mary", "surname": "ross",
                               "event_year": "1870"}, 1),
        Record(2, 2, Role.BM, {"first_name": "flora", "surname": "ross",
                               "event_year": "1872"}, 2),
        Record(3, 3, Role.BM, {"surname": "ross", "event_year": "1874"}, 3),
    ]
    certs = [
        Certificate(i, CertificateType.BIRTH, 1868 + 2 * i, "uig", {Role.BM: i})
        for i in (1, 2, 3)
    ]
    dataset = Dataset("mi", records, certs)
    config = SnapsConfig()
    graph = DependencyGraph(dataset)
    scorer = PairScorer(dataset, config)
    return dataset, config, graph, scorer


class TestMustValuesDisagree:
    def test_present_and_dissimilar_is_disagreement(self, ctx):
        dataset, config, graph, scorer = ctx
        node = RelationalNode(1, 2, (1, 2))
        graph.add_node(node)
        assert _must_values_disagree(graph, scorer, node)

    def test_atomic_node_means_agreement(self, ctx):
        dataset, config, graph, scorer = ctx
        node = RelationalNode(1, 2, (1, 2))
        node.atomic["first_name"] = AtomicNode("first_name", "mary", "mary", 1.0)
        graph.add_node(node)
        assert not _must_values_disagree(graph, scorer, node)

    def test_missing_value_is_not_disagreement(self, ctx):
        dataset, config, graph, scorer = ctx
        node = RelationalNode(1, 3, (1, 3))  # record 3 has no first name
        graph.add_node(node)
        assert not _must_values_disagree(graph, scorer, node)


class TestRefinementAfterMerge:
    def test_removed_record_can_remerge_correctly(self, tiny_dataset):
        """REF's contract: unmerged records return to the pool and can be
        linked again.  Simulate by removing a record from a resolved
        cluster and merging it back."""
        from repro.core import SnapsResolver

        result = SnapsResolver(SnapsConfig()).resolve(tiny_dataset)
        store = result.entities
        entity = next(iter(store.entities(min_size=3)), None)
        if entity is None:
            pytest.skip("no cluster of 3+")
        record_ids = sorted(entity.record_ids)
        victim = record_ids[0]
        partner = record_ids[1]
        store.remove_record(victim)
        assert not store.same_entity(victim, partner)
        store.merge(victim, partner)
        assert store.same_entity(victim, partner)
