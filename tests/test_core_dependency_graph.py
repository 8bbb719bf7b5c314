"""Tests for dependency-graph construction (G_D)."""

import tracemalloc

import numpy as np
import pytest

from repro.blocking.candidates import CandidatePair
from repro.core.config import SnapsConfig
from repro.core.dependency_graph import build_dependency_graph, build_graph_and_seeds
from repro.core.resolver import SnapsResolver
from repro.data.records import Certificate, Dataset, Record
from repro.data.roles import CertificateType, Role


@pytest.fixture()
def two_family_dataset():
    """Two birth certificates of the same couple (a sibling pair)."""
    records = [
        Record(1, 1, Role.BB, {"first_name": "john", "surname": "ross",
                               "gender": "m", "event_year": "1870"}, 11),
        Record(2, 1, Role.BM, {"first_name": "mary", "surname": "ross",
                               "event_year": "1870"}, 12),
        Record(3, 1, Role.BF, {"first_name": "angus", "surname": "ross",
                               "event_year": "1870"}, 13),
        Record(4, 2, Role.BB, {"first_name": "flora", "surname": "ross",
                               "gender": "f", "event_year": "1873"}, 14),
        Record(5, 2, Role.BM, {"first_name": "mary", "surname": "ross",
                               "event_year": "1873"}, 12),
        Record(6, 2, Role.BF, {"first_name": "angus", "surname": "ross",
                               "event_year": "1873"}, 13),
    ]
    certs = [
        Certificate(1, CertificateType.BIRTH, 1870, "uig",
                    {Role.BB: 1, Role.BM: 2, Role.BF: 3}),
        Certificate(2, CertificateType.BIRTH, 1873, "uig",
                    {Role.BB: 4, Role.BM: 5, Role.BF: 6}),
    ]
    return Dataset("fam", records, certs)


def node_of(graph, key):
    """The id of the node of record pair ``key``."""
    return graph.keys().index(key)


class TestBuildDependencyGraph:
    def test_nodes_created_per_candidate(self, two_family_dataset):
        pairs = [CandidatePair(2, 5), CandidatePair(3, 6)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        assert graph.n_relational == 2
        assert graph.keys() == [(2, 5), (3, 6)]

    def test_pairs_as_an_array(self, two_family_dataset):
        pairs = [CandidatePair(2, 5), CandidatePair(3, 6)]
        graph = build_dependency_graph(
            two_family_dataset, np.array([[2, 5], [3, 6]]), SnapsConfig()
        )
        listed = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        assert graph.keys() == listed.keys()
        assert [graph.atomic(k) for k in range(2)] == [
            listed.atomic(k) for k in range(2)
        ]

    def test_atomic_nodes_require_threshold(self, two_family_dataset):
        pairs = [CandidatePair(2, 5)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        atomic = graph.atomic(node_of(graph, (2, 5)))
        assert atomic["first_name"].similarity == 1.0
        assert atomic["surname"].similarity == 1.0

    def test_dissimilar_values_get_no_atomic_node(self, two_family_dataset):
        pairs = [CandidatePair(1, 4)]  # john vs flora
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        assert "first_name" not in graph.atomic(node_of(graph, (1, 4)))
        assert graph.atom_ids["first_name"][0] == -1

    def test_nodes_share_atomic_nodes(self, two_family_dataset):
        pairs = [CandidatePair(2, 5), CandidatePair(3, 6)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        # Both nodes hold (ross, ross): one shared surname atomic node.
        assert graph.atom_ids["surname"].tolist() == [0, 0]
        assert len(graph.atoms["surname"]) == 1

    def test_groups_by_certificate_pair(self, two_family_dataset):
        pairs = [CandidatePair(2, 5), CandidatePair(3, 6)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        assert graph.n_groups == 1
        assert graph.group_keys.tolist() == [[1, 2]]
        members = graph.group_members(0).tolist()
        assert sorted(graph.key(k) for k in members) == [(2, 5), (3, 6)]

    def test_groups_in_first_appearance_order(self, two_family_dataset):
        # (1, 2)'s certificates pair up with themselves only; give the
        # build pairs of two groups, interleaved.
        pairs = [CandidatePair(2, 5), CandidatePair(1, 2), CandidatePair(3, 6)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        assert graph.group_keys.tolist() == [[1, 2], [1, 1]]
        assert graph.group_members(0).tolist() == [0, 2]
        assert graph.group_members(1).tolist() == [1]

    def test_relationship_edges_between_parent_nodes(self, two_family_dataset):
        pairs = [CandidatePair(2, 5), CandidatePair(3, 6)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        # Mother node and father node are linked by the spouse relation.
        assert any(rel == "Sof" for _, rel, _ in graph.group_edges(0))

    def test_mother_baby_edge(self, two_family_dataset):
        pairs = [CandidatePair(1, 4), CandidatePair(2, 5)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        edges = graph.group_edges(0)
        assert (1, 4) in {e[0] for e in edges} or (1, 4) in {e[2] for e in edges}

    def test_n_atomic_counts_distinct_value_pairs(self, two_family_dataset):
        pairs = [CandidatePair(2, 5), CandidatePair(3, 6)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        # (mary,mary), (angus,angus) first names; (ross,ross) surname is
        # shared by both nodes → counted once.
        assert graph.n_atomic == 3

    def test_alive_group_nodes_excludes_merged(self, two_family_dataset):
        pairs = [CandidatePair(2, 5), CandidatePair(3, 6)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        graph.merged[node_of(graph, (2, 5))] = True
        nodes, sizes = graph.alive_groups()
        assert [graph.key(k) for k in nodes.tolist()] == [(3, 6)]
        assert sizes.tolist() == [1]

    def test_records_of(self, two_family_dataset):
        pairs = [CandidatePair(2, 5)]
        graph = build_dependency_graph(two_family_dataset, pairs, SnapsConfig())
        a, b = graph.records_of(node_of(graph, (2, 5)))
        assert (a.record_id, b.record_id) == (2, 5)

    def test_empty_pairs(self, two_family_dataset):
        graph = build_dependency_graph(two_family_dataset, [], SnapsConfig())
        assert graph.n_relational == graph.n_groups == graph.n_atomic == 0
        nodes, sizes = graph.alive_groups()
        assert len(nodes) == len(sizes) == 0


class TestGraphMemory:
    """G_D is stored as columns: what a build retains per relational node
    is a few fixed-width column cells plus a share of the per-value-pair
    tables (atomic nodes, comparator outputs), never a Python object per
    node.  On the tiny dataset the build retains about 138 bytes per
    node; one object per node (a tuple, a dict entry, a boxed float in a
    list) adds 30 bytes or more, and a layout of node, group and
    per-node dict objects retains about 770."""

    BOUND = 160  # bytes per relational node

    def test_retained_bytes_per_node(self, tiny_dataset):
        config = SnapsConfig()
        pairs = SnapsResolver(config).block(tiny_dataset)
        # Warm up once, so lazily cached per-record values do not count.
        build_graph_and_seeds(tiny_dataset, pairs, config)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            graph, seeds = build_graph_and_seeds(tiny_dataset, pairs, config)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert graph.n_relational > 1000
        assert retained / graph.n_relational < self.BOUND
