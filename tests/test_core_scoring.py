"""Tests for Equations (1)-(3): atomic, disambiguation, combined similarity."""

import math

import pytest

from repro.core.config import SnapsConfig
from repro.core.dependency_graph import AtomicNode, RelationalNode
from repro.core.entities import EntityStore
from repro.core.scoring import NameFrequencyIndex, PairScorer
from repro.data.records import Certificate, Dataset, Record
from repro.data.roles import CertificateType, Role


def _make_dataset():
    records = [
        Record(1, 1, Role.BM, {"first_name": "mary", "surname": "tayler",
                               "parish": "kilmore", "event_year": "1870"}, 1),
        Record(2, 2, Role.DM, {"first_name": "mary", "surname": "taylor",
                               "parish": "kilmore", "event_year": "1880"}, 1),
        Record(3, 3, Role.BM, {"first_name": "mary", "surname": "smith",
                               "event_year": "1874"}, 1),
        Record(4, 4, Role.BM, {"first_name": "flora", "surname": "rare",
                               "event_year": "1874"}, 2),
        Record(5, 5, Role.DM, {"first_name": "flora", "surname": "rare",
                               "event_year": "1880"}, 2),
        Record(6, 6, Role.BM, {"first_name": "mary", "surname": "taylor",
                               "event_year": "1876"}, 3),
        Record(7, 7, Role.BM, {"first_name": "mary", "surname": "taylor",
                               "event_year": "1878"}, 4),
    ]
    certs = [
        Certificate(i, CertificateType.BIRTH if i not in (2, 5) else CertificateType.DEATH,
                    1870 + i, "kilmore", {records[i - 1].role: i})
        for i in range(1, 8)
    ]
    return Dataset("score", records, certs)


@pytest.fixture()
def scorer_ctx():
    dataset = _make_dataset()
    config = SnapsConfig()
    return dataset, config, PairScorer(dataset, config)


class TestNameFrequencyIndex:
    def test_combo_frequency(self, scorer_ctx):
        dataset, _, _ = scorer_ctx
        index = NameFrequencyIndex(dataset)
        assert index.frequency(dataset.record(2)) == 3  # mary taylor ×3
        assert index.frequency(dataset.record(4)) == 2  # flora rare ×2

    def test_missing_name_falls_back(self):
        records = [
            Record(1, 1, Role.BM, {"first_name": "mary", "event_year": "1870"}, 1),
            Record(2, 2, Role.BM, {"first_name": "mary", "surname": "ross",
                                   "event_year": "1870"}, 2),
        ]
        certs = [
            Certificate(1, CertificateType.BIRTH, 1870, "uig", {Role.BM: 1}),
            Certificate(2, CertificateType.BIRTH, 1870, "uig", {Role.BM: 2}),
        ]
        dataset = Dataset("f", records, certs)
        index = NameFrequencyIndex(dataset)
        assert index.frequency(dataset.record(1)) == 2  # first-name freq

    def test_total_records(self, scorer_ctx):
        dataset, _, _ = scorer_ctx
        assert NameFrequencyIndex(dataset).total_records == len(dataset)


class TestAtomicSimilarity:
    def test_paper_worked_example(self):
        """Section 4.2.3's example: sims 1.0 / 0.9 / 0.9 with weights
        0.5/0.3/0.2 give s_a = 0.95."""
        dataset = _make_dataset()
        config = SnapsConfig()
        scorer = PairScorer(dataset, config)
        node = RelationalNode(1, 2, (1, 2))
        node.atomic["first_name"] = AtomicNode("first_name", "mary", "mary", 1.0)
        node.atomic["surname"] = AtomicNode("surname", "tayler", "taylor", 0.9)
        node.atomic["parish"] = AtomicNode("parish", "klmor", "kilmore", 0.9)
        assert scorer.atomic_similarity(node) == pytest.approx(0.95)

    def test_missing_category_renormalises(self, scorer_ctx):
        dataset, _, scorer = scorer_ctx
        # Records 4,5 have no parish → Extra category excluded entirely.
        node = RelationalNode(4, 5, (4, 5))
        node.atomic["first_name"] = AtomicNode("first_name", "flora", "flora", 1.0)
        node.atomic["surname"] = AtomicNode("surname", "rare", "rare", 1.0)
        assert scorer.atomic_similarity(node) == pytest.approx(1.0)

    def test_present_but_dissimilar_counts_zero(self, scorer_ctx):
        dataset, _, scorer = scorer_ctx
        # Records 1,2 both have parishes; without a parish atomic node the
        # Extra category contributes 0.
        node = RelationalNode(1, 2, (1, 2))
        node.atomic["first_name"] = AtomicNode("first_name", "mary", "mary", 1.0)
        node.atomic["surname"] = AtomicNode("surname", "tayler", "taylor", 0.95)
        expected = (0.5 * 1.0 + 0.3 * 0.95 + 0.2 * 0.0) / 1.0
        assert scorer.atomic_similarity(node) == pytest.approx(expected)

    def test_no_atomic_nodes_scores_zero(self, scorer_ctx):
        _, _, scorer = scorer_ctx
        node = RelationalNode(1, 2, (1, 2))
        assert scorer.atomic_similarity(node) == 0.0

    def test_has_must_evidence(self, scorer_ctx):
        _, _, scorer = scorer_ctx
        node = RelationalNode(1, 2, (1, 2))
        assert not scorer.has_must_evidence(node)
        node.atomic["surname"] = AtomicNode("surname", "a", "a", 1.0)
        assert not scorer.has_must_evidence(node)
        node.atomic["first_name"] = AtomicNode("first_name", "m", "m", 1.0)
        assert scorer.has_must_evidence(node)


class TestDisambiguationSimilarity:
    def test_equation_two(self, scorer_ctx):
        dataset, _, scorer = scorer_ctx
        node = RelationalNode(4, 5, (4, 5))  # flora rare: f=2 each
        n = len(dataset)
        expected = math.log2(n / 4) / math.log2(n)
        assert scorer.disambiguation_similarity(node) == pytest.approx(expected)

    def test_rare_names_score_higher_than_common(self, scorer_ctx):
        dataset, _, scorer = scorer_ctx
        rare = RelationalNode(4, 5, (4, 5))
        common = RelationalNode(2, 6, (2, 6))  # mary taylor ×2 both sides
        assert scorer.disambiguation_similarity(
            rare
        ) > scorer.disambiguation_similarity(common)

    def test_bounded(self, scorer_ctx):
        _, _, scorer = scorer_ctx
        for pair in ((1, 2), (2, 6), (4, 5)):
            node = RelationalNode(pair[0], pair[1], pair)
            assert 0.0 <= scorer.disambiguation_similarity(node) <= 1.0


class TestCombinedSimilarity:
    def test_gamma_mixing(self, scorer_ctx):
        dataset, config, scorer = scorer_ctx
        node = RelationalNode(4, 5, (4, 5))
        node.atomic["first_name"] = AtomicNode("first_name", "flora", "flora", 1.0)
        node.atomic["surname"] = AtomicNode("surname", "rare", "rare", 1.0)
        s_a = scorer.atomic_similarity(node)
        s_d = scorer.disambiguation_similarity(node)
        expected = config.gamma * s_a + (1 - config.gamma) * s_d
        assert scorer.combined_similarity(node) == pytest.approx(expected)

    def test_amb_disabled_is_pure_atomic(self):
        dataset = _make_dataset()
        config = SnapsConfig(use_ambiguity=False)
        scorer = PairScorer(dataset, config)
        node = RelationalNode(4, 5, (4, 5))
        node.atomic["first_name"] = AtomicNode("first_name", "flora", "flora", 1.0)
        node.atomic["surname"] = AtomicNode("surname", "rare", "rare", 1.0)
        assert scorer.combined_similarity(node) == scorer.atomic_similarity(node)


class TestPropagation:
    def test_prop_a_repoints_surname(self):
        """The paper's Figure 4 example: a woman's maiden-name record
        re-points the (smith, taylor) atomic node to (tayler, taylor)."""
        dataset = _make_dataset()
        config = SnapsConfig()
        scorer = PairScorer(dataset, config)
        store = EntityStore(dataset)
        from repro.core.dependency_graph import DependencyGraph

        graph = DependencyGraph(dataset)
        # Entity {1, 3}: surnames {tayler, smith}.
        store.merge(1, 3)
        node = RelationalNode(3, 2, (2, 3))
        node.atomic["surname"] = AtomicNode("surname", "smith", "taylor", 0.0)
        scorer.propagate_values(graph, node, store)
        assert node.atomic["surname"].key()[1:] == ("tayler", "taylor")

    def test_prop_a_registers_atomic_nodes_in_every_graph(self):
        """PROP-A registers a memo entry's atomic nodes once, when the
        entry is computed; a scorer reused on another graph must still
        count them in that graph's |N_A|."""
        dataset = _make_dataset()
        scorer = PairScorer(dataset, SnapsConfig())
        store = EntityStore(dataset)
        from repro.core.dependency_graph import DependencyGraph

        store.merge(1, 3)
        graphs = [DependencyGraph(dataset), DependencyGraph(dataset)]
        for graph in graphs:
            scorer.propagate_values(graph, RelationalNode(3, 2, (2, 3)), store)
        assert graphs[0].n_atomic == graphs[1].n_atomic > 0

    def test_prop_a_removes_below_threshold(self):
        dataset = _make_dataset()
        config = SnapsConfig()
        scorer = PairScorer(dataset, config)
        store = EntityStore(dataset)
        from repro.core.dependency_graph import DependencyGraph

        graph = DependencyGraph(dataset)
        node = RelationalNode(3, 4, (3, 4))  # mary smith vs flora rare
        node.atomic["surname"] = AtomicNode("surname", "smith", "rare", 0.95)
        scorer.propagate_values(graph, node, store)
        assert "surname" not in node.atomic

    def test_value_similarity_cached(self, scorer_ctx):
        _, _, scorer = scorer_ctx
        first = scorer.value_similarity("surname", "tayler", "taylor")
        second = scorer.value_similarity("surname", "taylor", "tayler")
        assert first == second
