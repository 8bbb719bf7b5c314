"""The paper's own worked examples, encoded as tests.

Each test cites the section it reproduces; together they pin the
implementation to the paper's semantics.
"""

import math

import pytest

from repro.blocking.candidates import CandidatePair
from repro.core import SnapsConfig
from repro.core.bootstrap import bootstrap_merge
from repro.core.constraints import ConstraintChecker
from repro.core.dependency_graph import AtomicNode, build_dependency_graph
from repro.core.entities import EntityStore
from repro.core.merging import iterative_merge
from repro.core.scoring import PairScorer
from repro.data.records import Certificate, Dataset, Record
from repro.data.roles import CertificateType, Role


class TestSection423WorkedExample:
    """Section 4.2.3: s_a = (0.5·1.0 + 0.3·0.9 + 0.2·0.9) / 1.0 = 0.95 and
    s_d = log2(100/(45+12)) / log2(100) ≈ 0.12."""

    def test_atomic_similarity(self):
        records = [
            Record(1, 1, Role.BB, {"first_name": "mary", "surname": "tayler",
                                   "parish": "klmor", "event_year": "1870",
                                   "gender": "f"}, 1),
            Record(2, 2, Role.DD, {"first_name": "mary", "surname": "taylor",
                                   "parish": "kilmore", "event_year": "1930",
                                   "gender": "f"}, 1),
        ]
        certs = [
            Certificate(1, CertificateType.BIRTH, 1870, "klmor", {Role.BB: 1}),
            Certificate(2, CertificateType.DEATH, 1930, "kilmore", {Role.DD: 2}),
        ]
        dataset = Dataset("ex", records, certs)
        scorer = PairScorer(dataset, SnapsConfig())
        graph = build_dependency_graph(dataset, [CandidatePair(1, 2)], SnapsConfig())
        # The example's similarities, in place of the comparators' own.
        for atomic in (
            AtomicNode("first_name", "mary", "mary", 1.0),
            AtomicNode("surname", "tayler", "taylor", 0.9),
            AtomicNode("parish", "klmor", "kilmore", 0.9),
        ):
            graph.set_atomic(0, atomic.attribute, atomic)
        assert set(graph.atomic(0)) == {"first_name", "surname", "parish"}
        assert scorer.atomic_similarity(graph, 0) == pytest.approx(0.95)

    def test_disambiguation_similarity_formula(self):
        """Eq. (2) with |O| = 100 and frequencies 45 + 12 gives ≈ 0.12."""
        expected = math.log2(100 / (45 + 12)) / math.log2(100)
        assert expected == pytest.approx(0.1218, abs=1e-3)
        # And the implementation computes exactly this formula.
        from repro.core.scoring import NameFrequencyIndex

        class _Frequencies(NameFrequencyIndex):
            def __init__(self):
                self.total_records = 100

            def frequency(self, record):
                return 45 if record.record_id == 1 else 12

        records = [
            Record(1, 1, Role.BB, {"event_year": "1870"}, 1),
            Record(2, 2, Role.DD, {"event_year": "1930"}, 1),
        ]
        certs = [
            Certificate(1, CertificateType.BIRTH, 1870, "x", {Role.BB: 1}),
            Certificate(2, CertificateType.DEATH, 1930, "x", {Role.DD: 2}),
        ]
        dataset = Dataset("eq2", records, certs)
        scorer = PairScorer(
            dataset, SnapsConfig(), frequency_index=_Frequencies()
        )
        graph = build_dependency_graph(dataset, [CandidatePair(1, 2)], SnapsConfig())
        assert scorer.disambiguation_similarity(graph, 0) == pytest.approx(
            expected, abs=1e-9
        )


class TestFigure4Scenario:
    """Figures 3/4: a baby record r1 (maiden surname Smith) merges with a
    mother record r9 (married surname Tayler); PROP-A then re-points the
    (Smith, Taylor) surname node of (r1, r4) to (Tayler, Taylor) so the
    woman's death record r4 can link despite the name change."""

    @pytest.fixture()
    def scenario(self):
        records = [
            # r1: her own birth (maiden name smith).
            Record(1, 1, Role.BB, {"first_name": "mary", "surname": "smith",
                                   "gender": "f", "event_year": "1850",
                                   "parish": "kilmore"}, 1),
            # r9: her as mother years later (married surname tayler,
            # transcribed with a variant spelling).
            Record(9, 3, Role.BM, {"first_name": "mary", "surname": "tayler",
                                   "event_year": "1875",
                                   "parish": "kilmore"}, 1),
            # r4: her death record (married surname taylor).
            Record(4, 2, Role.DD, {"first_name": "mary", "surname": "taylor",
                                   "gender": "f", "event_year": "1899",
                                   "age": "49", "parish": "kilmore"}, 1),
        ]
        certs = [
            Certificate(1, CertificateType.BIRTH, 1850, "kilmore", {Role.BB: 1}),
            Certificate(2, CertificateType.DEATH, 1899, "kilmore", {Role.DD: 4}),
            Certificate(3, CertificateType.BIRTH, 1875, "kilmore", {Role.BM: 9}),
        ]
        return Dataset("fig4", records, certs)

    def test_prop_a_enables_the_cross_name_link(self, scenario):
        """From the paper's premise — "(r1, r9) is already merged" — the
        propagated surname lets the maiden-name record link to the
        married-name death record."""
        config = SnapsConfig()
        pairs = [CandidatePair(1, 4)]
        graph = build_dependency_graph(scenario, pairs, config)
        store = EntityStore(scenario)
        store.merge(1, 9)  # the paper's starting assumption
        scorer = PairScorer(scenario, config)
        assert graph.key(0) == (1, 4)
        # Before propagation: smith vs taylor disagree on the surname.
        assert "surname" not in graph.atomic(0)
        before = scorer.atomic_similarity(graph, 0)
        scorer.propagate_values(graph, 0, store)
        # After propagation the node carries the (tayler, taylor) pair.
        assert graph.atomic(0)["surname"].key()[1:] == ("tayler", "taylor")
        after = scorer.atomic_similarity(graph, 0)
        assert after > before
        assert after >= config.merge_threshold

    def test_without_propagation_the_death_link_fails(self, scenario):
        """The same premise without PROP-A: smith vs taylor keeps the
        node below the merge threshold forever."""
        config = SnapsConfig(use_propagation=False)
        pairs = [CandidatePair(1, 4)]
        graph = build_dependency_graph(scenario, pairs, config)
        store = EntityStore(scenario)
        store.merge(1, 9)
        scorer = PairScorer(scenario, config)
        assert graph.key(0) == (1, 4)
        assert scorer.atomic_similarity(graph, 0) < config.merge_threshold


class TestSection422Constraints:
    """Section 4.2.2: a Bb can become a Bm only 15–55 years later, and a
    person has exactly one birth and one death record."""

    def test_temporal_window(self):
        checker = ConstraintChecker(temporal_slack_years=0)
        baby = Record(1, 1, Role.BB, {"event_year": "1870", "gender": "f"}, 1)
        young_mother = Record(2, 2, Role.BM, {"event_year": "1880"}, 2)
        plausible_mother = Record(3, 3, Role.BM, {"event_year": "1900"}, 3)
        assert not checker.records_compatible(baby, young_mother)  # age 10
        assert checker.records_compatible(baby, plausible_mother)  # age 30

    def test_one_death_per_person(self):
        """Figure 4: r1 linked to r4(Dd) forbids linking r1 to r12(Dd)."""
        records = [
            Record(1, 1, Role.BB, {"first_name": "john", "surname": "ross",
                                   "gender": "m", "event_year": "1870"}, 1),
            Record(4, 2, Role.DD, {"first_name": "john", "surname": "ross",
                                   "gender": "m", "event_year": "1890",
                                   "age": "20"}, 1),
            Record(12, 3, Role.DD, {"first_name": "john", "surname": "ross",
                                    "gender": "m", "event_year": "1895",
                                    "age": "25"}, 2),
        ]
        certs = [
            Certificate(1, CertificateType.BIRTH, 1870, "uig", {Role.BB: 1}),
            Certificate(2, CertificateType.DEATH, 1890, "uig", {Role.DD: 4}),
            Certificate(3, CertificateType.DEATH, 1895, "uig", {Role.DD: 12}),
        ]
        dataset = Dataset("link", records, certs)
        store = EntityStore(dataset)
        checker = ConstraintChecker()
        store.merge(1, 4)
        assert not checker.can_merge(
            store, dataset.record(1), dataset.record(12)
        )


class TestSection6IndexThreshold:
    """Section 6: S holds pairs sharing ≥1 bigram with similarity ≥ 0.5;
    self-similarity is 1, disjoint strings score 0."""

    def test_index_semantics(self):
        from repro.index import SimilarityAwareIndex

        index = SimilarityAwareIndex(["macdonald", "macdonell", "xu"], threshold=0.5)
        matches = dict(index.matches("macdonald"))
        assert matches["macdonald"] == 1.0
        assert 0.5 <= matches["macdonell"] < 1.0
        assert "xu" not in matches  # no shared bigram
