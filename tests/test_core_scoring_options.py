"""Tests for the optional scoring features: temporal decay and geocoded
address comparison."""

import pytest

from repro.core.config import SnapsConfig
from repro.core.dependency_graph import AtomicNode, build_dependency_graph
from repro.core.scoring import PairScorer
from repro.data.records import Certificate, Dataset, Record
from repro.data.roles import CertificateType, Role


def _two_mothers(year_b: int, address_b: str = "9 glen road uig"):
    records = [
        Record(1, 1, Role.BM, {"first_name": "mary", "surname": "ross",
                               "address": "5 high street uig",
                               "event_year": "1870"}, 1),
        Record(2, 2, Role.BM, {"first_name": "mary", "surname": "ross",
                               "address": address_b,
                               "event_year": str(year_b)}, 1),
    ]
    certs = [
        Certificate(1, CertificateType.BIRTH, 1870, "uig", {Role.BM: 1}),
        Certificate(2, CertificateType.BIRTH, year_b, "uig", {Role.BM: 2}),
    ]
    return Dataset("decay", records, certs)


def _node(dataset, *atoms):
    """A graph of the pair (1, 2) whose node 0 carries exactly ``atoms``."""
    graph = build_dependency_graph(dataset, [(1, 2)], SnapsConfig())
    for attribute in graph.atom_ids:
        graph.set_atomic(0, attribute, None)
    for atomic in atoms:
        graph.set_atomic(0, atomic.attribute, atomic)
    return graph


def _node_with_names(dataset, *atoms):
    return _node(
        dataset,
        AtomicNode("first_name", "mary", "mary", 1.0),
        AtomicNode("surname", "ross", "ross", 1.0),
        *atoms,
    )


class TestTemporalDecay:
    def test_decay_softens_old_address_disagreement(self):
        dataset = _two_mothers(1890)  # 20-year gap, address changed
        graph = _node_with_names(dataset)
        plain = PairScorer(dataset, SnapsConfig()).atomic_similarity(graph, 0)
        decayed = PairScorer(
            dataset, SnapsConfig(temporal_decay_half_life=10.0)
        ).atomic_similarity(graph, 0)
        assert decayed > plain

    def test_no_decay_for_small_gap(self):
        dataset = _two_mothers(1871)  # 1-year gap
        graph = _node_with_names(dataset)
        plain = PairScorer(dataset, SnapsConfig()).atomic_similarity(graph, 0)
        decayed = PairScorer(
            dataset, SnapsConfig(temporal_decay_half_life=10.0)
        ).atomic_similarity(graph, 0)
        assert decayed == pytest.approx(plain, abs=0.02)

    def test_must_attributes_never_decay(self):
        # Disagreeing first names stay fatal regardless of gap.
        dataset = _two_mothers(1890)
        dataset.record(2).attributes["first_name"] = "flora"
        graph = _node(dataset, AtomicNode("surname", "ross", "ross", 1.0))
        scorer = PairScorer(dataset, SnapsConfig(temporal_decay_half_life=5.0))
        # Must category contributes 0 with full weight.
        assert scorer.atomic_similarity(graph, 0) < 0.6

    def test_matched_extra_attribute_unaffected(self):
        dataset = _two_mothers(1890, address_b="5 high street uig")
        graph = _node_with_names(
            dataset,
            AtomicNode("address", "5 high street uig", "5 high street uig", 1.0),
        )
        plain = PairScorer(dataset, SnapsConfig()).atomic_similarity(graph, 0)
        decayed = PairScorer(
            dataset, SnapsConfig(temporal_decay_half_life=10.0)
        ).atomic_similarity(graph, 0)
        assert decayed == pytest.approx(plain)

    def test_invalid_half_life(self):
        with pytest.raises(ValueError):
            SnapsConfig(temporal_decay_half_life=0.0)

    def test_resolver_runs_with_decay(self, tiny_dataset):
        from repro.core import SnapsResolver

        result = SnapsResolver(
            SnapsConfig(temporal_decay_half_life=10.0)
        ).resolve(tiny_dataset)
        assert result.matched_pairs("Bp-Bp")


class TestGeocodedAddressConfig:
    def test_resolver_registers_geo_comparator(self):
        from repro.core import SnapsResolver

        resolver = SnapsResolver(SnapsConfig(use_geocoded_addresses=True))
        score = resolver.registry.compare(
            "address", "5 high street portree", "9 high street portree"
        )
        assert score == 1.0  # same street geocodes to the same point

    def test_default_keeps_token_comparator(self):
        from repro.core import SnapsResolver

        resolver = SnapsResolver(SnapsConfig())
        score = resolver.registry.compare(
            "address", "5 high street portree", "9 high street portree"
        )
        assert score < 1.0  # token overlap sees the differing number

    def test_resolver_runs_with_geocoding(self, tiny_dataset):
        from repro.core import SnapsResolver

        result = SnapsResolver(
            SnapsConfig(use_geocoded_addresses=True)
        ).resolve(tiny_dataset)
        assert result.matched_pairs("Bp-Bp")
