"""Round-trip and cross-subsystem tests for census datasets."""

import pytest

from repro.anonymize import anonymise_dataset
from repro.data.loader import load_dataset_csv, save_dataset_csv
from repro.data.roles import CENSUS_ROLES, CertificateType
from repro.data.synthetic import make_ios_census_dataset


@pytest.fixture(scope="module")
def census_dataset():
    return make_ios_census_dataset(scale=0.05, seed=31)


class TestCensusCsvRoundTrip:
    def test_households_survive(self, census_dataset, tmp_path):
        stem = tmp_path / "census"
        save_dataset_csv(census_dataset, stem)
        loaded = load_dataset_csv(stem)
        for cert in census_dataset.certificates.values():
            other = loaded.certificates[cert.cert_id]
            assert other.children == cert.children
            assert other.others == cert.others
            assert other.cert_type == cert.cert_type

    def test_census_records_survive(self, census_dataset, tmp_path):
        stem = tmp_path / "census"
        save_dataset_csv(census_dataset, stem)
        loaded = load_dataset_csv(stem)
        original = {
            r.record_id for r in census_dataset if r.role in CENSUS_ROLES
        }
        roundtripped = {r.record_id for r in loaded if r.role in CENSUS_ROLES}
        assert original == roundtripped

    def test_truth_survives(self, census_dataset, tmp_path):
        stem = tmp_path / "census"
        save_dataset_csv(census_dataset, stem)
        loaded = load_dataset_csv(stem)
        assert loaded.true_match_pairs("Cp-Cp") == census_dataset.true_match_pairs(
            "Cp-Cp"
        )


class TestCensusAnonymisation:
    def test_census_dataset_anonymises(self, census_dataset):
        anonymised, report = anonymise_dataset(census_dataset, k=5, seed=9)
        assert len(anonymised) == len(census_dataset)
        # Household structure intact.
        for cert in census_dataset.certificates.values():
            if cert.cert_type is CertificateType.CENSUS:
                other = anonymised.certificates[cert.cert_id]
                assert other.children == cert.children

    def test_census_years_shift_with_events(self, census_dataset):
        anonymised, _ = anonymise_dataset(census_dataset, k=5, seed=9)
        offsets = set()
        for cert in census_dataset.certificates.values():
            other = anonymised.certificates[cert.cert_id]
            offsets.add(other.year - cert.year)
        assert len(offsets) == 1


class TestDependencyGraphCensusGroups:
    def test_household_pair_groups_carry_relationship_edges(self, census_dataset):
        from repro.blocking import LshBlocker
        from repro.blocking.composite import CompositeBlocker, PhoneticNameKeyBlocker
        from repro.blocking.candidates import generate_candidate_pairs
        from repro.core import SnapsConfig
        from repro.core.dependency_graph import build_dependency_graph

        config = SnapsConfig()
        blocker = CompositeBlocker([LshBlocker(), PhoneticNameKeyBlocker()])
        pairs = list(generate_candidate_pairs(census_dataset, blocker))
        graph = build_dependency_graph(census_dataset, pairs, config)
        census_groups = [
            g
            for g, (cert_a, cert_b) in enumerate(graph.group_keys.tolist())
            if census_dataset.certificates[cert_a].cert_type
            is CertificateType.CENSUS
            and census_dataset.certificates[cert_b].cert_type
            is CertificateType.CENSUS
        ]
        assert census_groups, "census household pairs should form groups"
        assert any(graph.group_edges(g) for g in census_groups), (
            "household co-membership should create relationship edges"
        )


class TestQueryOverCensusEntities:
    def test_census_only_person_findable(self, census_dataset):
        """A person who appears only in censuses (e.g. an immigrant with
        no vital events in the window) must still be searchable."""
        from repro.core import SnapsConfig, SnapsResolver
        from repro.pedigree import build_pedigree_graph
        from repro.query import Query, QueryEngine

        result = SnapsResolver(SnapsConfig()).resolve(census_dataset)
        graph = build_pedigree_graph(census_dataset, result.entities)
        census_only = next(
            (
                e
                for e in graph
                if e.roles
                and all(role in CENSUS_ROLES for role in e.roles)
                and e.first("first_name")
                and e.first("surname")
            ),
            None,
        )
        if census_only is None:
            pytest.skip("no census-only entity in this sample")
        engine = QueryEngine(graph)
        hits = engine.search(
            Query(
                first_name=census_only.first("first_name"),
                surname=census_only.first("surname"),
            ),
            top_m=10,
        )
        assert any(h.entity.entity_id == census_only.entity_id for h in hits)
