"""Tests for the snapshot store: round trips, integrity, incremental ingest."""

from __future__ import annotations

import json

import pytest

from repro.core import SnapsConfig, SnapsResolver
from repro.data.records import Certificate, Dataset, Record, concat_datasets
from repro.query import Query, QueryEngine
from repro.store import (
    IncrementalResolver,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotSchemaError,
    SnapshotStore,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
)

QUERIES = [
    Query(first_name="john", surname="macdonald"),
    Query(first_name="mary", surname="mackenzie", year_from=1860, year_to=1900),
    Query(first_name="jon", surname="macdonld", parish="portree"),
]


def cluster_sets(entities):
    """Clusters as record-id frozensets (entity ids are run-dependent)."""
    return {frozenset(e.record_ids) for e in entities.entities(min_size=2)}


def top_k(engine, query, k=10):
    return [
        (hit.entity.entity_id, hit.score_percent, hit.attribute_scores)
        for hit in engine.search(query, top_m=k)
    ]


@pytest.fixture(scope="module")
def saved_store(tmp_path_factory, resolved_tiny):
    store = SnapshotStore(tmp_path_factory.mktemp("snapstore"))
    manifest = store.save(resolved_tiny, config=SnapsConfig())
    return store, manifest


class TestRoundTrip:
    def test_clusters_survive_save_load(self, saved_store, resolved_tiny):
        store, _ = saved_store
        loaded = store.load()
        assert {frozenset(c["records"]) for c in loaded.clusters} == cluster_sets(
            resolved_tiny.entities
        )

    def test_dataset_round_trips(self, saved_store, tiny_dataset):
        store, _ = saved_store
        loaded = store.load(artifacts=("dataset",))
        assert len(loaded.dataset) == len(tiny_dataset)
        assert (
            loaded.dataset.content_fingerprint()
            == tiny_dataset.content_fingerprint()
        )

    def test_warm_engine_matches_cold_engine(
        self, saved_store, tiny_pedigree_graph
    ):
        store, _ = saved_store
        loaded = store.load(artifacts=("graph", "indexes"))
        cold = QueryEngine(tiny_pedigree_graph)
        warm = QueryEngine(
            loaded.graph,
            keyword_index=loaded.keyword_index,
            sim_index=loaded.sim_index,
        )
        for query in QUERIES:
            assert top_k(warm, query) == top_k(cold, query)

    def test_graph_summary_round_trips(self, saved_store, resolved_tiny):
        store, _ = saved_store
        loaded = store.load(artifacts=("clusters",))
        assert loaded.graph_summary == {
            "n_atomic": resolved_tiny.n_atomic,
            "n_relational": resolved_tiny.n_relational,
        }

    def test_selective_load_skips_unrequested_groups(self, saved_store):
        store, _ = saved_store
        loaded = store.load(artifacts=("graph",))
        assert loaded.graph is not None
        assert loaded.dataset is None
        assert loaded.keyword_index is None

    def test_unknown_artifact_group_rejected(self, saved_store):
        store, _ = saved_store
        with pytest.raises(ValueError, match="unknown artefact group"):
            store.load(artifacts=("nonsense",))


class TestContentAddressing:
    def test_resave_identical_content_reuses_id(self, saved_store, resolved_tiny):
        store, manifest = saved_store
        again = store.save(resolved_tiny, config=SnapsConfig())
        assert again.snapshot_id == manifest.snapshot_id
        assert store.list_ids().count(manifest.snapshot_id) == 1

    def test_head_points_at_latest(self, saved_store):
        store, manifest = saved_store
        assert store.latest() == store.log()[0].snapshot_id

    def test_verify_reports_clean(self, saved_store):
        store, manifest = saved_store
        assert store.verify(manifest.snapshot_id) == []

    def test_config_fingerprint_round_trip(self):
        config = SnapsConfig(merge_threshold=0.8, use_refinement=False)
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config
        assert config_fingerprint(rebuilt) == config_fingerprint(config)

    def test_config_fingerprint_sensitive_to_changes(self):
        assert config_fingerprint(SnapsConfig()) != config_fingerprint(
            SnapsConfig(merge_threshold=0.7)
        )


class TestIntegrity:
    @pytest.fixture()
    def corrupt_store(self, tmp_path, resolved_tiny):
        store = SnapshotStore(tmp_path / "store")
        manifest = store.save(resolved_tiny, config=SnapsConfig())
        return store, manifest

    def test_corrupted_payload_fails_loudly_on_load(self, corrupt_store):
        store, manifest = corrupt_store
        payload = store.path_of(manifest.snapshot_id) / "keyword_index.npz"
        payload.write_bytes(b"\x00garbage" + payload.read_bytes()[8:])
        with pytest.raises(SnapshotIntegrityError, match="corrupt"):
            store.load(artifacts=("indexes",))

    def test_corrupted_payload_detected_by_verify(self, corrupt_store):
        store, manifest = corrupt_store
        payload = store.path_of(manifest.snapshot_id) / "clusters.json"
        payload.write_text(payload.read_text() + " ")
        problems = store.verify(manifest.snapshot_id)
        assert any("checksum mismatch" in p for p in problems)

    def test_missing_payload_fails_loudly(self, corrupt_store):
        store, manifest = corrupt_store
        (store.path_of(manifest.snapshot_id) / "graph.json").unlink()
        with pytest.raises(SnapshotIntegrityError, match="missing"):
            store.load(artifacts=("graph",))

    def test_unknown_schema_version_rejected(self, corrupt_store):
        store, manifest = corrupt_store
        manifest_path = store.path_of(manifest.snapshot_id) / "manifest.json"
        blob = json.loads(manifest_path.read_text())
        blob["schema_version"] = 999
        manifest_path.write_text(json.dumps(blob))
        with pytest.raises(SnapshotSchemaError, match="version"):
            store.load()

    def test_empty_store_raises_actionable_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="empty"):
            SnapshotStore(tmp_path / "nowhere").load()

    def test_unknown_snapshot_id_raises(self, corrupt_store):
        store, _ = corrupt_store
        with pytest.raises(SnapshotError, match="no snapshot"):
            store.load("deadbeef00000000")


def reidentify(dataset, name, rid_base, cid_base, pid_base):
    """Copy ``dataset`` with shifted record/cert/person ids (a delta batch)."""
    rid_map = {rid: rid_base + i for i, rid in enumerate(sorted(dataset.records))}
    cid_map = {
        cid: cid_base + i for i, cid in enumerate(sorted(dataset.certificates))
    }
    records = [
        Record(
            record_id=rid_map[r.record_id],
            cert_id=cid_map[r.cert_id],
            role=r.role,
            attributes=dict(r.attributes),
            person_id=pid_base + r.person_id,
        )
        for r in dataset
    ]
    certificates = [
        Certificate(
            cert_id=cid_map[c.cert_id],
            cert_type=c.cert_type,
            year=c.year,
            parish=c.parish,
            roles={role: rid_map[rid] for role, rid in c.roles.items()},
            children=[rid_map[rid] for rid in c.children],
            others=[rid_map[rid] for rid in c.others],
        )
        for c in dataset.certificates.values()
    ]
    return Dataset(name, records, certificates)


def split_by_certificates(dataset, n_delta):
    """(base, delta) datasets: the last ``n_delta`` certificates form the
    delta batch."""
    cert_ids = sorted(dataset.certificates)
    delta_ids = set(cert_ids[-n_delta:])

    def subset(name, keep):
        certs = [c for cid, c in dataset.certificates.items() if cid in keep]
        rids = {rid for c in certs for rid in c.member_record_ids()}
        return Dataset(name, [r for r in dataset if r.record_id in rids], certs)

    return subset("base", set(cert_ids) - delta_ids), subset("delta", delta_ids)


class TestConcatDatasets:
    def test_concat_disjoint(self, tiny_dataset):
        delta = reidentify(tiny_dataset, "delta", 50000, 40000, 90000)
        combined = concat_datasets(tiny_dataset, delta)
        assert len(combined) == 2 * len(tiny_dataset)
        assert combined.name == f"{tiny_dataset.name}+delta"

    def test_record_id_collision_rejected(self, tiny_dataset):
        with pytest.raises(ValueError, match="record id"):
            concat_datasets(tiny_dataset, tiny_dataset)

    def test_cert_id_collision_rejected(self, tiny_dataset):
        # Fresh record ids, but certificate ids reuse the base dataset's.
        first_cid = sorted(tiny_dataset.certificates)[0]
        delta = reidentify(
            tiny_dataset, "delta", 50000, cid_base=first_cid, pid_base=90000
        )
        with pytest.raises(ValueError, match="certificate id"):
            concat_datasets(tiny_dataset, delta)


class TestIncrementalIngest:
    @staticmethod
    def full_reresolve_manifest(root, base_ds, delta_ds, parent, config):
        """A full re-resolve of base + delta saved with ``parent`` into a
        separate store, so its payloads are written afresh."""
        full = SnapsResolver(config).resolve(concat_datasets(base_ds, delta_ds))
        return SnapshotStore(root).save(
            full, parent=parent, config=config, similarity_threshold=0.5
        )

    def test_ingest_matches_full_reresolve(self, tiny_dataset, tmp_path):
        base_ds, delta_ds = split_by_certificates(tiny_dataset, 10)
        config = SnapsConfig()
        store = SnapshotStore(tmp_path / "store")
        base_manifest = store.save(
            SnapsResolver(config).resolve(base_ds), config=config
        )

        outcome = IncrementalResolver(store).ingest(delta_ds)
        expected = self.full_reresolve_manifest(
            tmp_path / "full", base_ds, delta_ds, base_manifest.snapshot_id, config
        )
        # Byte-identical child: same content address, same checksum for
        # every artefact (clusters.json's graph_summary included).
        assert outcome.manifest.snapshot_id == expected.snapshot_id
        assert {
            name: blob["sha256"] for name, blob in outcome.manifest.artifacts.items()
        } == {name: blob["sha256"] for name, blob in expected.artifacts.items()}
        child = store.load(artifacts=("clusters",))
        assert child.graph_summary == {
            "n_atomic": outcome.linkage.n_atomic,
            "n_relational": outcome.linkage.n_relational,
        }
        # lineage: child points at base, log walks back to the root
        assert outcome.manifest.parent == base_manifest.snapshot_id
        assert store.lineage_ids() == [
            outcome.manifest.snapshot_id,
            base_manifest.snapshot_id,
        ]
        # every record and every candidate pair is re-resolved
        stats = outcome.stats
        assert stats["combined_records"] == len(base_ds) + len(delta_ds)
        assert stats["dirty_records"] == stats["combined_records"]
        assert stats["dirty_pairs"] == stats["candidate_pairs"] > 0

    def test_chain_matches_full_resolve(self, tiny_dataset, tmp_path):
        base_ds, rest = split_by_certificates(tiny_dataset, 12)
        first, second = split_by_certificates(rest, 6)
        config = SnapsConfig()
        store = SnapshotStore(tmp_path / "store")
        root = store.save(SnapsResolver(config).resolve(base_ds), config=config)
        one = IncrementalResolver(store).ingest(first, workers=0)
        two = IncrementalResolver(store).ingest(second, workers=1)
        expected = self.full_reresolve_manifest(
            tmp_path / "full",
            concat_datasets(base_ds, first),
            second,
            one.manifest.snapshot_id,
            config,
        )
        assert two.manifest.snapshot_id == expected.snapshot_id
        assert store.lineage_ids() == [
            two.manifest.snapshot_id,
            one.manifest.snapshot_id,
            root.snapshot_id,
        ]

    def test_ingested_snapshot_serves_identically(self, tiny_dataset, tmp_path):
        from repro.pedigree import build_pedigree_graph

        base_ds, delta_ds = split_by_certificates(tiny_dataset, 6)
        config = SnapsConfig()
        store = SnapshotStore(tmp_path / "store")
        store.save(SnapsResolver(config).resolve(base_ds), config=config)
        IncrementalResolver(store).ingest(delta_ds)

        combined = concat_datasets(base_ds, delta_ds)
        full = SnapsResolver(config).resolve(combined)
        cold = QueryEngine(build_pedigree_graph(combined, full.entities))
        loaded = store.load(artifacts=("graph", "indexes"))
        warm = QueryEngine(
            loaded.graph,
            keyword_index=loaded.keyword_index,
            sim_index=loaded.sim_index,
        )
        # Entity ids are assigned in run order, so they differ between the
        # full re-resolve and the ingest; scores and per-attribute
        # breakdowns must not (sorted to neutralise tie ordering).
        for query in QUERIES:
            assert sorted(
                (score, sorted(scores.items()))
                for _, score, scores in top_k(warm, query)
            ) == sorted(
                (score, sorted(scores.items()))
                for _, score, scores in top_k(cold, query)
            )

    def test_ingest_uses_manifest_config(self, tiny_dataset, tmp_path):
        base_ds, delta_ds = split_by_certificates(tiny_dataset, 6)
        config = SnapsConfig(merge_threshold=0.9, use_refinement=False)
        store = SnapshotStore(tmp_path / "store")
        store.save(SnapsResolver(config).resolve(base_ds), config=config)
        outcome = IncrementalResolver(store).ingest(delta_ds)
        assert outcome.manifest.snaps_config() == config


class TestLegacyShardSidecar:
    """Snapshots written by the retired sharded resolver carry a
    ``shards/`` sidecar directory outside the manifest; they must still
    load, verify, inspect and serve as an ingest parent."""

    @pytest.fixture()
    def legacy_store(self, tiny_dataset, tmp_path):
        base_ds, delta_ds = split_by_certificates(tiny_dataset, 6)
        store = SnapshotStore(tmp_path / "store")
        manifest = store.save(SnapsResolver().resolve(base_ds), config=SnapsConfig())
        shards = store.path_of(manifest.snapshot_id) / "shards"
        shards.mkdir()
        records = sorted(base_ds.records)
        (shards / "shard-0000.json").write_text(
            json.dumps(
                {
                    "format": "snaps-shard",
                    "schema_version": 1,
                    "shard": 0,
                    "records": records,
                    "clusters": [],
                }
            )
        )
        (shards / "merge-manifest.json").write_text(
            json.dumps(
                {
                    "format": "snaps-shard-merge",
                    "schema_version": 1,
                    "n_shards": 1,
                    "partition_fingerprint": "0" * 16,
                    "covered_records": len(records),
                    "shards": [{"shard": 0, "path": "shard-0000.json"}],
                },
                indent=2,
            )
        )
        return store, manifest, delta_ds

    def test_loads_and_verifies(self, legacy_store):
        store, manifest, _ = legacy_store
        loaded = store.load(manifest.snapshot_id)
        assert loaded.graph is not None and loaded.keyword_index is not None
        assert store.verify(manifest.snapshot_id) == []

    def test_cli_log_inspect_verify(self, legacy_store, capsys):
        from repro.cli import main

        store, manifest, _ = legacy_store
        for command in ("log", "inspect", "verify"):
            assert main(["snapshot", command, "--store", str(store.root)]) == 0
        out = capsys.readouterr().out
        assert f"snapshot {manifest.snapshot_id}: OK" in out
        assert "shards" not in out

    def test_ingest_on_top(self, legacy_store):
        store, manifest, delta_ds = legacy_store
        outcome = IncrementalResolver(store).ingest(delta_ds)
        assert outcome.manifest.parent == manifest.snapshot_id
        assert store.verify() == []
        assert not (store.path_of(outcome.manifest.snapshot_id) / "shards").exists()
