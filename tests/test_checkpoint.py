"""Tests for per-phase resolver checkpoints (repro.core.checkpoint)."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.blocking.candidates import CandidatePair
from repro.core.checkpoint import (
    ALL_PHASES,
    CheckpointError,
    ResolveCheckpointer,
    pipeline_phases,
)
from repro.core.config import SnapsConfig
from repro.core.entities import EntityStore
from repro.data.records import Certificate, Dataset, Record
from repro.data.roles import CertificateType, Role
from repro.store import codecs


@pytest.fixture()
def dataset():
    records, certs = [], []
    for i in range(1, 7):
        records.append(
            Record(i, i, Role.BM,
                   {"first_name": "mary", "surname": "ross",
                    "event_year": str(1870 + i)}, person_id=1)
        )
        certs.append(
            Certificate(i, CertificateType.BIRTH, 1870 + i, "uig", {Role.BM: i})
        )
    return Dataset("ck", records, certs)


@pytest.fixture()
def checkpoint(tmp_path, dataset):
    return ResolveCheckpointer.begin(tmp_path / "ck", dataset, SnapsConfig())


class TestPipelinePhases:
    def test_full_plan(self):
        assert pipeline_phases(SnapsConfig()) == ALL_PHASES

    def test_no_refinement_skips_refine_phases(self):
        phases = pipeline_phases(SnapsConfig(use_refinement=False))
        assert phases == ("blocking", "bootstrap", "merging")


class TestEntityStateRoundTrip:
    def test_merged_and_split_store_survives(self, dataset):
        store = EntityStore(dataset)
        store.merge(1, 2)
        store.merge(2, 3)
        store.merge(4, 5)
        store.remove_record(2)  # splits {1,2,3} into singletons
        blob = codecs.encode_entity_state(store)
        # JSON round trip: what the checkpoint payload actually stores.
        restored = codecs.decode_entity_state(
            json.loads(json.dumps(blob)), dataset
        )
        assert len(restored) == len(store)
        for rid in range(1, 7):
            a = store.entity_of(rid)
            b = restored.entity_of(rid)
            assert a.record_ids == b.record_ids
            assert a.links == b.links
            assert a.entity_id == b.entity_id

    def test_restored_store_continues_identically(self, dataset):
        store = EntityStore(dataset)
        store.merge(1, 2)
        restored = codecs.decode_entity_state(
            codecs.encode_entity_state(store), dataset
        )
        # Future entity ids must not collide with checkpointed ones.
        a = store.merge(3, 4)
        b = restored.merge(3, 4)
        assert a.entity_id == b.entity_id
        assert store.values_of(a, "surname") == restored.values_of(b, "surname")


class TestBeginAndResume:
    def test_begin_writes_meta_and_dataset(self, tmp_path, dataset):
        ResolveCheckpointer.begin(tmp_path / "ck", dataset, SnapsConfig())
        meta = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
        assert meta["format"] == "snaps-resolve-checkpoint"
        assert meta["phases"] == list(ALL_PHASES)
        assert meta["dataset"]["records"] == 6
        assert (tmp_path / "ck" / "dataset.records.csv").exists()

    def test_resume_restores_dataset_and_config(self, tmp_path, dataset):
        config = SnapsConfig(merge_threshold=0.9, use_refinement=False)
        ResolveCheckpointer.begin(tmp_path / "ck", dataset, config)
        ckpt, restored, restored_config = ResolveCheckpointer.resume(
            tmp_path / "ck"
        )
        assert restored.content_fingerprint() == dataset.content_fingerprint()
        assert restored_config == config
        assert ckpt.phases == pipeline_phases(config)

    def test_begin_refuses_different_config(self, tmp_path, dataset):
        ResolveCheckpointer.begin(tmp_path / "ck", dataset, SnapsConfig())
        with pytest.raises(CheckpointError, match="different\\s+configuration"):
            ResolveCheckpointer.begin(
                tmp_path / "ck", dataset, SnapsConfig(merge_threshold=0.5)
            )

    def test_begin_refuses_different_dataset(self, tmp_path, dataset):
        ResolveCheckpointer.begin(tmp_path / "ck", dataset, SnapsConfig())
        other = Dataset(
            "other",
            [r for r in dataset if r.record_id <= 3],
            [dataset.certificates[c] for c in (1, 2, 3)],
        )
        with pytest.raises(CheckpointError, match="different\\s+dataset"):
            ResolveCheckpointer.begin(tmp_path / "ck", other, SnapsConfig())

    def test_begin_fresh_discards_old_phases(self, tmp_path, dataset, checkpoint):
        checkpoint.save_pairs([CandidatePair(1, 2)])
        assert checkpoint.completed_prefix() == ("blocking",)
        reopened = ResolveCheckpointer.begin(
            checkpoint.directory, dataset, SnapsConfig()
        )
        assert reopened.completed_prefix() == ()

    def test_resume_detects_tampered_dataset(self, tmp_path, dataset, checkpoint):
        records_csv = checkpoint.directory / "dataset.records.csv"
        records_csv.write_text(
            records_csv.read_text().replace("mary", "MARY", 1)
        )
        with pytest.raises(CheckpointError, match="fingerprint"):
            ResolveCheckpointer.resume(checkpoint.directory)


class TestReadMetaErrors:
    def test_not_a_checkpoint_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="not a checkpoint directory"):
            ResolveCheckpointer.resume(tmp_path)

    def test_corrupt_meta(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text("{truncated")
        with pytest.raises(CheckpointError, match="corrupt checkpoint meta"):
            ResolveCheckpointer.resume(tmp_path)

    def test_wrong_format(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text(
            json.dumps({"format": "something-else", "version": 1})
        )
        with pytest.raises(CheckpointError, match="not a resolve checkpoint"):
            ResolveCheckpointer.resume(tmp_path)

    def test_unsupported_version(self, tmp_path):
        (tmp_path / "checkpoint.json").write_text(
            json.dumps({"format": "snaps-resolve-checkpoint", "version": 99})
        )
        with pytest.raises(CheckpointError, match="version"):
            ResolveCheckpointer.resume(tmp_path)


class TestPhasePayloads:
    def test_pairs_round_trip(self, checkpoint):
        pairs = [CandidatePair(1, 2), CandidatePair(2, 5), CandidatePair(3, 6)]
        checkpoint.save_pairs(pairs)
        loaded = checkpoint.load_pairs()
        assert loaded.dtype == np.int64
        assert loaded.tolist() == [[1, 2], [2, 5], [3, 6]]

    def test_pair_array_round_trip(self, checkpoint):
        pairs = np.array([[4, 9], [1, 2], [3, 6]], dtype=np.int64)
        checkpoint.save_pairs(pairs)
        assert np.array_equal(checkpoint.load_pairs(), pairs)
        with np.load(checkpoint.directory / "phases" / "blocking.npz") as data:
            assert list(data) == ["pairs"]
            assert data["pairs"].dtype == np.int64
            assert data["pairs"].shape == (3, 2)

    def test_state_round_trip_with_stats(self, dataset, checkpoint):
        store = EntityStore(dataset)
        store.merge(1, 2)
        checkpoint.save_pairs([CandidatePair(1, 2)])
        checkpoint.save_state("bootstrap", store, {"links": 1})
        restored, stats = checkpoint.load_state("bootstrap", dataset)
        assert stats == {"links": 1}
        assert restored.entity_of(1).record_ids == {1, 2}

    def test_unknown_phase_rejected(self, dataset, checkpoint):
        with pytest.raises(CheckpointError, match="not in checkpoint plan"):
            checkpoint.save_state("warmup", EntityStore(dataset), {})

    def test_load_unsaved_phase_fails(self, dataset, checkpoint):
        with pytest.raises(CheckpointError, match="no intact checkpoint"):
            checkpoint.load_state("merging", dataset)

    def test_payload_phase_mismatch_detected(self, dataset, checkpoint):
        checkpoint.save_state("bootstrap", EntityStore(dataset), {})
        phases = checkpoint.directory / "phases"
        # A payload masquerading under the wrong phase name: intact
        # checksum, wrong content.
        shutil.copy(phases / "bootstrap.json", phases / "merging.json")
        shutil.copy(phases / "bootstrap.json.sha256", phases / "merging.json.sha256")
        with pytest.raises(CheckpointError, match="is for phase 'bootstrap'"):
            checkpoint.load_state("merging", dataset)


class TestCompletedPrefix:
    def _complete_through_merging(self, dataset, checkpoint):
        store = EntityStore(dataset)
        checkpoint.save_pairs([CandidatePair(1, 2)])
        for phase in ("bootstrap", "refine_bootstrap", "merging"):
            checkpoint.save_state(phase, store, {})

    def test_prefix_in_pipeline_order(self, dataset, checkpoint):
        self._complete_through_merging(dataset, checkpoint)
        assert checkpoint.completed_prefix() == (
            "blocking", "bootstrap", "refine_bootstrap", "merging"
        )

    def test_missing_marker_means_incomplete(self, dataset, checkpoint):
        self._complete_through_merging(dataset, checkpoint)
        (checkpoint.directory / "phases" / "merging.json.sha256").unlink()
        assert checkpoint.completed_prefix() == (
            "blocking", "bootstrap", "refine_bootstrap"
        )

    def test_torn_early_payload_invalidates_successors(self, dataset, checkpoint):
        self._complete_through_merging(dataset, checkpoint)
        payload = checkpoint.directory / "phases" / "bootstrap.json"
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
        # bootstrap fails its checksum, so the intact later phases —
        # derived from it — must not be trusted either.
        assert checkpoint.completed_prefix() == ("blocking",)
        assert checkpoint.is_complete("merging")


class TestEarlierCheckpoint:
    """``data/checkpoint_pair_list`` was written by the resolver when it
    still carried candidate pairs as a list of ``CandidatePair`` objects:
    the tiny dataset, stopped right after the blocking phase committed.
    The ``blocking.npz`` format is unchanged, so it resumes to the bytes
    of an uninterrupted run."""

    SOURCE = Path(__file__).parent / "data" / "checkpoint_pair_list"

    def test_resume_matches_uninterrupted_run(self, tmp_path):
        from repro.cli import main

        ckdir = tmp_path / "ck"
        shutil.copytree(self.SOURCE, ckdir)
        checkpoint, _, _ = ResolveCheckpointer.resume(ckdir)
        assert checkpoint.completed_prefix() == ("blocking",)
        pairs = checkpoint.load_pairs()
        assert pairs.dtype == np.int64 and pairs.shape[1] == 2 and len(pairs)
        resumed, fresh = tmp_path / "resumed.json", tmp_path / "fresh.json"
        assert main(["resolve", "--resume", str(ckdir), "--out", str(resumed)]) == 0
        assert main(
            ["resolve", "--data", str(self.SOURCE / "dataset"), "--out", str(fresh)]
        ) == 0
        assert resumed.read_bytes() == fresh.read_bytes()
