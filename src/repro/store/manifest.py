"""Snapshot manifest: the self-describing header of one snapshot.

Every snapshot directory carries a ``manifest.json`` binding together

* the schema version of the snapshot format itself,
* a canonical fingerprint of the :class:`~repro.core.config.SnapsConfig`
  the offline run used (so a loader can refuse to warm-start a server
  whose configuration no longer matches what was resolved),
* a content hash of the exact dataset that was resolved,
* per-artefact SHA-256 checksums and byte sizes, verified on load, and
* a ``parent`` pointer to the snapshot this one was derived from by
  incremental ingest — chaining snapshots into an inspectable lineage
  (``repro snapshot log``).

The snapshot id is **content-addressed**: a SHA-256 over the artefact
checksums, config fingerprint, dataset hash, and parent id.  Re-saving
identical content therefore produces the identical id; the creation
timestamp is deliberately excluded from the id.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import SnapsConfig
from repro.data.schema import AttributeCategory, AttributeSpec, Schema

__all__ = [
    "MANIFEST_FILENAME",
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "Manifest",
    "SnapshotError",
    "SnapshotIntegrityError",
    "SnapshotSchemaError",
    "config_fingerprint",
    "config_from_dict",
    "config_to_dict",
    "file_sha256",
]

MANIFEST_FILENAME = "manifest.json"
_FORMAT = "snaps-snapshot"
# Version 2 added the optional raw memmap artefact tier (raw/*.npy,
# recorded under ``raw_artifacts``).  Version-1 snapshots — written
# before the tier existed — still load; they simply have no raw
# artefacts, so memmap loads fall back to the eager .npz path.
SCHEMA_VERSION = 2
SUPPORTED_SCHEMA_VERSIONS = (1, 2)


class SnapshotError(RuntimeError):
    """Base class for all snapshot-store failures."""


class SnapshotSchemaError(SnapshotError):
    """The on-disk snapshot speaks a format/version this code does not."""


class SnapshotIntegrityError(SnapshotError):
    """A payload does not match its manifest checksum (or is missing)."""


# ----------------------------------------------------------------------
# Config fingerprinting
# ----------------------------------------------------------------------


def config_to_dict(config: SnapsConfig) -> dict:
    """``SnapsConfig`` as a JSON-safe dict (enums become their values)."""
    blob = dataclasses.asdict(config)
    blob["schema"] = {
        "attributes": [
            {"name": spec.name, "category": spec.category.value}
            for spec in config.schema.attributes
        ],
        "weight_must": config.schema.weight_must,
        "weight_core": config.schema.weight_core,
        "weight_extra": config.schema.weight_extra,
    }
    return blob


def config_from_dict(blob: dict) -> SnapsConfig:
    """Inverse of :func:`config_to_dict`."""
    blob = dict(blob)
    schema_blob = blob.pop("schema")
    schema = Schema(
        attributes=tuple(
            AttributeSpec(spec["name"], AttributeCategory(spec["category"]))
            for spec in schema_blob["attributes"]
        ),
        weight_must=schema_blob["weight_must"],
        weight_core=schema_blob["weight_core"],
        weight_extra=schema_blob["weight_extra"],
    )
    return SnapsConfig(schema=schema, **blob)


def config_fingerprint(config: SnapsConfig) -> str:
    """SHA-256 over the canonical JSON form of ``config``."""
    payload = json.dumps(
        config_to_dict(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def file_sha256(path: Path) -> str:
    """SHA-256 hex digest of a file's bytes."""
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Manifest
# ----------------------------------------------------------------------


@dataclass
class Manifest:
    """Parsed ``manifest.json`` of one snapshot."""

    snapshot_id: str
    parent: str | None
    created_at: str
    config: dict
    config_fingerprint: str
    similarity_threshold: float
    dataset: dict            # {"name", "records", "certificates", "sha256"}
    counts: dict             # entity/cluster/index cardinalities
    artifacts: dict[str, dict] = field(default_factory=dict)
    # Raw memmap-friendly artefact variants (raw/*.npy).  Checksummed
    # and verified like ``artifacts``, but EXCLUDED from the
    # content-addressed snapshot id: the raw tier is derived
    # byte-deterministically from the canonical .npz payloads, so its
    # presence must not change the id.
    raw_artifacts: dict[str, dict] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    @staticmethod
    def compute_snapshot_id(
        artifacts: dict[str, dict],
        config_fp: str,
        dataset_sha256: str,
        parent: str | None,
    ) -> str:
        """Content-addressed snapshot id (16 hex chars)."""
        payload = json.dumps(
            {
                "artifacts": {
                    name: blob["sha256"] for name, blob in sorted(artifacts.items())
                },
                "config": config_fp,
                "dataset": dataset_sha256,
                "parent": parent,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> dict:
        blob = {
            "format": _FORMAT,
            "schema_version": self.schema_version,
            "snapshot_id": self.snapshot_id,
            "parent": self.parent,
            "created_at": self.created_at,
            "config": self.config,
            "config_fingerprint": self.config_fingerprint,
            "similarity_threshold": self.similarity_threshold,
            "dataset": self.dataset,
            "counts": self.counts,
            "artifacts": self.artifacts,
        }
        if self.raw_artifacts:
            blob["raw_artifacts"] = self.raw_artifacts
        return blob

    @classmethod
    def from_dict(cls, blob: dict) -> "Manifest":
        if blob.get("format") != _FORMAT:
            raise SnapshotSchemaError(
                f"not a snapshot manifest (format={blob.get('format')!r})"
            )
        version = blob.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise SnapshotSchemaError(
                f"snapshot schema version {version!r} is not supported "
                f"(this build reads versions "
                f"{', '.join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)}); "
                "re-create the snapshot with `repro resolve --snapshot-out`"
            )
        return cls(
            snapshot_id=blob["snapshot_id"],
            parent=blob.get("parent"),
            created_at=blob.get("created_at", ""),
            config=blob["config"],
            config_fingerprint=blob["config_fingerprint"],
            similarity_threshold=blob["similarity_threshold"],
            dataset=blob["dataset"],
            counts=blob.get("counts", {}),
            artifacts=blob.get("artifacts", {}),
            raw_artifacts=blob.get("raw_artifacts", {}),
            schema_version=version,
        )

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @classmethod
    def load(cls, path: Path) -> "Manifest":
        try:
            blob = json.loads(path.read_text())
        except FileNotFoundError:
            raise SnapshotIntegrityError(f"missing manifest: {path}") from None
        except json.JSONDecodeError as exc:
            raise SnapshotIntegrityError(f"corrupt manifest {path}: {exc}") from None
        return cls.from_dict(blob)

    def snaps_config(self) -> SnapsConfig:
        """The resolver configuration this snapshot was built with."""
        return config_from_dict(self.config)
