"""Snapshot store: versioned persistence of the complete offline output.

The SNAPS paper splits the system into an offline component (entity
resolution + pedigree graph + index construction) and an online query
component.  ``repro.store`` is the durable hand-off between them: a
:class:`~repro.store.snapshot.SnapshotStore` persists everything the
offline phase produced — resolved entity clusters with their merge
links, the pedigree graph, the keyword index ``K``, and the
similarity-aware indexes ``S`` — as one content-addressed, checksummed,
atomically-written snapshot directory.

* ``repro resolve --snapshot-out DIR`` writes a snapshot;
* ``repro query/pedigree/serve --snapshot DIR`` warm-start from one,
  skipping ER and index construction entirely;
* :class:`~repro.store.incremental.IncrementalResolver` ingests a delta
  batch of certificates against a snapshot, re-resolving base + delta
  and emitting a child snapshot whose manifest points at its parent — a
  lineage inspectable with
  ``repro snapshot log / inspect / verify``.

Integrity is non-negotiable: every payload carries a SHA-256 in the
manifest, loads verify before deserialising, and schema-version
mismatches fail with an actionable
:class:`~repro.store.manifest.SnapshotSchemaError`.
"""

from repro.store.incremental import IncrementalResolver, IngestResult
from repro.store.manifest import (
    Manifest,
    SnapshotError,
    SnapshotIntegrityError,
    SnapshotSchemaError,
    config_fingerprint,
    config_from_dict,
    config_to_dict,
)
from repro.store.snapshot import SIM_ATTRIBUTES, LoadedSnapshot, SnapshotStore

__all__ = [
    "IncrementalResolver",
    "IngestResult",
    "LoadedSnapshot",
    "Manifest",
    "SIM_ATTRIBUTES",
    "SnapshotError",
    "SnapshotIntegrityError",
    "SnapshotSchemaError",
    "SnapshotStore",
    "config_fingerprint",
    "config_from_dict",
    "config_to_dict",
]
