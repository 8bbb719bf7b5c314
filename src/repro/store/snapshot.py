"""The snapshot store: versioned persistence of complete offline output.

A :class:`SnapshotStore` owns a directory tree

.. code-block:: text

    <root>/
      HEAD                      # id of the most recently written snapshot
      snapshots/<id>/
        manifest.json           # schema version, checksums, lineage
        dataset.records.csv     # the exact dataset that was resolved
        dataset.certs.csv
        clusters.json           # resolved entity clusters + merge links
        graph.json              # pedigree graph (entities + edges)
        keyword_index.npz       # keyword index K posting lists
        simindex.npz            # similarity-aware indexes S

holding everything the offline phase produces, so the online phase can
boot **without recomputing anything**: ``repro serve --snapshot`` loads
the graph and both indexes, skipping ER, graph building, and index
construction entirely.

Writes are atomic: a snapshot is assembled in a temporary directory
under the store root and renamed into place only when complete, so a
crash mid-save can never leave a half-written snapshot where a loader
would find it.  Snapshot ids are content-addressed (see
:mod:`repro.store.manifest`), and every load verifies payload checksums
before deserialising — a flipped bit fails loudly as
:class:`~repro.store.manifest.SnapshotIntegrityError`, never as a
silently wrong answer.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.data.loader import load_dataset_csv, save_dataset_csv
from repro.data.records import Dataset
from repro.faults import FaultError, fire
from repro.faults.resources import as_resource_fault, check_free_space
from repro.index.keyword import KeywordIndex
from repro.index.simindex import SimilarityAwareIndex
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.pedigree.graph import PedigreeGraph, build_pedigree_graph
from repro.pedigree.serialize import load_pedigree_graph, save_pedigree_graph
from repro.store import codecs
from repro.store.manifest import (
    MANIFEST_FILENAME,
    Manifest,
    SnapshotError,
    SnapshotIntegrityError,
    config_fingerprint,
    config_to_dict,
    file_sha256,
)
from repro.utils.atomic import write_atomic

if TYPE_CHECKING:  # pragma: no cover - hints only
    from repro.core.resolver import LinkageResult

__all__ = ["LoadedSnapshot", "SnapshotStore", "SIM_ATTRIBUTES"]

logger = get_logger("store.snapshot")

# Attributes the query engine builds similarity-aware indexes for; a
# snapshot persists exactly this set so a warm-started engine behaves
# identically to a cold-built one.
SIM_ATTRIBUTES = ("first_name", "surname", "parish")

_ARTIFACT_FILES = {
    "dataset_records": "dataset.records.csv",
    "dataset_certs": "dataset.certs.csv",
    "clusters": "clusters.json",
    "graph": "graph.json",
    "keyword_index": "keyword_index.npz",
    "simindex": "simindex.npz",
}

# Artefact groups a caller can select on load.
_GROUPS = {
    "dataset": ("dataset_records", "dataset_certs"),
    "clusters": ("clusters",),
    "graph": ("graph",),
    "indexes": ("keyword_index", "simindex"),
}


def _load_artifact(name: str, snapshot_id: str, loader):
    """Run ``loader``, naming the artefact and snapshot on any failure.

    Codec internals can surface truncation as raw ``KeyError`` /
    ``struct.error`` / ``zipfile.BadZipFile``; callers should never have
    to guess which artefact of which snapshot died.  Injected faults
    pass through untouched so retry policies see their true category.
    """
    fire(f"store.load.{name}")
    try:
        return loader()
    except FaultError:
        raise
    except SnapshotError as exc:
        raise type(exc)(
            f"snapshot {snapshot_id}, artefact {name!r}: {exc}"
        ) from exc
    except Exception as exc:
        raise SnapshotIntegrityError(
            f"snapshot {snapshot_id}: artefact {name!r} failed to decode "
            f"({type(exc).__name__}: {exc}); payload is likely truncated "
            "or corrupt"
        ) from exc


@dataclass
class LoadedSnapshot:
    """Materialised artefacts of one snapshot (only requested groups set)."""

    manifest: Manifest
    path: Path
    dataset: Dataset | None = None
    clusters: list[dict] = field(default_factory=list)
    graph_summary: dict = field(default_factory=dict)
    graph: PedigreeGraph | None = None
    keyword_index: KeywordIndex | None = None
    sim_index: dict[str, SimilarityAwareIndex] | None = None
    # True when the indexes are memmap-backed views of the raw tier
    # (requested via ``load(..., memmap=True)`` and the snapshot has raw
    # artefacts); False on the eager .npz path, including the fallback
    # for version-1 snapshots that predate the raw tier.
    memmapped: bool = False


class SnapshotStore:
    """Directory-backed store of versioned, content-addressed snapshots."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    @property
    def snapshots_dir(self) -> Path:
        return self.root / "snapshots"

    @property
    def head_path(self) -> Path:
        return self.root / "HEAD"

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def latest(self) -> str | None:
        """Id of the most recently written snapshot (HEAD), if any."""
        try:
            head = self.head_path.read_text().strip()
        except FileNotFoundError:
            return None
        return head or None

    def list_ids(self) -> list[str]:
        """All snapshot ids present on disk (sorted)."""
        if not self.snapshots_dir.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.snapshots_dir.iterdir()
            if entry.is_dir() and (entry / MANIFEST_FILENAME).exists()
        )

    def path_of(self, snapshot_id: str) -> Path:
        return self.snapshots_dir / snapshot_id

    def manifest(self, snapshot_id: str | None = None) -> Manifest:
        """Manifest of ``snapshot_id`` (default: HEAD)."""
        snapshot_id = self._resolve_id(snapshot_id)
        return Manifest.load(self.path_of(snapshot_id) / MANIFEST_FILENAME)

    def has_snapshot(self, snapshot_id: str) -> bool:
        """Whether ``snapshot_id`` exists on disk with a manifest."""
        return (self.path_of(snapshot_id) / MANIFEST_FILENAME).exists()

    def lineage_ids(self, snapshot_id: str | None = None) -> list[str]:
        """Snapshot ids from ``snapshot_id`` (default HEAD) back to the
        root, newest first — the cheap form of :meth:`log` the streaming
        journal reconciles itself against."""
        return [manifest.snapshot_id for manifest in self.log(snapshot_id)]

    def log(self, snapshot_id: str | None = None) -> list[Manifest]:
        """Lineage chain from ``snapshot_id`` (default HEAD) back to the
        root snapshot, newest first."""
        snapshot_id = self._resolve_id(snapshot_id)
        chain: list[Manifest] = []
        seen: set[str] = set()
        cursor: str | None = snapshot_id
        while cursor is not None:
            if cursor in seen:
                raise SnapshotError(f"snapshot lineage cycle at {cursor}")
            seen.add(cursor)
            manifest = self.manifest(cursor)
            chain.append(manifest)
            cursor = manifest.parent
        return chain

    def verify(self, snapshot_id: str | None = None) -> list[str]:
        """Check every payload of a snapshot against its manifest.

        Returns a list of human-readable problems; empty means the
        snapshot is intact.
        """
        snapshot_id = self._resolve_id(snapshot_id)
        directory = self.path_of(snapshot_id)
        problems: list[str] = []
        try:
            manifest = Manifest.load(directory / MANIFEST_FILENAME)
        except SnapshotError as exc:
            return [str(exc)]
        if manifest.snapshot_id != snapshot_id:
            problems.append(
                f"manifest says id {manifest.snapshot_id}, directory is {snapshot_id}"
            )
        checked = [
            ("", manifest.artifacts),
            ("raw ", manifest.raw_artifacts),
        ]
        for kind, blobs in checked:
            for name, blob in sorted(blobs.items()):
                path = directory / blob["path"]
                if not path.exists():
                    problems.append(
                        f"{name}: missing {kind}payload {blob['path']}"
                    )
                    continue
                actual = file_sha256(path)
                if actual != blob["sha256"]:
                    problems.append(
                        f"{name}: {kind}checksum mismatch "
                        f"(manifest {blob['sha256'][:12]}…, disk {actual[:12]}…)"
                    )
        expected_id = Manifest.compute_snapshot_id(
            manifest.artifacts,
            manifest.config_fingerprint,
            manifest.dataset.get("sha256", ""),
            manifest.parent,
        )
        if expected_id != manifest.snapshot_id:
            problems.append(
                f"content address mismatch: manifest id {manifest.snapshot_id}, "
                f"recomputed {expected_id}"
            )
        return problems

    def _resolve_id(self, snapshot_id: str | None) -> str:
        if snapshot_id is not None:
            if not self.path_of(snapshot_id).is_dir():
                raise SnapshotError(
                    f"no snapshot {snapshot_id!r} in {self.snapshots_dir} "
                    f"(have: {', '.join(self.list_ids()) or 'none'})"
                )
            return snapshot_id
        head = self.latest()
        if head is None:
            raise SnapshotError(f"snapshot store {self.root} is empty (no HEAD)")
        return head

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------

    def save(
        self,
        result: "LinkageResult",
        graph: PedigreeGraph | None = None,
        keyword_index: KeywordIndex | None = None,
        sim_index: dict[str, SimilarityAwareIndex] | None = None,
        similarity_threshold: float = 0.5,
        parent: str | None = None,
        config=None,
        trace: Trace | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> Manifest:
        """Persist one resolver run as a new snapshot; returns its manifest.

        ``graph``/``keyword_index``/``sim_index`` may be passed when the
        caller already built them (avoiding a rebuild); anything omitted
        is derived here from ``result``.  ``parent`` links the snapshot
        into a lineage (incremental ingest sets it).  ``config`` defaults
        to the paper configuration when the result does not carry one.
        """
        from repro.core.config import SnapsConfig

        trace = trace if trace is not None else Trace.disabled()
        config = config if config is not None else SnapsConfig()
        with trace.span("snapshot_save"):
            with trace.span("derive"):
                if graph is None:
                    graph = build_pedigree_graph(result.dataset, result.entities)
                if keyword_index is None:
                    keyword_index = KeywordIndex(graph)
                if sim_index is None:
                    sim_index = {
                        attribute: SimilarityAwareIndex(
                            keyword_index.values(attribute),
                            threshold=similarity_threshold,
                        )
                        for attribute in SIM_ATTRIBUTES
                    }
            self.snapshots_dir.mkdir(parents=True, exist_ok=True)
            # Preflight: catch an obviously-full disk before any payload
            # bytes land.  The estimate is a deliberate floor (records
            # dominate snapshot size); the commit stays atomic even if
            # the disk fills mid-write.
            check_free_space(
                self.root,
                max(1 << 20, len(result.dataset) * 1024),
                "snapshot store",
            )
            tmp = Path(
                tempfile.mkdtemp(prefix=".tmp-snapshot-", dir=self.root)
            )
            try:
                with trace.span("write_payloads"):
                    fire("store.save.payloads")
                    save_dataset_csv(result.dataset, tmp / "dataset")
                    clusters_blob = codecs.encode_clusters(
                        result.entities,
                        {
                            "n_atomic": result.graph.n_atomic,
                            "n_relational": result.graph.n_relational,
                        },
                    )
                    (tmp / _ARTIFACT_FILES["clusters"]).write_text(
                        json.dumps(clusters_blob)
                    )
                    save_pedigree_graph(graph, tmp / _ARTIFACT_FILES["graph"])
                    codecs.save_keyword_index(
                        keyword_index, tmp / _ARTIFACT_FILES["keyword_index"]
                    )
                    codecs.save_sim_indexes(
                        sim_index, tmp / _ARTIFACT_FILES["simindex"]
                    )
                with trace.span("write_raw"):
                    # Memmap tier: uncompressed .npy variants of both
                    # indexes, derived from the same in-memory state as
                    # the .npz payloads.  Checksummed in the manifest but
                    # excluded from the content address (see Manifest).
                    fire("store.save.raw")
                    raw_dir = tmp / codecs.RAW_DIRNAME
                    raw_paths = codecs.save_keyword_index_raw(
                        keyword_index, raw_dir
                    )
                    raw_paths += codecs.save_sim_indexes_raw(sim_index, raw_dir)
                    raw_artifacts = {
                        str(path.relative_to(tmp)): {
                            "path": str(path.relative_to(tmp)),
                            "sha256": file_sha256(path),
                            "bytes": path.stat().st_size,
                        }
                        for path in raw_paths
                    }
                with trace.span("manifest"):
                    artifacts = {
                        name: {
                            "path": filename,
                            "sha256": file_sha256(tmp / filename),
                            "bytes": (tmp / filename).stat().st_size,
                        }
                        for name, filename in sorted(_ARTIFACT_FILES.items())
                    }
                    config_fp = config_fingerprint(config)
                    dataset_sha = result.dataset.content_fingerprint()
                    snapshot_id = Manifest.compute_snapshot_id(
                        artifacts, config_fp, dataset_sha, parent
                    )
                    manifest = Manifest(
                        snapshot_id=snapshot_id,
                        parent=parent,
                        created_at=datetime.now(timezone.utc).isoformat(),
                        config=config_to_dict(config),
                        config_fingerprint=config_fp,
                        similarity_threshold=similarity_threshold,
                        dataset={
                            "name": result.dataset.name,
                            "records": len(result.dataset),
                            "certificates": len(result.dataset.certificates),
                            "sha256": dataset_sha,
                        },
                        counts={
                            "entities": len(graph),
                            "clusters": sum(
                                1 for _ in result.entities.entities(min_size=2)
                            ),
                            "pedigree_edges": graph.n_edges(),
                            "keyword_keys": keyword_index.n_keys(),
                            "sim_values": {
                                attr: index.n_values()
                                for attr, index in sorted(sim_index.items())
                            },
                        },
                        artifacts=artifacts,
                        raw_artifacts=raw_artifacts,
                    )
                    manifest.save(tmp / MANIFEST_FILENAME)
                with trace.span("commit"):
                    fire("store.save.commit")
                    final = self.path_of(snapshot_id)
                    if final.exists():
                        # Content-addressed: identical content already
                        # stored; keep the existing directory.  A snapshot
                        # saved before the raw tier existed gains it on
                        # re-save (the raw
                        # bytes are derived from identical content, and
                        # the tier is outside the content address, so
                        # the id is unchanged).  The stored manifest is
                        # rewritten to record the new checksums.
                        final_raw = final / codecs.RAW_DIRNAME
                        if not final_raw.exists():
                            os.replace(tmp / codecs.RAW_DIRNAME, final_raw)
                            stored = Manifest.load(final / MANIFEST_FILENAME)
                            stored.raw_artifacts = raw_artifacts
                            stored.schema_version = manifest.schema_version
                            stored.save(final / MANIFEST_FILENAME)
                        shutil.rmtree(tmp)
                        logger.info("snapshot %s already exists; reusing", snapshot_id)
                    else:
                        os.replace(tmp, final)
                    write_atomic(self.head_path, snapshot_id + "\n")
            except Exception as exc:
                # Atomic abort: the assembly directory goes whatever the
                # failure was, so `snapshots/` never gains a partial id.
                shutil.rmtree(tmp, ignore_errors=True)
                fault = as_resource_fault(
                    exc,
                    f"snapshot commit under {self.root}",
                    "no partial snapshot was left behind; free disk space "
                    "(or point --snapshot-out at a roomier volume) and "
                    "re-run — the resolve output itself is unaffected",
                )
                if fault is not None:
                    raise fault from exc
                raise
        if metrics is not None:
            metrics.inc("store.snapshots_saved")
            metrics.set_gauge(
                "store.snapshot_bytes",
                sum(blob["bytes"] for blob in manifest.artifacts.values()),
            )
        logger.info(
            "saved snapshot %s (%d entities, parent=%s)",
            snapshot_id,
            manifest.counts.get("entities", 0),
            parent,
        )
        return manifest

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------

    def load(
        self,
        snapshot_id: str | None = None,
        artifacts: Iterable[str] = ("dataset", "clusters", "graph", "indexes"),
        verify: bool = True,
        trace: Trace | None = None,
        metrics: MetricsRegistry | None = None,
        memmap: bool = False,
    ) -> LoadedSnapshot:
        """Materialise a snapshot (default: HEAD) from disk.

        ``artifacts`` selects which groups to load — ``"dataset"``,
        ``"clusters"``, ``"graph"``, ``"indexes"`` — so a server that only
        needs the graph and indexes never pays for the dataset CSV parse.
        With ``verify`` (the default) every loaded payload's checksum is
        compared against the manifest first; mismatches raise
        :class:`SnapshotIntegrityError`.

        ``memmap=True`` loads the indexes as read-only ``numpy.memmap``
        views of the snapshot's raw artefact tier instead of eagerly
        decompressing the ``.npz`` payloads — the substrate of the
        pre-fork serving tier, where a master maps once and N forked
        workers share the pages.  Snapshots written before the raw tier
        existed (schema version 1) fall back to the eager path; check
        :attr:`LoadedSnapshot.memmapped` for what actually happened.
        Query results are identical either way.
        """
        trace = trace if trace is not None else Trace.disabled()
        groups = tuple(artifacts)
        unknown = set(groups) - set(_GROUPS)
        if unknown:
            raise ValueError(
                f"unknown artefact groups {sorted(unknown)}; "
                f"valid: {sorted(_GROUPS)}"
            )
        snapshot_id = self._resolve_id(snapshot_id)
        directory = self.path_of(snapshot_id)
        with trace.span("snapshot_load"):
            fire("store.load.manifest")
            manifest = Manifest.load(directory / MANIFEST_FILENAME)
            if verify:
                with trace.span("verify"):
                    self._verify_artifacts(manifest, directory, groups)
            loaded = LoadedSnapshot(manifest=manifest, path=directory)
            if "dataset" in groups:
                with trace.span("load_dataset"):
                    loaded.dataset = _load_artifact(
                        "dataset",
                        snapshot_id,
                        lambda: load_dataset_csv(
                            directory / "dataset",
                            name=manifest.dataset.get("name"),
                        ),
                    )
            if "clusters" in groups:
                with trace.span("load_clusters"):
                    loaded.clusters, loaded.graph_summary = _load_artifact(
                        "clusters",
                        snapshot_id,
                        lambda: codecs.load_clusters(
                            directory / _ARTIFACT_FILES["clusters"]
                        ),
                    )
            if "graph" in groups:
                with trace.span("load_graph"):
                    loaded.graph = _load_artifact(
                        "graph",
                        snapshot_id,
                        lambda: load_pedigree_graph(
                            directory / _ARTIFACT_FILES["graph"]
                        ),
                    )
            if "indexes" in groups:
                use_raw = memmap and bool(manifest.raw_artifacts)
                if memmap and not use_raw:
                    logger.warning(
                        "snapshot %s has no raw artefact tier (schema v%d); "
                        "memmap load falling back to eager .npz indexes",
                        snapshot_id,
                        manifest.schema_version,
                    )
                if use_raw and verify:
                    with trace.span("verify_raw"):
                        self._verify_raw_artifacts(manifest, directory)
                raw_dir = directory / codecs.RAW_DIRNAME
                with trace.span(
                    "load_indexes_memmap" if use_raw else "load_indexes"
                ):
                    loaded.keyword_index = _load_artifact(
                        "keyword_index",
                        snapshot_id,
                        lambda: codecs.load_keyword_index(
                            raw_dir if use_raw
                            else directory / _ARTIFACT_FILES["keyword_index"],
                            memmap=use_raw,
                        ),
                    )
                    loaded.sim_index = _load_artifact(
                        "simindex",
                        snapshot_id,
                        lambda: codecs.load_sim_indexes(
                            raw_dir if use_raw
                            else directory / _ARTIFACT_FILES["simindex"],
                            memmap=use_raw,
                        ),
                    )
                loaded.memmapped = use_raw
        if metrics is not None:
            metrics.inc("store.snapshots_loaded")
        logger.info(
            "loaded snapshot %s (%s)", snapshot_id, ", ".join(groups) or "nothing"
        )
        return loaded

    def _verify_raw_artifacts(self, manifest: Manifest, directory: Path) -> None:
        for name, blob in sorted(manifest.raw_artifacts.items()):
            path = directory / blob["path"]
            if not path.exists():
                raise SnapshotIntegrityError(
                    f"snapshot {manifest.snapshot_id}: missing raw payload "
                    f"{blob['path']}"
                )
            actual = file_sha256(path)
            if actual != blob["sha256"]:
                raise SnapshotIntegrityError(
                    f"snapshot {manifest.snapshot_id}: raw payload "
                    f"{blob['path']} is corrupt (manifest sha256 "
                    f"{blob['sha256'][:12]}…, on disk {actual[:12]}…)"
                )

    def _verify_artifacts(
        self, manifest: Manifest, directory: Path, groups: tuple[str, ...]
    ) -> None:
        for group in groups:
            for name in _GROUPS[group]:
                blob = manifest.artifacts.get(name)
                if blob is None:
                    raise SnapshotIntegrityError(
                        f"manifest of {manifest.snapshot_id} lists no "
                        f"artefact {name!r}"
                    )
                path = directory / blob["path"]
                if not path.exists():
                    raise SnapshotIntegrityError(
                        f"snapshot {manifest.snapshot_id}: missing payload "
                        f"{blob['path']}"
                    )
                actual = file_sha256(path)
                if actual != blob["sha256"]:
                    raise SnapshotIntegrityError(
                        f"snapshot {manifest.snapshot_id}: payload "
                        f"{blob['path']} is corrupt (manifest sha256 "
                        f"{blob['sha256'][:12]}…, on disk {actual[:12]}…)"
                    )
