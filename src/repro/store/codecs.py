"""Binary codecs for snapshot payloads.

The two query-time indexes are the expensive artefacts a snapshot exists
to avoid rebuilding.  Both hold their state as flat numpy arrays
(``index.arrays()``):

* the keyword index ``K``: concatenated int64 posting arrays with
  offset arrays per key group (string-valued keys, event years, genders);
* each similarity-aware index ``S``: its value universe plus the
  precomputed neighbour lists flattened into (target, similarity) arrays
  with per-key offsets.

So the codecs only pick the container — one compressed ``.npz``, or the
raw tier's ``.npy`` files that load as read-only memory maps — and hand
the opened arrays to ``from_arrays``.

Everything loads with ``allow_pickle=False`` — a snapshot is data, never
code.  Entity clusters are small and irregular, so they stay JSON
(:func:`encode_clusters` / :func:`decode_clusters`).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.blocking.candidates import pair_array
from repro.core.entities import EntityStore
from repro.data.records import Dataset
from repro.index.arrays import str_array
from repro.index.keyword import KEYWORD_ARRAYS, KeywordIndex
from repro.index.simindex import SIM_ARRAYS, SimilarityAwareIndex
from repro.store.manifest import SnapshotIntegrityError, SnapshotSchemaError

__all__ = [
    "RAW_DIRNAME",
    "decode_clusters",
    "decode_entity_state",
    "encode_clusters",
    "encode_entity_state",
    "load_candidate_pairs",
    "load_clusters",
    "load_keyword_index",
    "load_sim_indexes",
    "save_candidate_pairs",
    "save_keyword_index",
    "save_keyword_index_raw",
    "save_sim_indexes",
    "save_sim_indexes_raw",
]

_CLUSTERS_FORMAT = "snaps-clusters"
_CLUSTERS_VERSION = 1
_ENTITY_STATE_FORMAT = "snaps-entity-state"
_ENTITY_STATE_VERSION = 1

# Raw memmap tier: uncompressed .npy flat-binary variants of the two
# index artefacts, living in <snapshot>/raw/.  Unlike the canonical
# compressed .npz payloads they can back read-only numpy.memmap views,
# which is what lets a pre-fork serving master map a snapshot once and
# share the physical pages across every forked worker.
RAW_DIRNAME = "raw"
_RAW_SIM_META = "sim.meta.json"
_RAW_SIM_FORMAT = "snaps-raw-sim"
_RAW_SIM_VERSION = 1
# Array names inside the S .npz, where two differ from the index's own.
_NPZ_SIM_NAMES = {"nb_targets": "nb_target", "nb_sims": "nb_sim"}


def _open_npz(path: Path, what: str) -> dict[str, np.ndarray]:
    """Every array of the ``.npz`` at ``path``, decompressed."""
    try:
        with np.load(path, allow_pickle=False) as data:
            return {name: data[name] for name in data.files}
    except FileNotFoundError:
        raise SnapshotIntegrityError(f"missing {what}: {path}") from None
    except (ValueError, OSError) as exc:
        raise SnapshotIntegrityError(f"corrupt {what} {path}: {exc}") from None


def _open_npy(path: Path) -> np.ndarray:
    """A read-only memory map of the ``.npy`` at ``path``."""
    try:
        return np.load(path, mmap_mode="r", allow_pickle=False)
    except FileNotFoundError:
        raise SnapshotIntegrityError(f"missing raw artefact: {path}") from None
    except (ValueError, OSError) as exc:
        raise SnapshotIntegrityError(
            f"corrupt raw artefact {path}: {exc}"
        ) from None


def _save_npy(path: Path, array: np.ndarray) -> None:
    with path.open("wb") as handle:
        np.save(handle, array, allow_pickle=False)


# ----------------------------------------------------------------------
# Keyword index K
# ----------------------------------------------------------------------


def save_keyword_index(index: KeywordIndex, path: Path) -> None:
    """Serialise ``index`` to an ``.npz`` file at ``path``."""
    with path.open("wb") as handle:
        np.savez_compressed(handle, **index.arrays())


def save_keyword_index_raw(index: KeywordIndex, directory: Path) -> list[Path]:
    """Write the keyword index as flat ``.npy`` files under ``directory``.

    The array *content* is identical to :func:`save_keyword_index` —
    only the container differs (uncompressed ``.npy`` per array instead
    of one compressed ``.npz``), so the raw tier is byte-deterministic
    given the index state.  Returns the written paths (for manifest
    checksumming).
    """
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, array in index.arrays().items():
        path = directory / f"keyword.{name}.npy"
        _save_npy(path, array)
        written.append(path)
    return written


def load_keyword_index(path: Path, memmap: bool = False) -> KeywordIndex:
    """Inverse of :func:`save_keyword_index` or, with ``memmap``, of
    :func:`save_keyword_index_raw` (``path`` is then the raw directory
    and the arrays stay memory-mapped read-only, so forked serving
    workers share them)."""
    if memmap:
        arrays = {
            name: _open_npy(path / f"keyword.{name}.npy")
            for name in KEYWORD_ARRAYS
        }
    else:
        arrays = _open_npz(path, "keyword index")
    missing = set(KEYWORD_ARRAYS) - set(arrays)
    if missing:
        raise SnapshotSchemaError(
            f"keyword index {path} lacks arrays {sorted(missing)}"
        )
    return KeywordIndex.from_arrays(arrays)


# ----------------------------------------------------------------------
# Similarity-aware indexes S (one per query attribute)
# ----------------------------------------------------------------------


def save_sim_indexes(sim_index: dict[str, SimilarityAwareIndex], path: Path) -> None:
    """Serialise all per-attribute S indexes into one ``.npz`` file."""
    arrays: dict[str, np.ndarray] = {
        "attrs": str_array(sorted(sim_index)),
    }
    for attr in sorted(sim_index):
        index = sim_index[attr]
        for name, array in index.arrays().items():
            arrays[f"{attr}__{_NPZ_SIM_NAMES.get(name, name)}"] = array
        arrays[f"{attr}__threshold"] = np.asarray([index.threshold], dtype=np.float64)
    with path.open("wb") as handle:
        np.savez_compressed(handle, **arrays)


def save_sim_indexes_raw(
    sim_index: dict[str, SimilarityAwareIndex], directory: Path
) -> list[Path]:
    """Write every S index as flat ``.npy`` files under ``directory``.

    One ``sim.<attr>.<array>.npy`` file per array plus a ``sim.meta.json``
    carrying the attribute list and thresholds.  Returns the written
    paths (meta file first).
    """
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": _RAW_SIM_FORMAT,
        "version": _RAW_SIM_VERSION,
        "attrs": sorted(sim_index),
        "thresholds": {
            attr: sim_index[attr].threshold for attr in sorted(sim_index)
        },
    }
    meta_path = directory / _RAW_SIM_META
    meta_path.write_text(json.dumps(meta, sort_keys=True))
    written = [meta_path]
    for attr in sorted(sim_index):
        for name, array in sim_index[attr].arrays().items():
            path = directory / f"sim.{attr}.{name}.npy"
            _save_npy(path, array)
            written.append(path)
    return written


def _raw_sim_meta(directory: Path) -> dict:
    meta_path = directory / _RAW_SIM_META
    try:
        meta = json.loads(meta_path.read_text())
    except FileNotFoundError:
        raise SnapshotIntegrityError(f"missing raw sim meta: {meta_path}") from None
    except json.JSONDecodeError as exc:
        raise SnapshotIntegrityError(
            f"corrupt raw sim meta {meta_path}: {exc}"
        ) from None
    if meta.get("format") != _RAW_SIM_FORMAT or meta.get("version") != _RAW_SIM_VERSION:
        raise SnapshotSchemaError(
            f"unsupported raw sim meta {meta_path}: "
            f"format={meta.get('format')!r} version={meta.get('version')!r}"
        )
    return meta


def load_sim_indexes(
    path: Path, memmap: bool = False
) -> dict[str, SimilarityAwareIndex]:
    """Inverse of :func:`save_sim_indexes` or, with ``memmap``, of
    :func:`save_sim_indexes_raw` (``path`` is then the raw directory and
    the arrays stay memory-mapped read-only)."""
    if memmap:
        meta = _raw_sim_meta(path)
        attrs = meta["attrs"]

        def array(attr: str, name: str) -> np.ndarray:
            return _open_npy(path / f"sim.{attr}.{name}.npy")

        def threshold(attr: str) -> float:
            return float(meta["thresholds"][attr])
    else:
        npz = _open_npz(path, "similarity index")
        if "attrs" not in npz:
            raise SnapshotSchemaError(f"similarity index {path} lacks 'attrs' array")
        attrs = npz["attrs"].tolist()

        def array(attr: str, name: str) -> np.ndarray:
            return npz[f"{attr}__{_NPZ_SIM_NAMES.get(name, name)}"]

        def threshold(attr: str) -> float:
            return float(array(attr, "threshold")[0])
    out: dict[str, SimilarityAwareIndex] = {}
    for attr in attrs:
        try:
            arrays = {name: array(attr, name) for name in SIM_ARRAYS}
            attr_threshold = threshold(attr)
        except KeyError as exc:
            raise SnapshotSchemaError(
                f"similarity index {path} lacks array {exc} for attribute {attr!r}"
            ) from None
        out[attr] = SimilarityAwareIndex.from_arrays(arrays, attr_threshold)
    return out


# ----------------------------------------------------------------------
# Entity clusters
# ----------------------------------------------------------------------


def encode_clusters(store: EntityStore, graph_summary: dict) -> dict:
    """Non-singleton clusters with their internal link structure.

    Singletons are omitted: rebuilding an :class:`EntityStore` from the
    dataset recreates them, so only merge history needs persisting.
    """
    clusters = []
    for entity in sorted(store.entities(min_size=2), key=lambda e: min(e.record_ids)):
        clusters.append(
            {
                "records": sorted(entity.record_ids),
                "links": sorted([list(link) for link in entity.links]),
            }
        )
    return {
        "format": _CLUSTERS_FORMAT,
        "version": _CLUSTERS_VERSION,
        "clusters": clusters,
        "graph_summary": dict(graph_summary),
    }


def decode_clusters(blob: dict) -> tuple[list[dict], dict]:
    """Validate and unpack :func:`encode_clusters` output.

    Returns ``(clusters, graph_summary)``.
    """
    if blob.get("format") != _CLUSTERS_FORMAT:
        raise SnapshotSchemaError(
            f"not a clusters payload (format={blob.get('format')!r})"
        )
    if blob.get("version") != _CLUSTERS_VERSION:
        raise SnapshotSchemaError(
            f"unsupported clusters payload version {blob.get('version')!r}"
        )
    return blob["clusters"], blob.get("graph_summary", {})


def load_clusters(path: Path) -> tuple[list[dict], dict]:
    """Read and decode a ``clusters.json`` payload."""
    try:
        blob = json.loads(path.read_text())
    except FileNotFoundError:
        raise SnapshotIntegrityError(f"missing clusters payload: {path}") from None
    except json.JSONDecodeError as exc:
        raise SnapshotIntegrityError(
            f"corrupt clusters payload {path}: {exc}"
        ) from None
    return decode_clusters(blob)


# ----------------------------------------------------------------------
# Resolver checkpoint payloads (pipeline crash-resume)
# ----------------------------------------------------------------------


def save_candidate_pairs(pairs, path: Path) -> None:
    """Serialise candidate pairs (anything ``pair_array`` takes) to
    ``.npz`` as one ``(n, 2)`` int64 array, order-preserving.

    Order matters: the resumed run must feed the dependency graph the
    exact sequence the crashed run produced, or merge iteration order —
    and therefore entity ids — could drift.
    """
    with path.open("wb") as handle:
        np.savez_compressed(handle, pairs=pair_array(pairs))


def load_candidate_pairs(path: Path) -> np.ndarray:
    """Inverse of :func:`save_candidate_pairs`."""
    try:
        with np.load(path, allow_pickle=False) as data:
            flat = data["pairs"]
    except FileNotFoundError:
        raise SnapshotIntegrityError(f"missing pairs payload: {path}") from None
    except (KeyError, ValueError, OSError) as exc:
        raise SnapshotIntegrityError(
            f"corrupt pairs payload {path}: {exc}"
        ) from None
    return pair_array(flat)


def encode_entity_state(store: EntityStore) -> dict:
    """Exact :class:`EntityStore` state (ids, order, counter) as JSON.

    Unlike :func:`encode_clusters` — which normalises order and drops
    singletons for compact *final* output — a checkpoint must preserve
    everything resumption needs for bit-identical continuation.
    """
    return {
        "format": _ENTITY_STATE_FORMAT,
        "version": _ENTITY_STATE_VERSION,
        **store.state(),
    }


def decode_entity_state(blob: dict, dataset: Dataset) -> EntityStore:
    """Validate and rebuild :func:`encode_entity_state` output."""
    if blob.get("format") != _ENTITY_STATE_FORMAT:
        raise SnapshotSchemaError(
            f"not an entity-state payload (format={blob.get('format')!r})"
        )
    if blob.get("version") != _ENTITY_STATE_VERSION:
        raise SnapshotSchemaError(
            f"unsupported entity-state version {blob.get('version')!r}"
        )
    return EntityStore.from_state(dataset, blob)
