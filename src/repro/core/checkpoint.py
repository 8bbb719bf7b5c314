"""Per-phase resolver checkpoints with crash-resume.

The offline pipeline runs for hours on real datasets; a crash in the
last phase must not cost the first four.  A :class:`ResolveCheckpointer`
owns a directory

.. code-block:: text

    <dir>/
      checkpoint.json            # format/version, phase order, config,
                                 # dataset fingerprint
      dataset.records.csv        # the exact dataset being resolved
      dataset.certs.csv
      phases/
        blocking.npz             # candidate pairs (order-preserving)
        blocking.npz.sha256      # completion marker = payload checksum
        bootstrap.json           # exact EntityStore state + run stats
        bootstrap.json.sha256
        ...

Each phase commits payload-then-marker, both via atomic rename: a crash
between the two leaves a payload without a marker, which resume treats
as "phase not completed" and re-runs — and a torn payload fails its
checksum the same way.  ``repro resolve --resume <dir>`` needs nothing
but the directory: dataset and configuration are restored from it, so
the resumed run continues from the last completed phase and produces
**byte-identical** final output to an uninterrupted run (the chaos
suite asserts exactly this at every phase boundary).

Payload codecs are shared with the snapshot store
(:mod:`repro.store.codecs`); failures here classify as ``data`` faults.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.config import SnapsConfig
from repro.data.loader import load_dataset_csv, save_dataset_csv
from repro.data.records import Dataset
from repro.faults import corrupt_write, fire
from repro.faults.resources import as_resource_fault, check_free_space
from repro.faults.taxonomy import DataFault
from repro.obs.logs import get_logger
from repro.store import codecs
from repro.store.manifest import (
    config_fingerprint,
    config_from_dict,
    config_to_dict,
    file_sha256,
)
from repro.utils.atomic import atomic_path, write_atomic

if TYPE_CHECKING:  # pragma: no cover - hints only
    import numpy as np

    from repro.core.entities import EntityStore

__all__ = [
    "CheckpointError",
    "GracefulExit",
    "ResolveCheckpointer",
    "pipeline_phases",
]

logger = get_logger("core.checkpoint")

CHECKPOINT_FORMAT = "snaps-resolve-checkpoint"
CHECKPOINT_VERSION = 1
META_FILENAME = "checkpoint.json"
PHASES_DIRNAME = "phases"

# Every phase the resolver may checkpoint, in pipeline order.  "blocking"
# stores candidate pairs; the rest store full entity-store state.  The
# dependency graph is NOT checkpointed: it is a deterministic function of
# (dataset, pairs) and rebuilding it is cheaper than serialising it.
ALL_PHASES = ("blocking", "bootstrap", "refine_bootstrap", "merging", "refine_merge")


class CheckpointError(DataFault):
    """A checkpoint directory is unusable for the requested operation."""


class GracefulExit(Exception):
    """A stop signal arrived and the in-flight phase has been committed.

    Raised by :meth:`ResolveCheckpointer.check_stop` at the first phase
    boundary after :meth:`ResolveCheckpointer.request_stop` — i.e. only
    once the phase's checkpoint is durably on disk, so ``--resume``
    continues from exactly here with byte-identical final output.
    """

    def __init__(self, signum: int, phase: str):
        super().__init__(
            f"stopped by signal {signum} after committing phase {phase!r}"
        )
        self.signum = signum
        self.phase = phase


def pipeline_phases(config: SnapsConfig) -> tuple[str, ...]:
    """The phases a resolver run under ``config`` will execute."""
    phases = ["blocking", "bootstrap"]
    if config.use_refinement:
        phases.append("refine_bootstrap")
    phases.append("merging")
    if config.use_refinement:
        phases.append("refine_merge")
    return tuple(phases)


class ResolveCheckpointer:
    """Commits/restores per-phase resolver state in one directory."""

    def __init__(self, directory: str | Path, phases: tuple[str, ...]) -> None:
        self.directory = Path(directory)
        self.phases = phases
        self._stop_signum: int | None = None

    # ------------------------------------------------------------------
    # Graceful stop (SIGTERM/SIGINT drain)
    # ------------------------------------------------------------------

    def request_stop(self, signum: int) -> None:
        """Note a stop signal; honoured at the next phase boundary.

        Safe to call from a signal handler: it only sets a flag.  The
        resolver keeps running until the in-flight phase's checkpoint is
        durably committed, then :meth:`check_stop` raises
        :class:`GracefulExit` — never mid-phase, never mid-commit.
        """
        self._stop_signum = signum

    @property
    def stop_requested(self) -> bool:
        return self._stop_signum is not None

    def check_stop(self, phase: str) -> None:
        """Raise :class:`GracefulExit` if a stop was requested.

        Call immediately *after* committing ``phase`` so the exception
        always means "resume will pick up from here".
        """
        if self._stop_signum is not None:
            logger.info(
                "graceful stop: phase %s committed, exiting on signal %d",
                phase,
                self._stop_signum,
            )
            raise GracefulExit(self._stop_signum, phase)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def begin(
        cls,
        directory: str | Path,
        dataset: Dataset,
        config: SnapsConfig,
        fresh: bool = True,
    ) -> "ResolveCheckpointer":
        """Open ``directory`` for a (re)run of ``dataset`` under ``config``.

        A pre-existing checkpoint for a *different* dataset or config is
        refused — resuming across either would silently produce wrong
        output.  With ``fresh`` (the default for ``--checkpoint``),
        existing phase payloads are discarded; ``--resume`` goes through
        :meth:`resume` instead and keeps them.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta_path = directory / META_FILENAME
        phases = pipeline_phases(config)
        if meta_path.exists():
            meta = cls._read_meta(meta_path)
            if meta["config_fingerprint"] != config_fingerprint(config):
                raise CheckpointError(
                    f"checkpoint {directory} was created with a different "
                    "configuration; use a fresh directory or matching flags"
                )
            if meta["dataset"]["sha256"] != dataset.content_fingerprint():
                raise CheckpointError(
                    f"checkpoint {directory} was created for a different "
                    f"dataset ({meta['dataset'].get('name')})"
                )
            checkpointer = cls(directory, tuple(meta["phases"]))
            if fresh:
                checkpointer._clear_phases()
            return checkpointer
        save_dataset_csv(dataset, directory / "dataset")
        meta = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "phases": list(phases),
            "config": config_to_dict(config),
            "config_fingerprint": config_fingerprint(config),
            "dataset": {
                "name": dataset.name,
                "records": len(dataset),
                "certificates": len(dataset.certificates),
                "sha256": dataset.content_fingerprint(),
            },
        }
        write_atomic(meta_path, json.dumps(meta, indent=2, sort_keys=True))
        return cls(directory, phases)

    @classmethod
    def resume(
        cls, directory: str | Path
    ) -> tuple["ResolveCheckpointer", Dataset, SnapsConfig]:
        """Reopen ``directory``; returns (checkpointer, dataset, config).

        The dataset comes from the checkpoint's own CSV copy, so a
        resumed run needs no other inputs — and is guaranteed to iterate
        records in the same order the checkpointing run saved them.
        """
        directory = Path(directory)
        meta = cls._read_meta(directory / META_FILENAME)
        config = config_from_dict(meta["config"])
        dataset = load_dataset_csv(
            directory / "dataset", name=meta["dataset"].get("name")
        )
        if dataset.content_fingerprint() != meta["dataset"]["sha256"]:
            raise CheckpointError(
                f"checkpoint {directory}: dataset CSVs do not match the "
                "fingerprint recorded at checkpoint time"
            )
        return cls(directory, tuple(meta["phases"])), dataset, config

    @staticmethod
    def _read_meta(meta_path: Path) -> dict:
        try:
            meta = json.loads(meta_path.read_text())
        except FileNotFoundError:
            raise CheckpointError(
                f"{meta_path.parent} is not a checkpoint directory "
                f"(no {META_FILENAME})"
            ) from None
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint meta {meta_path}: {exc}") from None
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"{meta_path} is not a resolve checkpoint "
                f"(format={meta.get('format')!r})"
            )
        if meta.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {meta.get('version')!r} "
                f"(this build reads {CHECKPOINT_VERSION})"
            )
        return meta

    def _clear_phases(self) -> None:
        phases_dir = self.directory / PHASES_DIRNAME
        if phases_dir.is_dir():
            for entry in phases_dir.iterdir():
                entry.unlink()

    # ------------------------------------------------------------------
    # Completion tracking
    # ------------------------------------------------------------------

    def _payload_path(self, phase: str) -> Path:
        suffix = ".npz" if phase == "blocking" else ".json"
        return self.directory / PHASES_DIRNAME / f"{phase}{suffix}"

    def _marker_path(self, phase: str) -> Path:
        return self._payload_path(phase).with_name(
            self._payload_path(phase).name + ".sha256"
        )

    def is_complete(self, phase: str) -> bool:
        """Payload present and matching its completion marker?"""
        payload, marker = self._payload_path(phase), self._marker_path(phase)
        if not payload.exists() or not marker.exists():
            return False
        return file_sha256(payload) == marker.read_text().strip()

    def completed_prefix(self) -> tuple[str, ...]:
        """Longest verified run of completed phases, in pipeline order.

        A later checkpoint is only trusted when everything before it is
        intact too — a torn early payload invalidates its successors,
        since their state was derived from it.
        """
        done: list[str] = []
        for phase in self.phases:
            if not self.is_complete(phase):
                break
            done.append(phase)
        return tuple(done)

    # ------------------------------------------------------------------
    # Payload commit/restore
    # ------------------------------------------------------------------

    def _commit(self, phase: str, write_payload) -> None:
        """Write the payload, then its marker — both atomically.

        Fault sites: ``checkpoint.commit.<phase>`` fires between payload
        write and rename (a crash here loses the phase);
        ``checkpoint.torn.<phase>`` tears the committed payload (resume
        detects the checksum mismatch); ``checkpoint.saved.<phase>``
        fires after a durable commit (a crash here resumes *from* the
        phase).
        """
        if phase not in self.phases:
            raise CheckpointError(
                f"phase {phase!r} not in checkpoint plan {self.phases}"
            )
        payload = self._payload_path(phase)
        payload.parent.mkdir(parents=True, exist_ok=True)
        check_free_space(payload.parent, 1 << 20, "resolve checkpoint")
        try:
            with atomic_path(payload) as tmp:
                write_payload(tmp)
                fire(f"checkpoint.commit.{phase}")
        except BaseException as exc:
            fault = as_resource_fault(
                exc,
                f"checkpoint commit for phase {phase!r}",
                "the phase was not committed and earlier checkpoints are "
                "intact; free disk space and re-run with --resume",
            )
            if fault is not None:
                raise fault from exc
            raise
        write_atomic(self._marker_path(phase), file_sha256(payload) + "\n")
        logger.info("checkpointed phase %s (%s)", phase, payload.name)
        corrupt_write(f"checkpoint.torn.{phase}", payload)
        fire(f"checkpoint.saved.{phase}")

    def _verified_payload(self, phase: str) -> Path:
        if not self.is_complete(phase):
            raise CheckpointError(
                f"phase {phase!r} has no intact checkpoint in {self.directory}"
            )
        return self._payload_path(phase)

    def save_pairs(self, pairs) -> None:
        """Checkpoint the candidate pairs (anything ``pair_array`` takes)."""
        self._commit(
            "blocking", lambda tmp: codecs.save_candidate_pairs(pairs, tmp)
        )

    def load_pairs(self) -> "np.ndarray":
        """The checkpointed pairs, as an ``(n, 2)`` int64 array."""
        return codecs.load_candidate_pairs(self._verified_payload("blocking"))

    def save_state(self, phase: str, store: "EntityStore", stats: dict) -> None:
        """Checkpoint the full entity store plus cumulative run stats."""
        blob = {
            "phase": phase,
            "stats": stats,
            "entities": codecs.encode_entity_state(store),
        }

        def write(tmp: Path) -> None:
            tmp.write_text(json.dumps(blob))

        self._commit(phase, write)

    def load_state(
        self, phase: str, dataset: Dataset
    ) -> tuple["EntityStore", dict]:
        path = self._verified_payload(phase)
        try:
            blob = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint payload {path}: {exc}") from None
        if blob.get("phase") != phase:
            raise CheckpointError(
                f"checkpoint payload {path} is for phase {blob.get('phase')!r}, "
                f"expected {phase!r}"
            )
        store = codecs.decode_entity_state(blob["entities"], dataset)
        return store, blob["stats"]
