"""Poison-task quarantine: durable evidence plus an actionable abort.

A task that exhausts its attempt budget (or fails with a non-retryable
category) is *quarantined*: one JSON line is appended to
``<quarantine_dir>/tasks.jsonl`` holding everything needed to reproduce
the failure offline —

- the task fingerprint (label, task name such as ``chunk 3``,
  index, attempts consumed, and the task's own config fingerprint when
  it carries one);
- a digest of the pickled task inputs, so the exact same chunk can be
  recognised across runs without storing the (possibly large) inputs;
- the error from every charged attempt, tracebacks included.

The run then aborts with :class:`TaskQuarantinedError` (a ``data`` fault:
the input is implicated, not the code) naming the chunk and the
artifact path.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path

from repro.faults.taxonomy import DATA, DataFault

__all__ = [
    "TaskQuarantinedError",
    "default_quarantine_dir",
    "inputs_digest",
    "write_quarantine_record",
]

ARTIFACT_NAME = "tasks.jsonl"


class TaskQuarantinedError(DataFault):
    """A task failed every allowed attempt and was isolated."""

    category = DATA

    def __init__(
        self,
        *,
        label: str,
        task_name: str,
        attempts: int,
        artifact: str,
        last_error: str,
    ):
        super().__init__(
            f"{label} task ({task_name}) quarantined after {attempts} "
            f"attempt(s); last error: {last_error}; evidence appended to "
            f"{artifact}; inspect the artifact to fix or exclude the "
            f"offending input, or raise --task-retries if the failures "
            f"look environmental"
        )
        self.label = label
        self.task_name = task_name
        self.attempts = attempts
        self.artifact = artifact


def default_quarantine_dir() -> str:
    return os.path.join(tempfile.gettempdir(), "snaps-quarantine")


def inputs_digest(task: object) -> str:
    """Stable digest of a task's inputs (pickle bytes, repr fallback)."""
    try:
        payload = pickle.dumps(task, protocol=4)
    except Exception:
        payload = repr(task).encode("utf-8", "replace")
    return hashlib.sha256(payload).hexdigest()


def write_quarantine_record(
    quarantine_dir: str | os.PathLike | None,
    *,
    label: str,
    task_name: str,
    index: int,
    task: object,
    errors: list[str],
) -> str:
    """Append one quarantine line; return the artifact path."""
    root = Path(quarantine_dir) if quarantine_dir else Path(default_quarantine_dir())
    root.mkdir(parents=True, exist_ok=True)
    artifact = root / ARTIFACT_NAME
    fingerprint = None
    if isinstance(task, dict):
        fingerprint = task.get("fingerprint")
    record = {
        "at": time.time(),
        "label": label,
        "task": task_name,
        "index": index,
        "attempts": len(errors),
        "config_fingerprint": fingerprint,
        "inputs_sha256": inputs_digest(task),
        "errors": errors,
    }
    with open(artifact, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    return str(artifact)
