"""Parallel execution configuration.

``ParallelConfig`` is deliberately *not* part of
:class:`~repro.core.config.SnapsConfig`: worker count is an execution
detail with no influence on output (chunked filtering is byte-identical
to serial), so it must not enter config fingerprints — a run
checkpointed under ``--workers 4`` resumes cleanly under ``--workers 1``.
It chooses only how the blocking filters run; ``G_D`` generation is one
inline array pass whatever the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.supervise.config import SuperviseConfig
from repro.supervise.runner import available_cpus

__all__ = ["ParallelConfig", "available_cpus"]

#: Auto mode filters serially below this many records: chunking costs
#: more than it saves on tiny inputs.
MIN_RECORDS = 1000
#: Chunks per requested worker (load balance) ...
CHUNKS_PER_WORKER = 4
#: ... but never chunks smaller than this many pairs.
MIN_CHUNK_SIZE = 512


@dataclass(frozen=True)
class ParallelConfig:
    """How the blocking filters fan out.

    ``workers``:

    * ``None`` (default, ``auto``) — the in-process chunked filter
      (``1``), or the serial one for datasets below ``MIN_RECORDS``.
      Auto mode never forks: the raw pairs are built as one array pass
      in the parent, so a pool could only take over the numpy mask
      step, a few tens of milliseconds, and its forks and IPC cost as
      much as they save;
    * ``0`` — the serial per-pair filter;
    * ``1`` — vectorised MinHash and chunked numpy filtering, in-process
      without spawning workers;
    * ``N >= 2`` — additionally filter chunks in up to ``N`` pool
      processes.  The pool never exceeds the CPUs actually available —
      oversubscribing a CPU-bound pool only adds scheduling and IPC
      overhead — so on a small machine a large ``N`` degrades gracefully
      to the in-process pipeline, under the same supervision contract.
      ``oversubscribe=True`` removes that clamp (tests and the
      ``SNAPS_OVERSUBSCRIBE=1`` smoke runs use it to exercise the real
      pool everywhere).

    Chunk boundaries depend on the *requested* worker count, never on
    the machine, and chunk results merge in submission order — output is
    identical whatever runs where.

    ``supervise`` carries the worker-supervision knobs (deadlines, retry
    budget, quarantine) down to every pool; like the rest of this config
    it is an execution detail that never enters fingerprints.  ``None``
    means "read ``SNAPS_TASK_*`` from the environment at pool time".
    """

    workers: int | None = None
    oversubscribe: bool = False
    supervise: SuperviseConfig | None = None

    def __post_init__(self) -> None:
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers cannot be negative, got {self.workers}")

    def effective_workers(self, n_records: int) -> int:
        """Worker count for a dataset of ``n_records`` (0 = serial)."""
        if self.workers is not None:
            return self.workers
        return 0 if n_records < MIN_RECORDS else 1
