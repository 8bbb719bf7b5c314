"""Supervised task execution shared by every offline fan-out.

The blocking-filter chunk pool (``repro.parallel``), which streaming
ingest (``repro.stream``) also runs through, executes pure tasks with
one :class:`TaskRunner`; this package gives it one substrate for
liveness (heartbeats + per-task deadlines), crash recovery (pool
rebuild + resubmit of incomplete tasks, byte-identical output), and
poison-task quarantine with durable JSONL evidence.  In-process
execution (one CPU, or one task) keeps the same retry and quarantine
contract; only pooled attempts can be hang-killed.  The pre-fork
serving tier reuses the heartbeats for worker liveness.
"""

from repro.supervise.config import SuperviseConfig
from repro.supervise.executor import SupervisedExecutor, run_supervised
from repro.supervise.heartbeat import (
    HeartbeatWriter,
    clear_heartbeats,
    read_heartbeats,
)
from repro.supervise.quarantine import (
    TaskQuarantinedError,
    default_quarantine_dir,
    inputs_digest,
    write_quarantine_record,
)
from repro.supervise.runner import TaskRunner, available_cpus

__all__ = [
    "HeartbeatWriter",
    "SuperviseConfig",
    "SupervisedExecutor",
    "TaskQuarantinedError",
    "TaskRunner",
    "available_cpus",
    "clear_heartbeats",
    "default_quarantine_dir",
    "inputs_digest",
    "read_heartbeats",
    "run_supervised",
    "write_quarantine_record",
]
