"""Supervised pool execution: deadlines, crash recovery, quarantine.

:class:`SupervisedExecutor` wraps a pool built by a caller-supplied
factory — a ``ProcessPoolExecutor``, or an :class:`InlinePool` that runs
each task in this process — and guarantees:

**Liveness.**  Every pooled task attempt announces itself through a
heartbeat file (:mod:`repro.supervise.heartbeat`) before running.  A
supervisor loop polls the futures *and* the heartbeats; an attempt older
than ``task_timeout_s`` is killed with SIGKILL, which breaks the pool
and routes recovery through the same path as a crash.  Attempts on an
:class:`InlinePool` write no heartbeat and are never deadline-killed (a
kill would hit the supervisor itself); retries and quarantine still
apply.

**Bounded deterministic re-execution.**  Tasks are pure functions of
their chunk inputs, so re-running one is always safe.  When the
pool breaks (``BrokenProcessPool``/``EOFError``) the executor charges an
attempt to the *suspects* — the tasks whose heartbeats were still
``running`` — rebuilds the pool, and resubmits only the incomplete
tasks.  Completed results are never discarded and are returned strictly
in submission order, so output is byte-identical to serial no matter
where a worker died.  An ordinary exception raised *inside* a live
worker charges only that task and resubmits it in place (transient) or
quarantines it immediately (permanent/data) — no pool rebuild.

**Quarantine.**  A task still failing after ``1 + max_task_retries``
charged attempts is quarantined with a JSONL artifact
(:mod:`repro.supervise.quarantine`); the run aborts with an actionable
error naming the chunk.

**Deterministic chaos.**  Each attempt fires the injection site
``supervise.task.<label>.t<index>.a<attempt>``.  The attempt number in
the site name is what makes crash-once-then-recover reproducible:
rebuilt workers fork with fresh injector counters, but the retried
attempt runs under ``.a1``, which an ``.a0`` spec no longer matches.

Attribution is deliberately conservative: if the crashed worker died
before writing its heartbeat, every incomplete task is charged one
attempt for that break.  Over-charging an innocent task costs at most
its retry budget; under-charging a poison task would loop forever.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, Future, wait
from typing import Callable

from repro.faults import fire
from repro.faults.taxonomy import TRANSIENT, classify
from repro.supervise.config import SuperviseConfig
from repro.supervise.heartbeat import (
    RUNNING,
    HeartbeatWriter,
    clear_heartbeats,
    read_heartbeats,
)
from repro.supervise.quarantine import (
    TaskQuarantinedError,
    write_quarantine_record,
)

__all__ = ["InlinePool", "SupervisedExecutor", "run_supervised"]

#: Exceptions that mean "the pool is dead", as opposed to "the task
#: raised": recovery rebuilds the pool and resubmits incomplete work.
_POOL_DEATH = (BrokenExecutor, EOFError)


def run_supervised(fn: Callable, task: object, meta: dict) -> object:
    """Worker-side shim: heartbeat + chaos site around the real task.

    Module-level so it pickles by reference for both fork and spawn
    pools.  ``meta`` carries the attempt identity assigned by the
    supervisor; the heartbeat is best-effort and adds one file write
    plus a touch thread per attempt.
    """
    hb_dir = meta.get("hb_dir")
    if hb_dir is None:
        fire(meta["site"])
        return fn(task)
    with HeartbeatWriter(
        hb_dir,
        index=meta["index"],
        label=meta["label"],
        attempt=meta["attempt"],
        interval_s=meta.get("hb_interval", 0.2),
    ):
        fire(meta["site"])
        return fn(task)


class InlinePool:
    """A pool of width one that is this process: ``submit`` runs the
    call to completion and returns an already-resolved future."""

    def submit(self, fn: Callable, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        pass


class _PoolBroken(Exception):
    """Internal: the pool died; ``suspects`` are charged an attempt."""

    def __init__(self, reason: str, suspects: list[int], hung: bool = False):
        super().__init__(reason)
        self.reason = reason
        self.suspects = suspects
        self.hung = hung


class SupervisedExecutor:
    """Run pure tasks on a rebuildable pool under supervision."""

    def __init__(
        self,
        pool_factory: Callable[[], object],
        config: SuperviseConfig | None = None,
        *,
        metrics=None,
        label: str = "task",
        task_name: Callable[[object, int], str] | None = None,
    ) -> None:
        self.pool_factory = pool_factory
        self.config = config if config is not None else SuperviseConfig.from_env()
        self.metrics = metrics
        self.label = label
        self.task_name = task_name or (lambda task, index: f"task {index}")
        self.restarts = 0
        self._pool = None
        self._hb_dir: str | None = None

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._shutdown_pool()
        if self._hb_dir is not None:
            clear_heartbeats(self._hb_dir)
            try:
                os.rmdir(self._hb_dir)
            except OSError:
                pass
            self._hb_dir = None

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _ensure_pool(self):
        if self._pool is None:
            self._pool = self.pool_factory()
            if self._hb_dir is None and not isinstance(self._pool, InlinePool):
                self._hb_dir = tempfile.mkdtemp(prefix="snaps-heartbeats-")
        return self._pool

    def _shutdown_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = dict(getattr(pool, "_processes", None) or {})
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass
        # Discarded generations get no grace: a worker forked while
        # another thread held a lock (fork + threads) can deadlock
        # before ever serving a task, and concurrent.futures' atexit
        # hook would then join it forever, hanging interpreter exit.
        # Every result this pool owed has already been returned or
        # charged, so killing is always safe here.
        for pid in processes:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass

    def _rebuild_pool(self) -> None:
        self._shutdown_pool()
        if self._hb_dir is not None:
            clear_heartbeats(self._hb_dir)  # dead generation's evidence
        self.restarts += 1
        self._inc("supervise.restarts")

    def _inc(self, name: str, value: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, value)

    # -- the supervised map --------------------------------------------

    def map(self, fn: Callable, tasks: list, label: str | None = None) -> list:
        """Run ``fn`` over ``tasks``; results in submission order.

        The first quarantined task raises :class:`TaskQuarantinedError`.
        """
        if not tasks:
            return []
        label = label or self.label
        results: dict[int, object] = {}
        charged = [0] * len(tasks)
        errors: list[list[str]] = [[] for _ in tasks]
        while len(results) < len(tasks):
            try:
                self._round(fn, tasks, label, results, charged, errors)
            except _PoolBroken as broken:
                for index in broken.suspects:
                    self._charge(
                        index,
                        tasks,
                        label,
                        charged,
                        errors,
                        f"pool broken while attempt {charged[index]} was "
                        f"running: {broken.reason}",
                        hung=broken.hung,
                    )
                self._rebuild_pool()
        return [results[index] for index in range(len(tasks))]

    def _meta(self, label: str, index: int, attempt: int) -> dict:
        return {
            "site": f"supervise.task.{label}.t{index}.a{attempt}",
            "index": index,
            "label": label,
            "attempt": attempt,
            "hb_dir": self._hb_dir,
            "hb_interval": self.config.heartbeat_interval_s,
        }

    def _round(
        self,
        fn: Callable,
        tasks: list,
        label: str,
        results: dict[int, object],
        charged: list[int],
        errors: list[list[str]],
    ) -> None:
        """One pool generation: submit incomplete tasks, drain or break."""
        pool = self._ensure_pool()
        futures: dict[Future, int] = {}

        def submit(index: int) -> None:
            meta = self._meta(label, index, charged[index])
            futures[pool.submit(run_supervised, fn, tasks[index], meta)] = index

        incomplete = [i for i in range(len(tasks)) if i not in results]
        try:
            for index in incomplete:
                submit(index)
        except _POOL_DEATH as exc:
            raise _PoolBroken(
                f"{type(exc).__name__}: {exc}", self._suspects(set(incomplete))
            ) from None
        while futures:
            done, _ = wait(
                set(futures),
                timeout=self.config.poll_interval_s,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                index = futures.pop(future)
                exc = future.exception()
                if exc is None:
                    results[index] = future.result()
                    self._inc("supervise.tasks")
                    continue
                if isinstance(exc, _POOL_DEATH):
                    pending = set(futures.values()) | {index}
                    raise _PoolBroken(
                        f"{type(exc).__name__}: {exc}", self._suspects(pending)
                    ) from None
                # The task raised inside a live worker: charge it alone.
                detail = "".join(
                    traceback.format_exception(type(exc), exc, exc.__traceback__)
                ).strip()
                self._charge(
                    index,
                    tasks,
                    label,
                    charged,
                    errors,
                    detail,
                    category=classify(exc),
                )
                self._inc("supervise.retries")
                try:
                    submit(index)
                except _POOL_DEATH as pool_exc:
                    pending = set(futures.values()) | {index}
                    raise _PoolBroken(
                        f"{type(pool_exc).__name__}: {pool_exc}",
                        self._suspects(pending),
                    ) from None
            self._watch_heartbeats(set(futures.values()))

    # -- failure accounting --------------------------------------------

    def _charge(
        self,
        index: int,
        tasks: list,
        label: str,
        charged: list[int],
        errors: list[list[str]],
        message: str,
        *,
        category: str = TRANSIENT,
        hung: bool = False,
    ) -> None:
        """Record a failed attempt; quarantine when the budget is spent."""
        charged[index] += 1
        errors[index].append(message)
        if hung:
            self._inc("supervise.hung_tasks")
        retryable = category == TRANSIENT
        if retryable and charged[index] < self.config.attempt_budget:
            return
        name = self.task_name(tasks[index], index)
        artifact = write_quarantine_record(
            self.config.quarantine_dir,
            label=label,
            task_name=name,
            index=index,
            task=tasks[index],
            errors=errors[index],
        )
        self._inc("supervise.quarantined_tasks")
        raise TaskQuarantinedError(
            label=label,
            task_name=name,
            attempts=charged[index],
            artifact=artifact,
            last_error=message.splitlines()[-1] if message else "unknown",
        )

    def _suspects(self, incomplete: set[int]) -> list[int]:
        """Which incomplete tasks were running when the pool broke.

        Falls back to *all* incomplete tasks when the heartbeats name
        nobody (worker died before its first write) — conservative, but
        bounded by each task's retry budget.
        """
        beats = read_heartbeats(self._hb_dir) if self._hb_dir else []
        running = sorted(
            {
                int(beat["index"])
                for beat in beats
                if beat.get("state") == RUNNING
                and int(beat.get("index", -1)) in incomplete
            }
        )
        return running if running else sorted(incomplete)

    # -- liveness ------------------------------------------------------

    def _watch_heartbeats(self, incomplete: set[int]) -> None:
        """Gauge heartbeat age; SIGKILL attempts past their deadline."""
        if self._hb_dir is None:
            return
        beats = read_heartbeats(self._hb_dir)
        now = time.time()
        running = [
            beat
            for beat in beats
            if beat.get("state") == RUNNING
            and int(beat.get("index", -1)) in incomplete
        ]
        if self.metrics is not None and running:
            age = max(now - float(beat["mtime"]) for beat in running)
            self.metrics.set_gauge("supervise.heartbeat_age_seconds", age)
        deadline = self.config.task_timeout_s
        if not deadline:
            return
        hung = [
            beat for beat in running if now - float(beat["started"]) > deadline
        ]
        if not hung:
            return
        pool_pids = set(getattr(self._pool, "_processes", None) or ())
        for beat in hung:
            pid = int(beat["pid"])
            if pool_pids and pid not in pool_pids:
                continue  # stale evidence: never kill a non-worker pid
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        raise _PoolBroken(
            f"task deadline exceeded ({deadline:g}s)",
            sorted({int(beat["index"]) for beat in hung}),
            hung=True,
        )
