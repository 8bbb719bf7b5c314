"""Submission-ordered supervised task execution, in-process or pooled.

:class:`TaskRunner` is the runner behind the offline fan-out: the
blocking-filter chunk pool of :mod:`repro.parallel` (filter chunks over
one shared payload).  Results come back **in submission order**, so
pool scheduling never influences a merge.

Every task runs through :class:`~repro.supervise.SupervisedExecutor`,
whatever the pool width, so failure semantics never depend on the CPU
count: a transient error is retried, a task that spends its attempt
budget is quarantined, and the same fault sites
``supervise.task.<label>.t<i>.a<k>`` fire.  The pool width is
``min(workers, available_cpus(), len(tasks))`` (``oversubscribe`` lifts
the CPU clamp).  At width 1 the tasks run in this process through an
:class:`InlinePool`: no fork, no IPC, no heartbeats and no deadline
kill — only a pooled attempt can be hang-killed.  At width 2 and up
they run in a fork ``ProcessPoolExecutor``.  An optional ``install()``
callable puts a shared payload in place: it runs in this process before
the fork so children inherit the payload, or as the pool initializer
where only ``spawn`` exists.

Telemetry: each task carries the parent's serialised
:class:`~repro.obs.trace.TraceContext` plus a ``collect`` flag; the
task answers with a detached span and a metrics-delta registry, which
:meth:`TaskRunner._absorb` grafts under the task's wait span and folds
into the parent registry — one span tree and one registry however many
processes ran.
"""

from __future__ import annotations

import os
from typing import Callable

from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.trace import Trace
from repro.supervise.config import SuperviseConfig
from repro.supervise.executor import InlinePool, SupervisedExecutor

__all__ = ["TaskRunner", "available_cpus"]


def available_cpus() -> int:
    """CPUs this process may schedule on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class TaskRunner:
    """Runs task dicts under supervision; results in submission order.

    ``key`` names the task field that identifies a task (``"chunk"``);
    it also names tasks in quarantine errors (``chunk 1``).
    ``span`` is the per-task wait-span name, formatted with ``label``
    and ``index`` (the task's ``key`` value).  ``counter``/``seconds``
    are the metric names each completed task increments/observes.
    """

    def __init__(
        self,
        workers: int,
        *,
        key: str,
        span: str,
        counter: str,
        seconds: str,
        trace: Trace | None = None,
        metrics: MetricsRegistry | None = None,
        supervise: SuperviseConfig | None = None,
        oversubscribe: bool = False,
        install: Callable[[], None] | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"TaskRunner needs workers >= 1, got {workers}")
        # A CPU-bound pool gains nothing from more processes than cores —
        # clamp unless explicitly asked to oversubscribe.  Pool width
        # never affects output (results merge in submission order).
        self.pool_workers = (
            workers if oversubscribe else min(workers, available_cpus())
        )
        self.key = key
        self.span = span
        self.counter = counter
        self.seconds = seconds
        self.trace = trace if trace is not None else Trace.disabled()
        self.metrics = metrics
        self.supervise = supervise  # None: SNAPS_TASK_* from the environment
        self.install = install

    def _make_pool(self, width: int):
        """Build one pool generation (also the supervisor's rebuild hook)."""
        # Imported here: the serving tier imports this package for its
        # heartbeats and never builds a process pool.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if width > 1 and "fork" not in multiprocessing.get_all_start_methods():
            return ProcessPoolExecutor(  # pragma: no cover - non-fork platforms
                max_workers=width,
                mp_context=multiprocessing.get_context(),
                initializer=self.install,
            )
        if self.install is not None:
            self.install()  # in-process, or inherited through fork
        if width == 1:
            return InlinePool()
        return ProcessPoolExecutor(
            max_workers=width, mp_context=multiprocessing.get_context("fork")
        )

    def map(self, fn: Callable[[dict], dict], tasks: list[dict], label: str) -> list[dict]:
        """Run ``fn`` over ``tasks``; results come back in task order."""
        if not tasks:
            return []
        ctx = self.trace.context(label=label)
        ctx_dict = ctx.to_dict() if ctx is not None else None
        collect = self.metrics is not None
        if ctx_dict is not None or collect:
            tasks = [
                {**task, "ctx": ctx_dict, "collect": collect} for task in tasks
            ]
        width = min(self.pool_workers, len(tasks))
        with SupervisedExecutor(
            lambda: self._make_pool(width),
            self.supervise,
            metrics=self.metrics,
            task_name=lambda task, index: f"{self.key} {task[self.key]}",
        ) as executor:
            outputs = executor.map(fn, tasks, label)
        for task, result in zip(tasks, outputs):
            # The wait happened inside the supervisor; the span is kept
            # (near-zero duration) so the trace tree keeps its per-task
            # wait nodes with the task's own span grafted beneath each.
            name = self.span.format(label=label, index=task[self.key])
            with self.trace.span(name) as wait:
                pass
            self._absorb(result, wait)
        return outputs

    def _absorb(self, result: dict, wait_span) -> None:
        """Merge one task result's telemetry into the parent's."""
        node = result.pop("span", None)
        if node is not None:
            self.trace.attach(node, parent=wait_span)
        wmetrics = result.pop("wmetrics", None)
        if self.metrics is not None:
            if wmetrics is not None:
                self.metrics.merge(wmetrics)
            self.metrics.inc(self.counter)
            self.metrics.observe(self.seconds, result["elapsed"], LATENCY_BUCKETS_S)
