"""Pre-fork serving tier over a shared memory-mapped snapshot.

Python's GIL caps one :class:`~repro.serve.app.ServeHTTPServer` process
at roughly one core of search throughput no matter how many request
threads it runs.  The classic escape is the pre-fork model (nginx,
gunicorn, postgres): a **master** process prepares everything expensive
exactly once, then ``fork()``\\ s N workers that inherit the prepared
state and share one listening socket — N processes, N GILs, one copy of
the data.

The master here:

1. loads the snapshot with ``memmap=True`` — the pedigree graph is
   materialised eagerly (copy-on-write shared across the fork), while
   both indexes stay read-only ``numpy.memmap`` views of the snapshot's
   raw artefact tier, so workers share the *physical pages* of the
   index data and per-worker private RSS stays near zero;
2. calls :func:`gc.freeze` so the garbage collector never rewrites the
   refcount-laden pages of the pre-fork heap (un-frozen, a single GC
   pass in any worker would un-share most of the graph);
3. binds the listening socket (workers inherit the fd; with
   ``reuse_port`` each worker binds its own ``SO_REUSEPORT`` socket
   instead) and forks the workers;
4. supervises them with the ``repro.supervise`` heartbeat substrate:
   crashed workers are reaped via ``waitpid`` and restarted, wedged
   workers (stale heartbeat mtime) are killed and restarted, and a
   worker that flaps too fast is restarted with linear backoff;
5. coordinates ``POST /v1/reload`` as a **zero-downtime rotation**: the
   worker that received the request forwards it to the master over the
   control directory; the master maps the *new* snapshot, then replaces
   workers one at a time — fork a replacement on the new snapshot, wait
   for its heartbeat (readiness), only then terminate the old worker.
   The first slot acts as a canary: if its replacement fails to come
   up, nothing has been terminated yet and the fleet rolls back to the
   old snapshot wholesale.  Old and new workers briefly serve side by
   side on the same socket, so no request ever meets a closed port.

Each worker runs an asyncio front on the shared socket: connections are
parsed on the event loop and dispatched into a small thread pool running
:meth:`ServingApp.handle` (which is where request coalescing — see
:mod:`repro.serve.coalesce` — deduplicates identical in-flight
searches).  Workers publish their metrics registry as JSON files under
the run directory; any worker answering ``/metricz`` merges every
sibling's snapshot into one fleet view (counters summed, histograms
bucket-merged), so the scrape target does not care which worker the
kernel picked.
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import signal
import socket
import tempfile
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.client import responses as _REASONS
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, histogram_quantile
from repro.serve.app import Response, ServeConfig, ServingApp, content_length
from repro.store import SnapshotStore
from repro.supervise.heartbeat import (
    HeartbeatWriter,
    clear_heartbeats,
    read_heartbeats,
)
from repro.utils.atomic import write_atomic

__all__ = [
    "PreforkConfig",
    "PreforkMaster",
    "merge_metric_snapshots",
    "proc_private_bytes",
]

logger = get_logger("serve.prefork")

CONTROL_DIRNAME = "control"
METRICS_DIRNAME = "metrics"
HEARTBEAT_DIRNAME = "heartbeats"


@dataclass(frozen=True)
class PreforkConfig:
    """Tunables of the pre-fork master (the ``--workers`` deployment)."""

    workers: int = 2
    # Scratch directory for heartbeats / control files / metric
    # snapshots; a private tempdir is created (and kept) when None.
    run_dir: str | os.PathLike | None = None
    # Per-worker SO_REUSEPORT sockets instead of one inherited fd.
    reuse_port: bool = False
    # Threads per worker running ServingApp.handle under the asyncio
    # front (search is numpy/graph work that mostly holds the GIL, so a
    # handful is plenty — parallelism comes from processes).
    worker_threads: int = 4
    heartbeat_interval_s: float = 0.2
    # How often each worker publishes its metrics snapshot for the
    # fleet-merged /metricz view (any worker can answer the scrape).
    metrics_publish_interval_s: float = 1.0
    # A live worker whose heartbeat mtime is older than this is wedged.
    hang_timeout_s: float = 15.0
    # Master supervision loop cadence.
    poll_interval_s: float = 0.1
    # Linear restart backoff: attempt * backoff, capped.
    restart_backoff_s: float = 0.2
    restart_backoff_max_s: float = 2.0
    # How long a rotation waits for a replacement worker's heartbeat.
    rotate_ready_timeout_s: float = 30.0
    # How long a worker's forwarded /v1/reload waits for the master.
    reload_timeout_s: float = 120.0
    shutdown_grace_s: float = 5.0


# ----------------------------------------------------------------------
# Fleet metrics
# ----------------------------------------------------------------------


def proc_private_bytes(pid: int) -> int | None:
    """Private (unshared) resident bytes of ``pid``, or None off-Linux.

    ``Private_Clean + Private_Dirty`` from ``/proc/<pid>/smaps_rollup``
    is the honest per-worker cost of a fork-shared deployment: pages
    shared with the master (the memmapped indexes, the COW graph) are
    excluded, so this is what each *additional* worker actually costs.
    Falls back to full VmRSS when the kernel lacks smaps_rollup.
    """
    try:
        text = Path(f"/proc/{pid}/smaps_rollup").read_text()
    except OSError:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            return None
        for line in text.splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
        return None
    total = 0
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            total += int(line.split()[1]) * 1024
    return total


def merge_metric_snapshots(snapshots: list[dict]) -> dict:
    """Fold per-worker ``MetricsRegistry.as_dict()`` blobs into one view.

    Counters and gauges sum (a fleet gauge like cache size is the total
    across workers); histograms merge bucket-wise and re-derive their
    quantile estimates.  All workers run the same code, so histograms of
    the same name always agree on buckets; disagreement raises.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, theirs in snap.get("histograms", {}).items():
            mine = histograms.get(name)
            if mine is None:
                histograms[name] = {
                    "buckets": list(theirs["buckets"]),
                    "counts": list(theirs["counts"]),
                    "count": theirs["count"],
                    "sum": theirs["sum"],
                    "min": theirs["min"],
                    "max": theirs["max"],
                }
                continue
            if mine["buckets"] != list(theirs["buckets"]):
                raise ValueError(f"histogram {name!r} bucket mismatch")
            mine["counts"] = [
                a + b for a, b in zip(mine["counts"], theirs["counts"])
            ]
            mine["count"] += theirs["count"]
            mine["sum"] = round(mine["sum"] + theirs["sum"], 9)
            for key, pick in (("min", min), ("max", max)):
                if theirs[key] is not None:
                    mine[key] = (
                        theirs[key] if mine[key] is None
                        else pick(mine[key], theirs[key])
                    )
    for blob in histograms.values():
        if blob["count"]:
            minimum = blob["min"] if blob["min"] is not None else 0.0
            maximum = blob["max"] if blob["max"] is not None else math.inf
            for label, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                blob[label] = round(
                    histogram_quantile(
                        blob["buckets"], blob["counts"], q,
                        minimum=minimum, maximum=maximum,
                    ),
                    9,
                )
        else:
            blob["p50"] = blob["p95"] = blob["p99"] = None
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


class _FleetMetricsView:
    """Worker-side ``/metricz`` aggregator over the metrics directory."""

    def __init__(self, metrics_dir: Path, app: ServingApp) -> None:
        self.metrics_dir = metrics_dir
        self.app = app

    def publish(self) -> dict:
        """Write this worker's registry snapshot; returns it."""
        own = self.app.metrics.as_dict()
        try:
            write_atomic(self.metrics_dir / f"{os.getpid()}.json", json.dumps(own))
        except OSError:
            pass  # metrics publication is best-effort
        return own

    def __call__(self) -> dict:
        own = self.publish()
        snapshots = [own]
        mine = f"{os.getpid()}.json"
        for path in sorted(self.metrics_dir.glob("*.json")):
            if path.name == mine:
                continue
            try:
                snapshots.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue  # sibling mid-replace or just reaped
        return merge_metric_snapshots(snapshots)


# ----------------------------------------------------------------------
# Control-directory reload protocol (worker <-> master)
# ----------------------------------------------------------------------


class _ReloadForwarder:
    """Worker-side ``/v1/reload`` delegate: file-based RPC to the master."""

    def __init__(self, control_dir: Path, timeout_s: float) -> None:
        self.control_dir = control_dir
        self.timeout_s = timeout_s

    def __call__(self, requested: str | None) -> Response:
        request_id = uuid.uuid4().hex
        res_path = self.control_dir / f"res-{request_id}.json"
        write_atomic(
            self.control_dir / f"req-{request_id}.json",
            json.dumps(
                {"id": request_id, "snapshot": requested, "pid": os.getpid()}
            ),
        )
        deadline = time.monotonic() + self.timeout_s
        while time.monotonic() < deadline:
            try:
                blob = json.loads(res_path.read_text())
            except (OSError, ValueError):
                time.sleep(0.05)
                continue
            try:
                res_path.unlink()
            except OSError:
                pass
            body = (json.dumps(blob["payload"]) + "\n").encode("utf-8")
            return Response(blob["status"], body, "application/json")
        body = (
            json.dumps(
                {
                    "error": {
                        "status": 504,
                        "message": "reload coordinator did not respond "
                        f"within {self.timeout_s:g}s",
                    }
                }
            )
            + "\n"
        ).encode("utf-8")
        return Response(504, body, "application/json")


# ----------------------------------------------------------------------
# Worker: asyncio front over the shared socket
# ----------------------------------------------------------------------


async def _serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    app: ServingApp,
    pool: ThreadPoolExecutor,
    stop: asyncio.Event | None = None,
) -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            try:
                line = await reader.readline()
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            if not line or line in (b"\r\n", b"\n"):
                return
            try:
                method, target, version = line.decode("latin-1").split()
            except ValueError:
                writer.write(b"HTTP/1.1 400 Bad Request\r\n"
                             b"Content-Length: 0\r\nConnection: close\r\n\r\n")
                await writer.drain()
                return
            headers: dict[str, str] = {}
            while True:
                raw = await reader.readline()
                if not raw or raw in (b"\r\n", b"\n"):
                    break
                name, _, value = raw.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = content_length(headers.get("content-length"))
            if isinstance(length, Response):
                # The body stays unread, so the stream cannot be reused.
                response, rejected = length, True
            else:
                body = await reader.readexactly(length) if length else b""
                split = urlsplit(target)
                params = {k: v[0] for k, v in parse_qs(split.query).items()}
                # The app call runs search/pedigree work; keep the event
                # loop free to parse the next connection meanwhile.  This
                # is also where SingleFlight coalesces duplicate queries.
                response = await loop.run_in_executor(
                    pool, app.handle, method, split.path, params, body
                )
                rejected = False
            keep_alive = (
                not rejected
                and version != "HTTP/1.0"
                and headers.get("connection", "").lower() != "close"
                # A draining worker answers the request it holds, then
                # closes — keep-alive would pin connections it must shed.
                and not (stop is not None and stop.is_set())
            )
            reason = _REASONS.get(response.status, "Unknown")
            head = [
                f"HTTP/1.1 {response.status} {reason}",
                f"Content-Type: {response.content_type}",
                f"Content-Length: {len(response.body)}",
            ]
            head += [f"{k}: {v}" for k, v in response.headers.items()]
            head.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
            writer.write(
                ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                + response.body
            )
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionError, asyncio.IncompleteReadError):
        return  # client went away mid-request
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _worker_serve(
    app: ServingApp,
    sock: socket.socket,
    threads: int,
    publish_interval_s: float = 1.0,
    drain_timeout_s: float = 10.0,
) -> None:
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    pool = ThreadPoolExecutor(
        max_workers=threads, thread_name_prefix="snaps-worker"
    )

    async def publish_loop() -> None:
        # Keep this worker's snapshot fresh so whichever sibling the
        # kernel hands the /metricz scrape sees near-live fleet numbers.
        view = app.metrics_view
        while view is not None:
            try:
                view.publish()
            except Exception:  # pragma: no cover - best-effort telemetry
                pass
            await asyncio.sleep(publish_interval_s)

    publisher = asyncio.ensure_future(publish_loop())
    # Python 3.11's Server.wait_closed does not wait for in-flight
    # connection handlers, so track them ourselves: a SIGTERM'd worker
    # must finish the requests it already accepted (a mid-rotation
    # reload response, a search in the executor) before exiting, or
    # clients see dropped connections during a "zero-downtime" swap.
    conns: set[asyncio.Task] = set()

    async def handle(r: asyncio.StreamReader, w: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        conns.add(task)
        try:
            await _serve_connection(r, w, app, pool, stop)
        finally:
            conns.discard(task)

    server = await asyncio.start_server(handle, sock=sock)
    async with server:
        await stop.wait()
        server.close()  # stop accepting; siblings drain the shared queue
    if conns:
        await asyncio.wait(conns, timeout=drain_timeout_s)
    for task in conns:
        task.cancel()
    publisher.cancel()
    pool.shutdown(wait=False, cancel_futures=True)


def _worker_main(
    sock: socket.socket,
    parts,
    serve_config: ServeConfig,
    config: PreforkConfig,
    run_dir: Path,
    store: SnapshotStore,
    slot: int,
    attempt: int,
) -> None:
    """Worker-process entry point (runs after fork, never returns)."""
    status = 0
    try:
        if config.reuse_port:
            # Own socket in the kernel's REUSEPORT balancing group; the
            # master's bound-but-unlistened socket only parks the port.
            own = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            own.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            own.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            own.bind(sock.getsockname())
            own.listen(128)
            sock = own
        app = ServingApp(
            parts.graph,
            serve_config,
            keyword_index=parts.keyword_index,
            sim_index=parts.sim_index,
            store=store,
            manifest=parts.manifest,
        )
        app.reload_delegate = _ReloadForwarder(
            run_dir / CONTROL_DIRNAME, config.reload_timeout_s
        )
        app.metrics_view = _FleetMetricsView(run_dir / METRICS_DIRNAME, app)
        app.metrics.set_gauge("serve.prefork.worker_slot", slot)
        with HeartbeatWriter(
            run_dir / HEARTBEAT_DIRNAME,
            index=slot,
            label=f"serve-worker-{slot}",
            attempt=attempt,
            interval_s=config.heartbeat_interval_s,
        ):
            asyncio.run(
                _worker_serve(
                    app,
                    sock,
                    config.worker_threads,
                    config.metrics_publish_interval_s,
                    config.shutdown_grace_s,
                )
            )
    except BaseException:  # pragma: no cover - crash path
        logger.exception("worker slot %d died", slot)
        status = 1
    finally:
        # Never run the master's atexit/cleanup machinery in a child.
        os._exit(status)


# ----------------------------------------------------------------------
# Master
# ----------------------------------------------------------------------


@dataclass
class _SnapshotParts:
    """Everything a worker needs from one loaded snapshot."""

    graph: object
    keyword_index: object
    sim_index: object
    manifest: object
    memmapped: bool


class _Worker:
    __slots__ = ("pid", "slot", "attempt", "started", "parts")

    def __init__(self, pid, slot, attempt, parts) -> None:
        self.pid = pid
        self.slot = slot
        self.attempt = attempt
        self.started = time.monotonic()
        self.parts = parts


class PreforkMaster:
    """Fork, share, supervise: N serving workers over one snapshot map."""

    def __init__(
        self,
        store: SnapshotStore | str | os.PathLike,
        config: PreforkConfig | None = None,
        serve_config: ServeConfig | None = None,
        snapshot_id: str | None = None,
    ) -> None:
        self.store = (
            store if isinstance(store, SnapshotStore) else SnapshotStore(store)
        )
        self.config = config or PreforkConfig()
        if self.config.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.config.workers}")
        self.serve_config = serve_config or ServeConfig()
        self.snapshot_id = snapshot_id
        self.run_dir = Path(
            self.config.run_dir
            if self.config.run_dir is not None
            else tempfile.mkdtemp(prefix="snaps-prefork-")
        )
        self.metrics = MetricsRegistry()
        self._sock: socket.socket | None = None
        self._parts: _SnapshotParts | None = None
        self._workers: dict[int, _Worker] = {}
        self._stop = False
        self.restarts = 0

    # -- snapshot ------------------------------------------------------

    def _load_parts(self, snapshot_id: str | None) -> _SnapshotParts:
        loaded = self.store.load(
            snapshot_id, artifacts=("graph", "indexes"), memmap=True
        )
        return _SnapshotParts(
            graph=loaded.graph,
            keyword_index=loaded.keyword_index,
            sim_index=loaded.sim_index,
            manifest=loaded.manifest,
            memmapped=loaded.memmapped,
        )

    # -- socket --------------------------------------------------------

    def _bind_socket(self) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if self.config.reuse_port:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.serve_config.host, self.serve_config.port))
        if not self.config.reuse_port:
            # Workers inherit this fd; the kernel load-balances accepts.
            sock.listen(128)
        # else: bound but never listening — it only reserves the port;
        # each worker joins the REUSEPORT group with its own socket.
        return sock

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port); valid after :meth:`start` binds."""
        assert self._sock is not None
        return self._sock.getsockname()

    # -- worker lifecycle ----------------------------------------------

    def _spawn(self, slot: int, attempt: int, parts: _SnapshotParts) -> _Worker:
        pid = os.fork()
        if pid == 0:
            _worker_main(
                self._sock,
                parts,
                self.serve_config,
                self.config,
                self.run_dir,
                self.store,
                slot,
                attempt,
            )
            raise AssertionError("unreachable")  # pragma: no cover
        worker = _Worker(pid, slot, attempt, parts)
        logger.info(
            "spawned worker slot=%d pid=%d attempt=%d snapshot=%s",
            slot, pid, attempt, parts.manifest.snapshot_id,
        )
        return worker

    def _cleanup_worker_files(self, pid: int) -> None:
        for path in (
            self.run_dir / HEARTBEAT_DIRNAME / f"{pid}.hb",
            self.run_dir / METRICS_DIRNAME / f"{pid}.json",
        ):
            try:
                path.unlink()
            except OSError:
                pass

    def _terminate(self, worker: _Worker, grace_s: float) -> None:
        """SIGTERM, wait up to ``grace_s``, escalate to SIGKILL."""
        for signum, wait_s in (
            (signal.SIGTERM, grace_s),
            (signal.SIGKILL, 2.0),
        ):
            try:
                os.kill(worker.pid, signum)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + wait_s
            while time.monotonic() < deadline:
                try:
                    pid, _ = os.waitpid(worker.pid, os.WNOHANG)
                except ChildProcessError:
                    self._cleanup_worker_files(worker.pid)
                    return
                if pid == worker.pid:
                    self._cleanup_worker_files(worker.pid)
                    return
                time.sleep(0.02)
        logger.error("worker pid %d refused to die", worker.pid)

    def _wait_ready(self, pid: int, timeout_s: float) -> bool:
        """Block until ``pid``'s heartbeat appears (True) or it dies/times
        out (False)."""
        hb = self.run_dir / HEARTBEAT_DIRNAME / f"{pid}.hb"
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                dead, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return False
            if dead == pid:
                return False
            if hb.exists():
                return True
            time.sleep(0.02)
        return False

    # -- supervision ---------------------------------------------------

    def _reap(self) -> None:
        while True:
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                return
            worker = next(
                (w for w in self._workers.values() if w.pid == pid), None
            )
            self._cleanup_worker_files(pid)
            if worker is None or self._stop:
                continue
            exit_code = os.waitstatus_to_exitcode(status)
            logger.warning(
                "worker slot=%d pid=%d exited (%s); restarting",
                worker.slot, pid, exit_code,
            )
            self.restarts += 1
            self.metrics.inc("serve.prefork.restarts")
            backoff = min(
                worker.attempt * self.config.restart_backoff_s,
                self.config.restart_backoff_max_s,
            )
            if backoff:
                time.sleep(backoff)
            self._workers[worker.slot] = self._spawn(
                worker.slot, worker.attempt + 1, worker.parts
            )

    def _kill_hung(self) -> None:
        now = time.time()
        live = {w.pid for w in self._workers.values()}
        for beat in read_heartbeats(self.run_dir / HEARTBEAT_DIRNAME):
            pid = beat.get("pid")
            if pid not in live:
                continue
            if now - beat["mtime"] > self.config.hang_timeout_s:
                logger.error(
                    "worker pid %d heartbeat stale (%.1fs); killing",
                    pid, now - beat["mtime"],
                )
                self.metrics.inc("serve.prefork.hangs")
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    # -- reload rotation -----------------------------------------------

    def _handle_reload_request(
        self, requested: str | None, sender_pid: int | None = None
    ) -> tuple[int, dict, list[_Worker]]:
        """Rotate the fleet onto ``requested``.

        Returns ``(status, payload, leftovers)``.  ``leftovers`` are old
        workers whose termination the caller must perform *after* the
        control response is written: the worker that forwarded the
        reload (``sender_pid``) still holds the client's connection, so
        killing it before it can relay our answer would turn the reload
        itself into the one dropped request of the "zero-downtime"
        swap.  That slot is rotated last and its old worker handed back
        instead of terminated.
        """
        previous = self._parts.manifest.snapshot_id
        if requested is not None and requested == previous:
            self.metrics.inc("serve.reloads_noop")
            return 200, {
                "status": "unchanged",
                "snapshot": previous,
                "previous": previous,
                "workers": len(self._workers),
            }, []
        try:
            new_parts = self._load_parts(requested)
        except Exception as error:
            logger.warning("reload load failed: %s", error)
            return 503, {
                "error": {"status": 503, "message": f"snapshot load failed: {error}"}
            }, []
        if new_parts.manifest.snapshot_id == previous:
            self.metrics.inc("serve.reloads_noop")
            return 200, {
                "status": "unchanged",
                "snapshot": previous,
                "previous": previous,
                "workers": len(self._workers),
            }, []
        rotated: list[int] = []
        leftovers: list[_Worker] = []
        slots = sorted(
            self._workers,
            key=lambda s: (self._workers[s].pid == sender_pid, s),
        )
        for slot in slots:
            old = self._workers[slot]
            replacement = self._spawn(slot, 0, new_parts)
            if not self._wait_ready(
                replacement.pid, self.config.rotate_ready_timeout_s
            ):
                # Canary (or mid-fleet) failure: the new snapshot does
                # not come up.  Nothing on this slot was terminated yet;
                # roll the already-rotated slots back to the old parts.
                logger.error(
                    "replacement worker for slot %d failed readiness; "
                    "rolling back to snapshot %s", slot, previous,
                )
                self._terminate(replacement, 0.5)
                for back_slot in rotated:
                    current = self._workers[back_slot]
                    restored = self._spawn(back_slot, 0, self._parts)
                    if self._wait_ready(
                        restored.pid, self.config.rotate_ready_timeout_s
                    ):
                        self._terminate(
                            current, self.config.shutdown_grace_s
                        )
                        self._workers[back_slot] = restored
                    else:  # pragma: no cover - double fault
                        self._terminate(restored, 0.5)
                self.metrics.inc("serve.prefork.reload_rollbacks")
                return 503, {
                    "error": {
                        "status": 503,
                        "message": (
                            f"snapshot {new_parts.manifest.snapshot_id} "
                            "failed worker readiness; fleet rolled back "
                            f"to {previous}"
                        ),
                    }
                }, []
            if old.pid == sender_pid:
                leftovers.append(old)
            else:
                self._terminate(old, self.config.shutdown_grace_s)
            self._workers[slot] = replacement
            rotated.append(slot)
        self._parts = new_parts
        self.metrics.inc("serve.reloads")
        logger.info(
            "rotated %d workers onto snapshot %s (was %s)",
            len(rotated), new_parts.manifest.snapshot_id, previous,
        )
        return 200, {
            "status": "reloaded",
            "snapshot": new_parts.manifest.snapshot_id,
            "previous": previous,
            "workers": len(self._workers),
            "entities": len(new_parts.graph),
            "edges": new_parts.graph.n_edges(),
        }, leftovers

    def _serve_control(self) -> None:
        control = self.run_dir / CONTROL_DIRNAME
        for req_path in sorted(control.glob("req-*.json")):
            try:
                request = json.loads(req_path.read_text())
            except (OSError, ValueError):
                continue  # writer mid-replace; next tick
            try:
                req_path.unlink()
            except OSError:
                pass
            status, payload, leftovers = self._handle_reload_request(
                request.get("snapshot"), request.get("pid")
            )
            write_atomic(
                control / f"res-{request['id']}.json",
                json.dumps({"status": status, "payload": payload}),
            )
            # Only now retire the worker that forwarded this request:
            # it reads the response file and relays it over the client
            # connection while draining under SIGTERM.
            for old in leftovers:
                self._terminate(old, self.config.shutdown_grace_s)

    def _publish_metrics(self) -> None:
        self.metrics.set_gauge("serve.prefork.workers", len(self._workers))
        total_private = 0
        for worker in self._workers.values():
            private = proc_private_bytes(worker.pid)
            if private is not None:
                total_private += private
        self.metrics.set_gauge(
            "serve.prefork.worker_private_bytes", total_private
        )
        try:
            write_atomic(
                self.run_dir / METRICS_DIRNAME / "master.json",
                json.dumps(self.metrics.as_dict()),
            )
        except OSError:
            pass

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Bind, map, fork, supervise.  Blocks until SIGTERM/SIGINT (or
        :meth:`stop` from another thread)."""
        for sub in (CONTROL_DIRNAME, METRICS_DIRNAME, HEARTBEAT_DIRNAME):
            (self.run_dir / sub).mkdir(parents=True, exist_ok=True)
        clear_heartbeats(self.run_dir / HEARTBEAT_DIRNAME)
        self._sock = self._bind_socket()
        # Port discovery for harnesses that bind port 0.
        host, port = self.address
        write_atomic(
            self.run_dir / "address.json",
            json.dumps({"host": host, "port": port}),
        )
        self._parts = self._load_parts(self.snapshot_id)
        if not self._parts.memmapped:
            logger.warning(
                "snapshot %s predates the raw artefact tier; workers "
                "each hold private index copies (re-save to enable "
                "page sharing)", self._parts.manifest.snapshot_id,
            )
        # Freeze the pre-fork heap: without this, the first GC pass in
        # any worker touches every object header and un-shares the
        # copy-on-write pages the whole design exists to share.
        gc.freeze()
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._handle_signal)
        for slot in range(self.config.workers):
            self._workers[slot] = self._spawn(slot, 0, self._parts)
        logger.info(
            "prefork master up: %d workers on %s:%d (snapshot %s, %s)",
            len(self._workers), *self.address,
            self._parts.manifest.snapshot_id,
            "memmap" if self._parts.memmapped else "eager",
        )
        try:
            while not self._stop:
                self._reap()
                self._kill_hung()
                self._serve_control()
                self._publish_metrics()
                time.sleep(self.config.poll_interval_s)
        finally:
            self._shutdown()

    def _handle_signal(self, signum, frame) -> None:  # pragma: no cover
        self._stop = True

    def stop(self) -> None:
        """Request a graceful fleet shutdown (thread/signal safe)."""
        self._stop = True

    def _shutdown(self) -> None:
        self._stop = True
        for worker in self._workers.values():
            try:
                os.kill(worker.pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + self.config.shutdown_grace_s
        pending = {w.pid for w in self._workers.values()}
        while pending and time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pending.clear()
                break
            if pid:
                pending.discard(pid)
            else:
                time.sleep(0.02)
        for pid in pending:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
        self._workers.clear()
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        logger.info("prefork master shut down")
