"""The serving application: routes, HTTP plumbing, telemetry.

SNAPS's online phase (paper Section 7, Figure 5) is a web form backed by
the keyword index ``K`` and similarity index ``S``.  :class:`ServingApp`
is that deployment shape: it loads a resolved pedigree graph **once**,
builds the :class:`~repro.query.engine.QueryEngine` indexes **once**,
and then answers concurrent JSON requests forever — in contrast to the
``repro query`` CLI which pays the full index build on every invocation.

The app is deliberately split from the HTTP server: ``handle()`` maps a
``(method, path, params, body)`` tuple to a :class:`Response`, so route
logic is unit-testable without sockets, and the thin
``BaseHTTPRequestHandler`` adapter only does wire I/O.  Endpoints:

* ``POST /v1/search`` — ranked matches for a JSON query body;
* ``GET /v1/pedigree/<id>?generations=N&format=json|ascii|dot|gedcom``;
* ``POST /v1/reload`` — re-load graph + indexes from the attached
  snapshot store (bounded retries, atomic engine swap);
* ``GET /healthz`` — ``ok | degraded | failing`` + breaker states;
* ``GET /metricz`` — the :class:`~repro.obs.metrics.MetricsRegistry`
  rendered as text (or JSON with ``?format=json``).

Every request runs under its own :class:`~repro.obs.trace.Trace` (the
span stack is not shareable across threads), emits a per-endpoint
latency histogram, and expensive endpoints pass through the
:class:`~repro.serve.admission.AdmissionController`.

**Degraded mode** (``repro.faults``): search, pedigree extraction, and
snapshot reload each run behind a :class:`~repro.faults.CircuitBreaker`.
When a backend fails — or its circuit is already open — the app serves
the last good answer from the result cache (kept past its TTL via
``keep_stale``) with a ``Warning: 110`` header and an
``X-Snaps-Stale-Age`` header, falling back to ``503`` + ``Retry-After``
only when nothing cached exists.  After ``breaker_reset_s`` the breaker
half-opens and lets one live probe through; a success closes it and
``/healthz`` returns to ``ok``.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.faults import (
    CLOSED,
    OPEN,
    CircuitBreaker,
    RetryPolicy,
    classify,
)
from repro.obs.logs import get_logger
from repro.obs.metrics import LATENCY_BUCKETS_S, MetricsRegistry
from repro.obs.prom import process_gauges, render_prometheus
from repro.obs.report import build_report, render_report
from repro.obs.trace import Trace
from repro.pedigree import extract_pedigree
from repro.pedigree.gedcom import render_gedcom
from repro.pedigree.graph import PedigreeGraph
from repro.pedigree.visualize import render_ascii_tree, render_dot
from repro.query import QueryEngine
from repro.serve.admission import AdmissionController, Deadline, Rejected
from repro.serve.cache import MISS, LRUTTLCache, query_cache_key
from repro.serve.coalesce import SingleFlight
from repro.serve.serialization import (
    pedigree_payload,
    query_from_mapping,
    search_payload,
)
from repro.serve.slo import SloMonitor, SloObjectives

__all__ = ["Response", "ServeConfig", "ServeHTTPServer", "ServingApp", "make_server"]

logger = get_logger("serve.app")

MAX_GENERATIONS = 10
_PEDIGREE_FORMATS = ("json", "ascii", "dot", "gedcom")
#: Largest request body either front end reads.  Search bodies stay
#: under 1 KB (query fields are capped at 100 characters).
MAX_BODY_BYTES = 64 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving process (the ``repro serve`` flags)."""

    host: str = "127.0.0.1"
    port: int = 8080
    cache_size: int = 256
    cache_ttl_s: float | None = 300.0
    max_concurrency: int = 8
    max_pending: int = 32
    queue_timeout_s: float = 1.0
    request_timeout_s: float | None = 5.0
    similarity_threshold: float = 0.5
    use_geographic_distance: bool = False
    # Keep per-request span trees in ``ServingApp.recent_traces``.
    tracing: bool = True
    # Degraded mode: consecutive failures that open a circuit, seconds
    # before a half-open recovery probe, and the bounded-retry policy
    # around snapshot store reads.
    breaker_threshold: int = 3
    breaker_reset_s: float = 30.0
    retry_attempts: int = 3
    retry_base_delay_s: float = 0.05
    # SLO objectives tracked by the rolling-window monitor (see
    # repro.serve.slo): availability and latency-within-deadline targets
    # over a sliding window, surfaced on /healthz and /metricz.
    slo_availability: float = 0.999
    slo_latency_target: float = 0.99
    slo_deadline_s: float = 0.5
    slo_window_s: float = 300.0


@dataclass
class Response:
    """One materialised HTTP response, transport-independent."""

    status: int
    body: bytes
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def json(self) -> dict:
        """Decode the body back to JSON (test convenience)."""
        return json.loads(self.body.decode("utf-8"))


def _json_response(status: int, payload: dict, headers: dict | None = None) -> Response:
    body = (json.dumps(payload, sort_keys=False) + "\n").encode("utf-8")
    return Response(status, body, "application/json", dict(headers or {}))


def _error_response(status: int, message: str, headers: dict | None = None) -> Response:
    return _json_response(
        status, {"error": {"status": status, "message": message}}, headers
    )


def content_length(value: str | None) -> int | Response:
    """The body length a ``Content-Length`` header announces, or the
    response to send instead of reading the body: 400 for a malformed or
    negative length, 413 above :data:`MAX_BODY_BYTES`.  The connection
    must close after such a response, since the body was never read."""
    value = (value or "0").strip()
    if not (value.isascii() and value.isdigit()):
        return _error_response(400, f"invalid Content-Length {value!r}")
    length = int(value)
    if length > MAX_BODY_BYTES:
        return _error_response(
            413, f"request body of {length} bytes exceeds {MAX_BODY_BYTES}"
        )
    return length


def _text_response(status: int, text: str) -> Response:
    return Response(status, text.encode("utf-8"), "text/plain; charset=utf-8")


class ServingApp:
    """Route dispatch over one loaded pedigree graph."""

    def __init__(
        self,
        graph: PedigreeGraph,
        config: ServeConfig | None = None,
        metrics: MetricsRegistry | None = None,
        keyword_index=None,
        sim_index=None,
        store=None,
        manifest=None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        """``keyword_index``/``sim_index`` (from a ``repro.store``
        snapshot) warm-start the engine so boot skips index construction
        entirely; both default to building from ``graph``.  ``store`` is
        an optional :class:`~repro.store.SnapshotStore` backing
        ``POST /v1/reload``; ``manifest`` identifies the loaded snapshot
        on ``/metricz`` (id + age gauges); ``clock``/``sleep`` are
        injectable so chaos tests drive breaker recovery and retry
        backoff without waiting.
        """
        self.config = config or ServeConfig()
        self.graph = graph
        self.store = store
        self.manifest = manifest
        self._clock = clock
        self._sleep = sleep
        # /metricz needs a real registry, so unlike the offline pipeline
        # telemetry here is always on (it is thread-safe and cheap).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The engine's indexes are read-only after this build (see the
        # thread-safety notes in repro.index); the engine gets no Trace
        # because one span stack cannot be shared across request threads.
        self.engine = QueryEngine(
            graph,
            similarity_threshold=self.config.similarity_threshold,
            use_geographic_distance=self.config.use_geographic_distance,
            metrics=self.metrics,
            keyword_index=keyword_index,
            sim_index=sim_index,
        )
        # keep_stale: expired entries stay recoverable for degraded mode.
        # The cache is bound to the serving snapshot's id so entries
        # inherited across fork from a process serving a *different*
        # snapshot can never come back as fresh hits (see LRUTTLCache).
        self.cache = LRUTTLCache(
            max_size=self.config.cache_size,
            ttl_s=self.config.cache_ttl_s,
            metrics=self.metrics,
            clock=clock,
            keep_stale=True,
            token=(
                str(manifest.snapshot_id) if manifest is not None else None
            ),
        )
        # Burst deduplication: identical in-flight searches share one
        # backend computation (the result cache only helps *after* the
        # first answer lands).
        self.flights = SingleFlight(metrics=self.metrics)
        self.gate = AdmissionController(
            max_concurrency=self.config.max_concurrency,
            max_pending=self.config.max_pending,
            queue_timeout_s=self.config.queue_timeout_s,
            metrics=self.metrics,
        )
        self.breakers = {
            name: CircuitBreaker(
                name,
                failure_threshold=self.config.breaker_threshold,
                reset_timeout_s=self.config.breaker_reset_s,
                clock=clock,
                metrics=self.metrics,
            )
            for name in ("search", "pedigree", "reload")
        }
        self.slo = SloMonitor(
            SloObjectives(
                availability=self.config.slo_availability,
                latency_target=self.config.slo_latency_target,
                latency_deadline_s=self.config.slo_deadline_s,
                window_s=self.config.slo_window_s,
            ),
            clock=clock,
            metrics=self.metrics,
        )
        self._reload_lock = threading.Lock()
        # Pre-fork deployment hooks (see repro.serve.prefork).  A worker
        # process cannot swap the whole fleet's snapshot by itself, so
        # when set, /v1/reload forwards to the master via this delegate;
        # /metricz renders the fleet-merged view from ``metrics_view``.
        self.reload_delegate = None
        self.metrics_view = None
        self.started_at = clock()
        # Last few request span trees, for debugging and tests.
        self.recent_traces: deque[Trace] = deque(maxlen=32)
        self._traces_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        params: dict[str, str] | None = None,
        body: bytes | None = None,
    ) -> Response:
        """Answer one request; never raises (errors become responses)."""
        params = params or {}
        endpoint, error = self._route(method, path)
        if error is not None:
            self.metrics.inc("serve.requests")
            self._count_status(error.status)
            return error
        trace = Trace() if self.config.tracing else Trace.disabled()
        start = time.perf_counter()
        try:
            with trace.span(f"serve.{endpoint}"):
                if endpoint == "healthz":
                    response = self._handle_healthz()
                elif endpoint == "metricz":
                    response = self._handle_metricz(params)
                elif endpoint == "search":
                    response = self._handle_search(body, trace)
                elif endpoint == "reload":
                    response = self._handle_reload(body)
                else:
                    response = self._handle_pedigree(path, params, trace)
        except Exception:  # pragma: no cover - defensive: bugs become 500s
            logger.exception("unhandled error serving %s %s", method, path)
            response = _error_response(500, "internal server error")
        elapsed = time.perf_counter() - start
        self.metrics.inc("serve.requests")
        self._count_status(response.status)
        self.metrics.observe(
            f"serve.{endpoint}.latency_seconds", elapsed, LATENCY_BUCKETS_S
        )
        # The latency objective covers the read paths; probes and admin
        # endpoints count toward availability only.  Health transitions
        # (breaker opens/closes) become SLO events here, so degraded-mode
        # entry/exit is visible in /metricz without log archaeology.
        self.slo.record(
            endpoint,
            response.status,
            elapsed,
            latency_eligible=endpoint in ("search", "pedigree"),
        )
        self.slo.note_health(self._health_state()[0])
        if trace.enabled:
            with self._traces_lock:
                self.recent_traces.append(trace)
        return response

    def _route(self, method: str, path: str) -> tuple[str, Response | None]:
        """(endpoint name, error response or None) for a request line."""
        if path == "/healthz":
            endpoint = "healthz"
        elif path == "/metricz":
            endpoint = "metricz"
        elif path == "/v1/search":
            endpoint = "search"
        elif path == "/v1/reload":
            endpoint = "reload"
        elif path.startswith("/v1/pedigree/"):
            endpoint = "pedigree"
        else:
            return "", _error_response(404, f"unknown path: {path}")
        wanted = "POST" if endpoint in ("search", "reload") else "GET"
        if method != wanted:
            return endpoint, _error_response(
                405, f"{endpoint} requires {wanted}", {"Allow": wanted}
            )
        return endpoint, None

    def _count_status(self, status: int) -> None:
        self.metrics.inc(f"serve.responses.{status // 100}xx")

    @staticmethod
    def _rejected(rejected: Rejected) -> Response:
        return _error_response(
            rejected.status,
            rejected.reason,
            {"Retry-After": str(max(1, round(rejected.retry_after_s)))},
        )

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------

    @staticmethod
    def _stale_headers(age_s: float) -> dict[str, str]:
        # RFC 7234 warn-code 110 ("Response is stale").
        return {
            "Warning": '110 snaps-serve "Response is stale"',
            "X-Snaps-Stale-Age": str(round(age_s, 3)),
        }

    def _breaker_unavailable(
        self, breaker: CircuitBreaker, message: str
    ) -> Response:
        return _error_response(
            503,
            message,
            {"Retry-After": str(max(1, round(breaker.retry_after_s())))},
        )

    def _stale_search(self, key) -> Response | None:
        """The last good answer for ``key`` with staleness headers."""
        stale = self.cache.get_stale(key)
        if stale is MISS:
            return None
        value, age_s = stale
        self.metrics.inc("serve.degraded.stale_served")
        return _json_response(
            200,
            {**value, "cached": True, "stale": True},
            self._stale_headers(age_s),
        )

    def _stale_pedigree(self, key) -> Response | None:
        stale = self.cache.get_stale(key)
        if stale is MISS:
            return None
        (kind, payload), age_s = stale
        self.metrics.inc("serve.degraded.stale_served")
        headers = self._stale_headers(age_s)
        if kind == "json":
            return _json_response(200, {**payload, "stale": True}, headers)
        response = _text_response(200, payload)
        response.headers.update(headers)
        return response

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _health_state(self) -> tuple[str, dict]:
        """(ok | degraded | failing, per-breaker detail) right now."""
        breakers = {
            name: {
                "state": breaker.state,
                "retry_after_s": round(breaker.retry_after_s(), 3),
            }
            for name, breaker in self.breakers.items()
        }
        states = {name: info["state"] for name, info in breakers.items()}
        if all(state == CLOSED for state in states.values()):
            status = "ok"
        elif states["search"] == OPEN and states["pedigree"] == OPEN:
            # Both read paths refusing work: this replica is useless.
            status = "failing"
        else:
            status = "degraded"
        return status, breakers

    def _handle_healthz(self) -> Response:
        status, breakers = self._health_state()
        return _json_response(
            200 if status != "failing" else 503,
            {
                "status": status,
                "entities": len(self.graph),
                "edges": self.graph.n_edges(),
                "uptime_s": round(self._clock() - self.started_at, 3),
                "breakers": breakers,
                "slo": self.slo.snapshot(),
            },
        )

    def _snapshot_age_s(self) -> float | None:
        if self.manifest is None:
            return None
        try:
            from datetime import datetime, timezone

            created = datetime.fromisoformat(self.manifest.created_at)
            return (datetime.now(timezone.utc) - created).total_seconds()
        except (TypeError, ValueError, AttributeError):
            return None

    def _handle_metricz(self, params: dict[str, str]) -> Response:
        stats = self.cache.stats()
        self.metrics.set_gauge("serve.cache.size", stats["size"])
        self.metrics.set_gauge(
            "serve.uptime_seconds", self._clock() - self.started_at
        )
        for name, value in process_gauges().items():
            self.metrics.set_gauge(name, value)
        self.slo.publish(self.metrics)
        age_s = self._snapshot_age_s()
        if age_s is not None:
            self.metrics.set_gauge("serve.snapshot.age_seconds", age_s)
        # In a pre-fork fleet the machine-readable formats render the
        # fleet-merged view (every worker's counters summed, histograms
        # merged); single-process serving renders its own registry.
        view = (
            self.metrics_view() if self.metrics_view is not None
            else self.metrics.as_dict()
        )
        if params.get("format") == "prom":
            info = {"service": "snaps-serve"}
            if self.manifest is not None:
                info["snapshot_id"] = str(self.manifest.snapshot_id)
            return _text_response(200, render_prometheus(view, info=info))
        if params.get("format") == "json":
            return _json_response(200, view)
        report = build_report(metrics=self.metrics, meta={"kind": "serve"})
        return _text_response(200, render_report(report))

    def _handle_search(self, body: bytes | None, trace: Trace) -> Response:
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return _error_response(400, f"request body is not valid JSON: {error}")
        try:
            query, top_m = query_from_mapping(payload)
        except ValueError as error:
            return _error_response(400, str(error))
        key = query_cache_key(query, top_m)
        with trace.span("cache_lookup"):
            cached = self.cache.get(key)
        if cached is not MISS:
            return _json_response(200, {**cached, "cached": True})
        # Coalesce the miss path: concurrent identical queries share the
        # leader's computation (and its Response — built fresh per
        # flight, treated as read-only by the transport).
        return self.flights.do(
            key, lambda: self._search_miss(key, query, top_m, trace)
        )

    def _search_miss(self, key, query, top_m: int, trace: Trace) -> Response:
        breaker = self.breakers["search"]
        if not breaker.allow():
            # Open circuit: don't touch the backend at all.
            return self._stale_search(key) or self._breaker_unavailable(
                breaker, "search backend unavailable (circuit open)"
            )
        deadline = Deadline.after(self.config.request_timeout_s)
        with ExitStack() as held:
            try:
                # The admission span covers only the queue wait; the
                # slot itself is held until the search finishes.
                with trace.span("admission"):
                    held.enter_context(self.gate.admit(deadline))
            except Rejected as rejected:
                # Load shedding is not a backend fault: the breaker
                # must not open under a traffic spike.
                return self._rejected(rejected)
            with trace.span("search"):
                try:
                    hits = self.engine.search(query, top_m=top_m)
                except Exception as error:
                    breaker.record_failure(error)
                    logger.warning(
                        "search backend failure (%s): %s",
                        classify(error), error,
                    )
                    return self._stale_search(key) or self._breaker_unavailable(
                        breaker, f"search backend failing: {error}"
                    )
        breaker.record_success()
        with trace.span("serialize"):
            result = search_payload(hits)
        self.cache.put(key, result)
        return _json_response(200, {**result, "cached": False})

    def _handle_pedigree(
        self, path: str, params: dict[str, str], trace: Trace
    ) -> Response:
        raw_id = path[len("/v1/pedigree/"):]
        try:
            entity_id = int(raw_id)
        except ValueError:
            return _error_response(400, f"entity id must be an integer, got {raw_id!r}")
        try:
            generations = int(params.get("generations", "2"))
        except ValueError:
            return _error_response(400, "generations must be an integer")
        if not 0 <= generations <= MAX_GENERATIONS:
            return _error_response(
                400, f"generations must be in [0, {MAX_GENERATIONS}]"
            )
        fmt = params.get("format", "json")
        if fmt not in _PEDIGREE_FORMATS:
            return _error_response(
                400, f"format must be one of {', '.join(_PEDIGREE_FORMATS)}"
            )
        breaker = self.breakers["pedigree"]
        key = ("pedigree", entity_id, generations, fmt)
        if not breaker.allow():
            return self._stale_pedigree(key) or self._breaker_unavailable(
                breaker, "pedigree backend unavailable (circuit open)"
            )
        deadline = Deadline.after(self.config.request_timeout_s)
        with ExitStack() as held:
            try:
                with trace.span("admission"):
                    held.enter_context(self.gate.admit(deadline))
            except Rejected as rejected:
                return self._rejected(rejected)
            with trace.span("extract"):
                try:
                    pedigree = extract_pedigree(self.graph, entity_id, generations)
                except KeyError:
                    # The backend worked; the entity just doesn't exist.
                    breaker.record_success()
                    return _error_response(404, f"unknown entity id: {entity_id}")
                except Exception as error:
                    breaker.record_failure(error)
                    logger.warning(
                        "pedigree backend failure (%s): %s",
                        classify(error), error,
                    )
                    return self._stale_pedigree(key) or self._breaker_unavailable(
                        breaker, f"pedigree backend failing: {error}"
                    )
            breaker.record_success()
            with trace.span("serialize"):
                if fmt == "json":
                    payload = pedigree_payload(pedigree)
                    self.cache.put(key, ("json", payload))
                    return _json_response(200, payload)
                if fmt == "dot":
                    text = render_dot(pedigree)
                elif fmt == "gedcom":
                    text = render_gedcom(pedigree)
                else:
                    text = render_ascii_tree(pedigree)
                self.cache.put(key, ("text", text))
                return _text_response(200, text)

    def _handle_reload(self, body: bytes | None = None) -> Response:
        """Swap in a snapshot's graph + indexes, atomically.

        The optional JSON body ``{"snapshot": "<id>"}`` names the exact
        snapshot to load (promotion and rollback target a specific id);
        without it the store's HEAD is loaded.  Re-requesting the
        snapshot already being served is an idempotent no-op — a crashed
        promoter can re-send its promotion safely.  Store reads get
        bounded retries with exponential backoff (only transient faults
        retry — a corrupt snapshot fails immediately); repeated failures
        open the ``reload`` breaker so callers back off while the old
        graph keeps serving.  A successful swap bumps the result-cache
        epoch, so answers computed from the predecessor snapshot can
        only resurface through the explicit ``Warning: 110`` stale path.
        """
        if self.store is None and self.reload_delegate is None:
            return _error_response(
                409, "no snapshot store attached; start with --snapshot"
            )
        requested: str | None = None
        if body:
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return _error_response(
                    400, f"reload body is not valid JSON: {error}"
                )
            if payload is not None:
                if not isinstance(payload, dict) or (
                    payload.get("snapshot") is not None
                    and not isinstance(payload["snapshot"], str)
                ):
                    return _error_response(
                        400, 'reload body must be {"snapshot": "<id>"}'
                    )
                requested = payload.get("snapshot")
        if self.reload_delegate is not None:
            # Pre-fork worker: one process cannot swap the fleet.  The
            # delegate forwards the request to the master, which maps
            # the new snapshot and rotates every worker through it.
            return self.reload_delegate(requested)
        previous = (
            self.manifest.snapshot_id if self.manifest is not None else None
        )
        if requested is not None and requested == previous:
            self.metrics.inc("serve.reloads_noop")
            return _json_response(
                200,
                {
                    "status": "unchanged",
                    "snapshot": previous,
                    "previous": previous,
                    "entities": len(self.graph),
                    "edges": self.graph.n_edges(),
                },
            )
        breaker = self.breakers["reload"]
        if not breaker.allow():
            return self._breaker_unavailable(
                breaker, "snapshot reload circuit is open"
            )
        policy = RetryPolicy(
            max_attempts=self.config.retry_attempts,
            base_delay_s=self.config.retry_base_delay_s,
            sleep=self._sleep,
        )
        try:
            loaded = policy.call(
                lambda: self.store.load(requested, artifacts=("graph", "indexes"))
            )
        except Exception as error:
            breaker.record_failure(error)
            logger.warning(
                "snapshot reload failed (%s): %s", classify(error), error
            )
            return self._breaker_unavailable(
                breaker, f"snapshot reload failed: {error}"
            )
        breaker.record_success()
        engine = QueryEngine(
            loaded.graph,
            similarity_threshold=self.config.similarity_threshold,
            use_geographic_distance=self.config.use_geographic_distance,
            metrics=self.metrics,
            keyword_index=loaded.keyword_index,
            sim_index=loaded.sim_index,
        )
        with self._reload_lock:
            self.graph = loaded.graph
            self.engine = engine
            self.manifest = loaded.manifest
            # Results computed from the predecessor must not come back
            # as fresh hits; degraded mode can still reach them via
            # get_stale (Warning: 110).  Rebinding to the new snapshot's
            # id both bumps the epoch locally and marks the entries so
            # any process that later fork-inherits them refuses them too.
            self.cache.rebind(str(loaded.manifest.snapshot_id))
        self.metrics.inc("serve.reloads")
        logger.info(
            "reloaded snapshot %s (%d entities)",
            loaded.manifest.snapshot_id, len(loaded.graph),
        )
        return _json_response(
            200,
            {
                "status": "reloaded",
                "snapshot": loaded.manifest.snapshot_id,
                "previous": previous,
                "entities": len(loaded.graph),
                "edges": loaded.graph.n_edges(),
            },
        )


# ----------------------------------------------------------------------
# HTTP plumbing
# ----------------------------------------------------------------------


class _RequestHandler(BaseHTTPRequestHandler):
    """Wire adapter: parse the request line, delegate to the app."""

    server_version = "snaps-serve/1"
    protocol_version = "HTTP/1.1"

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")

    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        params = {k: v[0] for k, v in parse_qs(split.query).items()}
        # Every method's body is read (a GET's too), so the next request
        # on a keep-alive connection starts where this one ends.
        length = content_length(self.headers.get("Content-Length"))
        if isinstance(length, Response):
            response = length
            response.headers["Connection"] = "close"
        else:
            body = self.rfile.read(length) if length else b""
            app: ServingApp = self.server.app  # type: ignore[attr-defined]
            response = app.handle(method, split.path, params, body)
        try:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.body)))
            for name, value in response.headers.items():
                self.send_header(name, value)
            # One send for head and body: a separate small body send waits
            # (Nagle) on the client's delayed ACK of the head, stalling
            # the next request on a keep-alive connection.
            # What end_headers() would flush; an HTTP/0.9 reply has no head.
            head = b""
            if self.request_version != "HTTP/0.9":
                self._headers_buffer.append(b"\r\n")
                head = b"".join(self._headers_buffer)
                self._headers_buffer = []
            self.wfile.write(head + response.body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            logger.debug("client dropped connection on %s %s", method, self.path)

    def log_message(self, format: str, *args) -> None:
        # Route http.server's per-request stderr chatter through -v logging.
        logger.debug("%s %s", self.address_string(), format % args)


class ServeHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServingApp`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], app: ServingApp) -> None:
        super().__init__(address, _RequestHandler)
        self.app = app


def make_server(app: ServingApp, host: str = "127.0.0.1", port: int = 0) -> ServeHTTPServer:
    """Bind (but don't start) a server; ``port=0`` picks an ephemeral port.

    Call ``serve_forever()`` (typically on a thread) to start answering,
    and ``shutdown()`` + ``server_close()`` to stop.
    """
    return ServeHTTPServer((host, port), app)
