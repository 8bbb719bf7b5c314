"""Tests for the online serving subsystem (repro.serve)."""

from __future__ import annotations

import http.client
import json
import re
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.query import Query, QueryEngine
from repro.serve import (
    AdmissionController,
    Deadline,
    LRUTTLCache,
    MISS,
    Rejected,
    ServeClient,
    ServeConfig,
    ServeError,
    ServingApp,
    make_server,
    query_cache_key,
)
from repro.serve.app import _RequestHandler


@pytest.fixture()
def app(tiny_pedigree_graph):
    return ServingApp(tiny_pedigree_graph, ServeConfig())


def _named_entity(graph):
    return next(
        e for e in graph if e.first("first_name") and e.first("surname")
    )


# ----------------------------------------------------------------------
# Cache unit tests
# ----------------------------------------------------------------------


class TestLRUTTLCache:
    def test_hit_miss_counters(self):
        cache = LRUTTLCache(max_size=4, ttl_s=None)
        assert cache.get("a") is MISS
        cache.put("a", [1, 2])
        assert cache.get("a") == [1, 2]
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_falsy_values_are_cacheable(self):
        cache = LRUTTLCache(max_size=4, ttl_s=None)
        cache.put("empty", [])
        assert cache.get("empty") == []

    def test_lru_eviction_order(self):
        cache = LRUTTLCache(max_size=2, ttl_s=None)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a → b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is MISS
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_ttl_expiry_with_fake_clock(self):
        now = [0.0]
        cache = LRUTTLCache(max_size=4, ttl_s=10.0, clock=lambda: now[0])
        cache.put("a", 1)
        now[0] = 9.9
        assert cache.get("a") == 1
        now[0] = 10.1
        assert cache.get("a") is MISS
        assert cache.stats()["expirations"] == 1
        assert len(cache) == 0

    def test_zero_size_disables(self):
        cache = LRUTTLCache(max_size=0, ttl_s=None)
        cache.put("a", 1)
        assert cache.get("a") is MISS
        assert len(cache) == 0

    def test_metrics_mirroring(self):
        metrics = MetricsRegistry()
        cache = LRUTTLCache(max_size=1, ttl_s=None, metrics=metrics)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts a
        assert metrics.counter_value("serve.cache.misses") == 1
        assert metrics.counter_value("serve.cache.hits") == 1
        assert metrics.counter_value("serve.cache.evictions") == 1

    def test_thread_safety_smoke(self):
        cache = LRUTTLCache(max_size=64, ttl_s=None)

        def worker(seed):
            for i in range(300):
                key = (seed * i) % 100
                if cache.get(key) is MISS:
                    cache.put(key, key)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(worker, range(1, 9)))
        assert len(cache) <= 64

    def test_query_key_normalisation(self):
        key_a = query_cache_key(Query(first_name=" Mary ", surname="MacDonald"), 10)
        key_b = query_cache_key(Query(first_name="mary", surname="macdonald"), 10)
        key_c = query_cache_key(Query(first_name="mary", surname="macdonald"), 5)
        assert key_a == key_b
        assert key_a != key_c

    def test_keep_stale_retains_expired_entries(self):
        now = [0.0]
        cache = LRUTTLCache(
            max_size=4, ttl_s=10.0, clock=lambda: now[0], keep_stale=True
        )
        cache.put("a", 1)
        now[0] = 11.0
        # Expired for get(), but the entry survives for degraded mode.
        assert cache.get("a") is MISS
        assert cache.stats()["expirations"] == 1
        assert len(cache) == 1
        value, age_s = cache.get_stale("a")
        assert value == 1 and age_s == pytest.approx(11.0)
        # Repeated expired gets count the expiration only once.
        assert cache.get("a") is MISS
        assert cache.stats()["expirations"] == 1

    def test_get_stale_counts_hits_and_misses(self):
        now = [0.0]
        cache = LRUTTLCache(
            max_size=4, ttl_s=10.0, clock=lambda: now[0], keep_stale=True
        )
        cache.put("a", 1)
        now[0] = 3.0
        value, age_s = cache.get_stale("a")  # works on fresh entries too
        assert value == 1 and age_s == pytest.approx(3.0)
        assert cache.get_stale("missing") is MISS
        assert cache.stats()["stale_hits"] == 1

    def test_without_keep_stale_expired_entries_vanish(self):
        now = [0.0]
        cache = LRUTTLCache(max_size=4, ttl_s=10.0, clock=lambda: now[0])
        cache.put("a", 1)
        now[0] = 11.0
        assert cache.get("a") is MISS
        assert cache.get_stale("a") is MISS
        assert len(cache) == 0

    def test_bump_epoch_invalidates_without_keep_stale(self):
        cache = LRUTTLCache(max_size=4, ttl_s=None)
        cache.put("a", 1)
        cache.bump_epoch()
        assert cache.get("a") is MISS
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 1

    def test_bump_epoch_keeps_entries_for_stale_path(self):
        """After a snapshot swap, predecessor results must not come back
        as fresh hits — only via the explicit stale (Warning: 110) path."""
        now = [0.0]
        cache = LRUTTLCache(
            max_size=4, ttl_s=60.0, clock=lambda: now[0], keep_stale=True
        )
        cache.put("a", 1)
        cache.bump_epoch()
        now[0] = 2.0  # well within TTL: only the epoch expired it
        assert cache.get("a") is MISS
        value, age_s = cache.get_stale("a")
        assert value == 1 and age_s == pytest.approx(2.0)
        # Entries written after the bump are fresh again.
        cache.put("b", 2)
        assert cache.get("b") == 2

    def test_entries_written_after_bump_are_fresh(self):
        cache = LRUTTLCache(max_size=4, ttl_s=None)
        cache.bump_epoch()
        cache.put("a", 1)
        assert cache.get("a") == 1


# ----------------------------------------------------------------------
# Admission-control unit tests
# ----------------------------------------------------------------------


class TestAdmissionController:
    def test_rejects_when_queue_full(self):
        gate = AdmissionController(max_concurrency=1, max_pending=0,
                                   queue_timeout_s=0.05)
        release = threading.Event()
        occupied = threading.Event()

        def occupy():
            with gate.admit():
                occupied.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=occupy)
        thread.start()
        assert occupied.wait(timeout=5)
        with pytest.raises(Rejected) as rejected:
            with gate.admit():
                pass  # pragma: no cover - must not be admitted
        assert rejected.value.status == 429
        assert rejected.value.retry_after_s >= 1.0
        release.set()
        thread.join(timeout=5)
        # Slot released: admission works again.
        with gate.admit():
            pass

    def test_queue_timeout_yields_503(self):
        gate = AdmissionController(max_concurrency=1, max_pending=4,
                                   queue_timeout_s=0.05)
        release = threading.Event()
        occupied = threading.Event()

        def occupy():
            with gate.admit():
                occupied.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=occupy)
        thread.start()
        assert occupied.wait(timeout=5)
        with pytest.raises(Rejected) as rejected:
            with gate.admit():
                pass  # pragma: no cover
        assert rejected.value.status == 503
        release.set()
        thread.join(timeout=5)

    def test_expired_deadline_is_shed(self):
        gate = AdmissionController(max_concurrency=1, max_pending=4)
        with pytest.raises(Rejected) as rejected:
            with gate.admit(Deadline.after(-1.0)):
                pass  # pragma: no cover
        assert rejected.value.status == 503
        # The slot must have been released despite the rejection.
        with gate.admit():
            pass

    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        gate = AdmissionController(max_concurrency=2, metrics=metrics)
        with gate.admit():
            pass
        assert metrics.counter_value("serve.admission.admitted") == 1

    def test_deadline_helpers(self):
        assert not Deadline.after(None).expired()
        assert Deadline.after(60).remaining() > 0
        assert Deadline.after(0).expired()

    def test_rejection_reasons_are_actionable(self):
        gate = AdmissionController(max_concurrency=1, max_pending=0,
                                   queue_timeout_s=0.05)
        release = threading.Event()
        occupied = threading.Event()

        def occupy():
            with gate.admit():
                occupied.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=occupy)
        thread.start()
        assert occupied.wait(timeout=5)
        try:
            with pytest.raises(Rejected) as rejected:
                with gate.admit():
                    pass  # pragma: no cover
            assert rejected.value.reason == "pending queue full"
            assert rejected.value.retry_after_s >= 1.0
        finally:
            release.set()
            thread.join(timeout=5)

    def test_deadline_expired_while_queued_reason(self):
        # The request's own deadline passed before a slot opened: shed it
        # with the queued-specific reason, not a generic timeout.
        gate = AdmissionController(max_concurrency=1, max_pending=4,
                                   queue_timeout_s=5.0)
        with pytest.raises(Rejected) as rejected:
            with gate.admit(Deadline.after(-0.1)):
                pass  # pragma: no cover
        assert rejected.value.status == 503
        assert "deadline expired" in rejected.value.reason
        assert rejected.value.retry_after_s >= 1.0

    def test_metrics_distinguish_rejection_kinds(self):
        metrics = MetricsRegistry()
        gate = AdmissionController(max_concurrency=1, max_pending=4,
                                   queue_timeout_s=1.0, metrics=metrics)
        with pytest.raises(Rejected):
            with gate.admit(Deadline.after(-0.1)):
                pass  # pragma: no cover
        assert metrics.counter_value("serve.admission.rejected_deadline") == 1


# ----------------------------------------------------------------------
# Route handling (no sockets)
# ----------------------------------------------------------------------


class TestRoutes:
    def test_healthz(self, app, tiny_pedigree_graph):
        response = app.handle("GET", "/healthz")
        assert response.status == 200
        payload = response.json()
        assert payload["status"] == "ok"
        assert payload["entities"] == len(tiny_pedigree_graph)

    def test_unknown_path_404(self, app):
        assert app.handle("GET", "/nope").status == 404

    def test_wrong_method_405(self, app):
        response = app.handle("GET", "/v1/search")
        assert response.status == 405
        assert response.headers["Allow"] == "POST"
        assert app.handle("POST", "/healthz").status == 405

    def test_search_matches_offline_engine(self, app, tiny_pedigree_graph):
        probe = _named_entity(tiny_pedigree_graph)
        first, surname = probe.first("first_name"), probe.first("surname")
        body = f'{{"first_name": "{first}", "surname": "{surname}", "top": 5}}'
        response = app.handle("POST", "/v1/search", body=body.encode())
        assert response.status == 200
        served = response.json()
        assert served["cached"] is False
        offline = QueryEngine(tiny_pedigree_graph).search(
            Query(first_name=first, surname=surname), top_m=5
        )
        assert [
            (m["entity"]["entity_id"], m["score_percent"])
            for m in served["matches"]
        ] == [(m.entity.entity_id, m.score_percent) for m in offline]

    def test_search_cache_hit_skips_search_span(self, app, tiny_pedigree_graph):
        probe = _named_entity(tiny_pedigree_graph)
        body = (
            f'{{"first_name": "{probe.first("first_name")}", '
            f'"surname": "{probe.first("surname")}"}}'
        ).encode()
        cold = app.handle("POST", "/v1/search", body=body)
        searches_after_cold = app.metrics.counter_value("query.searches")
        warm = app.handle("POST", "/v1/search", body=body)
        assert cold.json()["cached"] is False
        assert warm.json()["cached"] is True
        assert warm.json()["matches"] == cold.json()["matches"]
        # No new engine search ran, and the warm request's trace has a
        # cache_lookup span but no search span.
        assert app.metrics.counter_value("query.searches") == searches_after_cold
        assert app.metrics.counter_value("serve.cache.hits") == 1
        warm_trace = app.recent_traces[-1]
        assert warm_trace.find("cache_lookup") is not None
        assert warm_trace.find("search") is None

    @pytest.mark.parametrize("body,reason", [
        (b"not json", "valid JSON"),
        (b"[1, 2]", "JSON object"),
        (b'{"surname": "macdonald"}', "first_name"),
        (b'{"first_name": "", "surname": "x"}', "mandatory"),
        (b'{"first_name": "a", "surname": "b", "top": 0}', "top"),
        (b'{"first_name": "a", "surname": "b", "gender": "x"}', "gender"),
        (b'{"first_name": "a", "surname": "b", "year_from": "1880"}', "integer"),
        (b'{"first_name": "a", "surname": "b", "bogus": 1}', "unknown"),
        (b'{"first_name": "%s", "surname": "b"}' % (b"a" * 101), "longer than 100"),
        (b'{"first_name": "a", "surname": "b", "parish": "%s"}' % (b"p" * 5000),
         "parish is longer"),
        (None, "JSON"),
    ])
    def test_search_malformed_400(self, app, body, reason):
        response = app.handle("POST", "/v1/search", body=body)
        assert response.status == 400
        assert reason.lower() in response.json()["error"]["message"].lower()

    def test_pedigree_json(self, app, tiny_pedigree_graph):
        entity = _named_entity(tiny_pedigree_graph)
        response = app.handle(
            "GET", f"/v1/pedigree/{entity.entity_id}", {"generations": "2"}
        )
        assert response.status == 200
        payload = response.json()
        assert payload["root_id"] == entity.entity_id
        assert payload["count"] >= 1
        ids = {e["entity_id"] for e in payload["entities"]}
        assert entity.entity_id in ids
        for source, _rel, target in payload["edges"]:
            assert source in ids and target in ids

    @pytest.mark.parametrize("fmt,marker", [
        ("ascii", "==="), ("dot", "digraph"), ("gedcom", "0 HEAD"),
    ])
    def test_pedigree_text_formats(self, app, tiny_pedigree_graph, fmt, marker):
        entity = _named_entity(tiny_pedigree_graph)
        response = app.handle(
            "GET", f"/v1/pedigree/{entity.entity_id}", {"format": fmt}
        )
        assert response.status == 200
        assert marker in response.body.decode()

    def test_pedigree_errors(self, app):
        assert app.handle("GET", "/v1/pedigree/abc").status == 400
        assert app.handle("GET", "/v1/pedigree/5", {"generations": "99"}).status == 400
        assert app.handle("GET", "/v1/pedigree/5", {"format": "png"}).status == 400
        assert app.handle("GET", "/v1/pedigree/99999999").status == 404

    def test_metricz_text_and_json(self, app):
        app.handle("GET", "/healthz")
        text = app.handle("GET", "/metricz")
        assert text.status == 200
        assert text.content_type.startswith("text/plain")
        assert "serve.requests" in text.body.decode()
        as_json = app.handle("GET", "/metricz", {"format": "json"})
        payload = as_json.json()
        assert payload["counters"]["serve.requests"] >= 2
        assert "serve.cache.size" in payload["gauges"]

    def test_endpoint_latency_histograms(self, app, tiny_pedigree_graph):
        probe = _named_entity(tiny_pedigree_graph)
        body = (
            f'{{"first_name": "{probe.first("first_name")}", '
            f'"surname": "{probe.first("surname")}"}}'
        ).encode()
        app.handle("GET", "/healthz")
        app.handle("POST", "/v1/search", body=body)
        app.handle("GET", f"/v1/pedigree/{probe.entity_id}")
        snapshot = app.metrics.as_dict()["histograms"]
        for endpoint in ("healthz", "search", "pedigree"):
            assert snapshot[f"serve.{endpoint}.latency_seconds"]["count"] == 1

    def test_admission_rejection_over_http_route(self, app, tiny_pedigree_graph):
        """Saturating a 1-slot gate returns 429/503, never a hang.

        The two concurrent requests must be *distinct* queries: an
        identical duplicate would be coalesced by SingleFlight into the
        occupant's computation (sharing its 200) before ever reaching
        admission control — that dedup path has its own test below.
        """
        probe = _named_entity(tiny_pedigree_graph)
        config = ServeConfig(max_concurrency=1, max_pending=0, queue_timeout_s=0.05)
        slow_app = ServingApp(tiny_pedigree_graph, config)
        real_search = slow_app.engine.search
        started = threading.Event()

        def slow_search(query, top_m=10):
            started.set()
            time.sleep(0.5)
            return real_search(query, top_m=top_m)

        slow_app.engine.search = slow_search
        body = (
            f'{{"first_name": "{probe.first("first_name")}", '
            f'"surname": "{probe.first("surname")}"}}'
        ).encode()
        other_body = (
            f'{{"first_name": "{probe.first("first_name")}", '
            f'"surname": "{probe.first("surname")}", "top": 3}}'
        ).encode()

        def request(payload):
            return slow_app.handle("POST", "/v1/search", body=payload)

        with ThreadPoolExecutor(max_workers=2) as pool:
            occupant = pool.submit(request, body)
            assert started.wait(timeout=5)
            blocked = pool.submit(request, other_body)
            rejected = blocked.result(timeout=5)
            assert rejected.status in (429, 503)
            assert int(rejected.headers["Retry-After"]) >= 1
            assert occupant.result(timeout=5).status == 200

    def test_identical_inflight_requests_coalesce(self, tiny_pedigree_graph):
        """An identical concurrent duplicate shares the occupant's
        computation instead of burning the saturated admission slot."""
        probe = _named_entity(tiny_pedigree_graph)
        config = ServeConfig(
            max_concurrency=1, max_pending=0, queue_timeout_s=0.05,
            cache_size=0,
        )
        slow_app = ServingApp(tiny_pedigree_graph, config)
        real_search = slow_app.engine.search
        started = threading.Event()
        searches = []

        def slow_search(query, top_m=10):
            searches.append(1)
            started.set()
            time.sleep(0.5)
            return real_search(query, top_m=top_m)

        slow_app.engine.search = slow_search
        body = (
            f'{{"first_name": "{probe.first("first_name")}", '
            f'"surname": "{probe.first("surname")}"}}'
        ).encode()

        def request():
            return slow_app.handle("POST", "/v1/search", body=body)

        with ThreadPoolExecutor(max_workers=2) as pool:
            leader = pool.submit(request)
            assert started.wait(timeout=5)
            follower = pool.submit(request)
            assert follower.result(timeout=5).status == 200
            assert leader.result(timeout=5).status == 200
        assert searches == [1], "duplicate must not run a second search"
        assert slow_app.flights.stats()["followers"] == 1


# ----------------------------------------------------------------------
# End-to-end over real sockets
# ----------------------------------------------------------------------


@pytest.fixture()
def running_server(tiny_pedigree_graph):
    app = ServingApp(tiny_pedigree_graph, ServeConfig(max_concurrency=4))
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield app, ServeClient(f"http://{host}:{port}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestEndToEnd:
    def test_concurrent_clients_smoke(self, running_server, tiny_pedigree_graph):
        app, client = running_server
        assert client.healthz()["status"] == "ok"
        named = [
            e for e in tiny_pedigree_graph
            if e.first("first_name") and e.first("surname")
        ][:8]

        def worker(entity):
            result = client.search(
                entity.first("first_name"), entity.first("surname"), top=3
            )
            assert result["count"] >= 1
            found = client.pedigree(result["matches"][0]["entity"]["entity_id"])
            assert found["count"] >= 1
            return result["count"]

        with ThreadPoolExecutor(max_workers=4) as pool:
            counts = list(pool.map(worker, named))
        assert len(counts) == len(named)
        metrics = client.metricz()
        assert metrics["counters"]["serve.requests"] >= 2 * len(named) + 1
        assert metrics["counters"]["serve.responses.2xx"] >= 2 * len(named)

    def test_http_error_paths(self, running_server):
        _, client = running_server
        with pytest.raises(ServeError) as error:
            client.search("", "")
        assert error.value.status == 400
        with pytest.raises(ServeError) as error:
            client.pedigree(99999999)
        assert error.value.status == 404
        with pytest.raises(ServeError) as error:
            client._json("GET", "/bogus")
        assert error.value.status == 404

    def test_served_cache_round_trip(self, running_server, tiny_pedigree_graph):
        _, client = running_server
        probe = _named_entity(tiny_pedigree_graph)
        first, surname = probe.first("first_name"), probe.first("surname")
        cold = client.search(first, surname)
        warm = client.search(first, surname)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["matches"] == cold["matches"]


class _CountingWriter:
    """Stand-in for a handler's ``wfile`` that records every write."""

    def __init__(self, raw, writes: list[bytes]) -> None:
        self._raw = raw
        self._writes = writes

    def write(self, data: bytes) -> int:
        self._writes.append(bytes(data))
        return self._raw.write(data)

    def __getattr__(self, name):
        return getattr(self._raw, name)


class TestKeepAliveWrites:
    def test_one_write_per_response(self, running_server, tiny_pedigree_graph,
                                    monkeypatch):
        """Head and body leave in one send: a body sent on its own waits on
        the client's delayed ACK, stalling the next keep-alive request."""
        _, client = running_server
        writes: list[bytes] = []
        setup = _RequestHandler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = _CountingWriter(handler.wfile, writes)

        monkeypatch.setattr(_RequestHandler, "setup", counting_setup)
        probe = _named_entity(tiny_pedigree_graph)
        host, port = client.base_url.split("//")[1].split(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=10)
        try:
            requests = [
                ("GET", "/healthz", None),
                ("POST", "/v1/search", json.dumps({
                    "first_name": probe.first("first_name"),
                    "surname": probe.first("surname"),
                })),
                ("GET", f"/v1/pedigree/{probe.entity_id}?generations=2", None),
                ("GET", "/bogus", None),
            ]
            for method, path, body in requests:
                before = len(writes)
                connection.request(method, path, body=body)
                response = connection.getresponse()
                payload = response.read()
                assert len(writes) == before + 1, (method, path)
                assert writes[-1].endswith(payload)
                assert writes[-1].startswith(b"HTTP/1.1 ")
        finally:
            connection.close()

    def test_http09_request_gets_bare_body(self, running_server):
        """A version-less request line is HTTP/0.9: the reply is the body
        alone, with no status line or headers, and the connection closes."""
        _, client = running_server
        host, port = client.base_url.split("//")[1].split(":")
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        assert json.loads(received)["status"] == "ok"
        assert client.healthz()["status"] == "ok"


# ----------------------------------------------------------------------
# Request-body framing, on both front ends
# ----------------------------------------------------------------------


def _threaded_front_end(app):
    server = make_server(app, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def stop():
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    return server.server_address[:2], stop


def _prefork_front_end(app):
    """One pre-fork worker's connection handler on an in-thread loop."""
    import asyncio

    from repro.serve.prefork import _serve_connection

    loop = asyncio.new_event_loop()
    pool = ThreadPoolExecutor(max_workers=2)
    server = loop.run_until_complete(
        asyncio.start_server(
            lambda r, w: _serve_connection(r, w, app, pool), "127.0.0.1", 0
        )
    )
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def stop():
        async def close():
            server.close()
            await server.wait_closed()

        asyncio.run_coroutine_threadsafe(close(), loop).result(timeout=5)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()
        pool.shutdown()

    return server.sockets[0].getsockname()[:2], stop


class TestContentLength:
    @pytest.mark.parametrize(
        "front_end", [_threaded_front_end, _prefork_front_end],
        ids=["threaded", "prefork"],
    )
    @pytest.mark.parametrize(
        "length, status",
        [("abc", 400), ("-5", 400), ("-1", 400), ("100000000", 413)],
    )
    def test_bad_length_answered_before_the_body_is_read(
        self, tiny_pedigree_graph, front_end, length, status
    ):
        app = ServingApp(tiny_pedigree_graph, ServeConfig())
        address, stop = front_end(app)
        try:
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(
                    b"POST /v1/search HTTP/1.1\r\nHost: x\r\n"
                    + f"Content-Length: {length}\r\n\r\n".encode()
                )
                received = b""
                while chunk := sock.recv(65536):
                    received += chunk
            head, _, body = received.partition(b"\r\n\r\n")
            assert head.split(b"\r\n")[0].split()[1] == str(status).encode()
            assert b"Connection: close" in head
            assert json.loads(body)["error"]["status"] == status
        finally:
            stop()

    @pytest.mark.parametrize(
        "front_end", [_threaded_front_end, _prefork_front_end],
        ids=["threaded", "prefork"],
    )
    def test_get_body_is_consumed_on_keep_alive(
        self, tiny_pedigree_graph, front_end
    ):
        app = ServingApp(tiny_pedigree_graph, ServeConfig())
        address, stop = front_end(app)
        try:
            with socket.create_connection(address, timeout=10) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: 5\r\n\r\nhello"
                    b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                    b"Connection: close\r\n\r\n"
                )
                received = b""
                while chunk := sock.recv(65536):
                    received += chunk
            assert re.findall(rb"HTTP/1\.1 (\d{3}) ", received) == [b"200", b"200"]
        finally:
            stop()


# ----------------------------------------------------------------------
# Client reload wrapper (promotion path)
# ----------------------------------------------------------------------


class TestClientReload:
    def _client_with_script(self, monkeypatch, outcomes):
        """ServeClient whose _json pops scripted outcomes (exc or dict)."""
        client = ServeClient("http://127.0.0.1:1")
        calls = []

        def scripted(method, path, payload=None):
            calls.append((method, path, payload))
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_json", scripted)
        return client, calls

    def test_reload_posts_snapshot_body(self, monkeypatch):
        client, calls = self._client_with_script(
            monkeypatch, [{"status": "reloaded"}]
        )
        client.reload("abc123")
        assert calls == [("POST", "/v1/reload", {"snapshot": "abc123"})]

    def test_reload_without_id_sends_empty_body(self, monkeypatch):
        client, calls = self._client_with_script(
            monkeypatch, [{"status": "reloaded"}]
        )
        client.reload()
        assert calls == [("POST", "/v1/reload", {})]

    def test_retry_policy_retries_transient_statuses(self, monkeypatch):
        from repro.faults import RetryPolicy

        client, calls = self._client_with_script(
            monkeypatch,
            [ServeError(503, "replica busy"), {"status": "reloaded", "snapshot": "x"}],
        )
        result = client.reload(
            "x", retry=RetryPolicy(max_attempts=3, base_delay_s=0.0)
        )
        assert result["status"] == "reloaded"
        assert len(calls) == 2

    def test_retry_policy_does_not_retry_rejections(self, monkeypatch):
        from repro.faults import RetryPolicy

        client, calls = self._client_with_script(
            monkeypatch, [ServeError(400, "bad body"), {"status": "reloaded"}]
        )
        with pytest.raises(ServeError) as error:
            client.reload(
                "x", retry=RetryPolicy(max_attempts=3, base_delay_s=0.0)
            )
        assert error.value.status == 400
        assert len(calls) == 1  # permanent: no second attempt

    def test_serve_error_categories(self):
        from repro.faults import PERMANENT, TRANSIENT, classify

        assert classify(ServeError(503, "overloaded")) == TRANSIENT
        assert classify(ServeError(429, "shed")) == TRANSIENT
        assert classify(ServeError(404, "missing")) == PERMANENT
        assert classify(ServeError(400, "bad")) == PERMANENT


# ----------------------------------------------------------------------
# Concurrent QueryEngine searches (the thread-safety audit's contract)
# ----------------------------------------------------------------------


class TestConcurrentSearch:
    def test_parallel_searches_match_serial(self, tiny_pedigree_graph):
        engine = QueryEngine(tiny_pedigree_graph)
        named = [
            e for e in tiny_pedigree_graph
            if e.first("first_name") and e.first("surname")
        ][:12]
        # Misspell some surnames so the simindex query-time cache (the
        # one mutable structure) is exercised concurrently.
        queries = []
        for i, entity in enumerate(named):
            surname = entity.first("surname")
            if i % 2 and len(surname) > 4:
                surname = surname[:2] + surname[3:]
            queries.append(
                Query(first_name=entity.first("first_name"), surname=surname)
            )
        serial = [
            [(m.entity.entity_id, m.score_percent) for m in engine.search(q)]
            for q in queries
        ]
        for _ in range(3):
            with ThreadPoolExecutor(max_workers=6) as pool:
                parallel = list(
                    pool.map(
                        lambda q: [
                            (m.entity.entity_id, m.score_percent)
                            for m in engine.search(q)
                        ],
                        queries,
                    )
                )
            assert parallel == serial


# ----------------------------------------------------------------------
# Snapshot warm start (repro.store)
# ----------------------------------------------------------------------


class TestSnapshotWarmStart:
    """A snapshot-booted server must be indistinguishable from a cold one."""

    @pytest.fixture(scope="class")
    def warm_parts(self, tmp_path_factory, resolved_tiny):
        from repro.store import SnapshotStore

        store = SnapshotStore(tmp_path_factory.mktemp("servestore"))
        store.save(resolved_tiny)
        loaded = store.load(artifacts=("graph", "indexes"))
        return loaded.graph, loaded.keyword_index, loaded.sim_index

    @pytest.fixture()
    def warm_app(self, warm_parts):
        graph, keyword_index, sim_index = warm_parts
        return ServingApp(
            graph, ServeConfig(), keyword_index=keyword_index, sim_index=sim_index
        )

    def test_search_payload_byte_identical(
        self, app, warm_app, tiny_pedigree_graph
    ):
        probe = _named_entity(tiny_pedigree_graph)
        bodies = [
            (
                f'{{"first_name": "{probe.first("first_name")}", '
                f'"surname": "{probe.first("surname")}", "top": 5}}'
            ).encode(),
            b'{"first_name": "jon", "surname": "macdonld", "top": 10}',
            b'{"first_name": "mary", "surname": "mackenzie",'
            b' "year_from": 1860, "year_to": 1900}',
        ]
        for body in bodies:
            cold = app.handle("POST", "/v1/search", body=body)
            warm = warm_app.handle("POST", "/v1/search", body=body)
            assert cold.status == warm.status == 200
            assert cold.body == warm.body

    def test_pedigree_payload_byte_identical(
        self, app, warm_app, tiny_pedigree_graph
    ):
        probe = _named_entity(tiny_pedigree_graph)
        for fmt in ("json", "ascii", "gedcom"):
            path = f"/v1/pedigree/{probe.entity_id}"
            params = {"generations": "2", "format": fmt}
            cold = app.handle("GET", path, params)
            warm = warm_app.handle("GET", path, params)
            assert cold.status == warm.status == 200
            assert cold.body == warm.body

    def test_warm_boot_builds_no_indexes(self, warm_parts, monkeypatch):
        """Booting from a snapshot must not construct K or S at all."""
        from repro.index.keyword import KeywordIndex
        from repro.index.simindex import SimilarityAwareIndex

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("index construction during warm boot")

        monkeypatch.setattr(KeywordIndex, "__init__", forbidden)
        monkeypatch.setattr(SimilarityAwareIndex, "__init__", forbidden)
        graph, keyword_index, sim_index = warm_parts
        warm = ServingApp(
            graph, ServeConfig(), keyword_index=keyword_index, sim_index=sim_index
        )
        assert warm.handle("GET", "/healthz").status == 200


# ----------------------------------------------------------------------
# SLO monitor + Prometheus exposition
# ----------------------------------------------------------------------


class _Clock:
    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


class TestSloMonitor:
    def _monitor(self, metrics=None, **objectives):
        from repro.serve.slo import SloMonitor, SloObjectives

        clock = _Clock()
        return clock, SloMonitor(
            SloObjectives(window_s=30.0, **objectives),
            clock=clock,
            metrics=metrics,
        )

    def test_objective_validation(self):
        from repro.serve.slo import SloMonitor, SloObjectives

        with pytest.raises(ValueError):
            SloObjectives(availability=1.5)
        with pytest.raises(ValueError):
            SloObjectives(latency_deadline_s=0.0)
        with pytest.raises(ValueError):
            SloMonitor(buckets=1)

    def test_healthy_traffic_has_zero_burn(self):
        _, monitor = self._monitor()
        for _ in range(10):
            monitor.record("search", 200, 0.01)
        snap = monitor.snapshot()
        assert snap["availability"] == 1.0
        assert snap["availability_burn_rate"] == 0.0
        assert snap["latency_attainment"] == 1.0
        assert snap["window_requests"] == 10

    def test_burn_event_fires_and_recovers(self):
        metrics = MetricsRegistry()
        clock, monitor = self._monitor(metrics=metrics)
        for _ in range(9):
            monitor.record("search", 200, 0.01)
        monitor.record("search", 500, 0.01)
        snap = monitor.snapshot()
        assert snap["availability"] == pytest.approx(0.9)
        assert snap["availability_burn_rate"] > 1.0
        burn = [e for e in monitor.events if e["kind"] == "burn"]
        assert burn[-1]["objective"] == "availability"
        assert burn[-1]["breached"] is True
        # Errors age out of the rolling window: burn clears, with a
        # recovery event on the crossing back under 1.0.
        clock.now += 31.0
        monitor.record("search", 200, 0.01)
        assert monitor.snapshot()["availability"] == 1.0
        burn = [e for e in monitor.events if e["kind"] == "burn"]
        assert burn[-1]["breached"] is False
        assert metrics.counter_value("serve.slo.events") == len(monitor.events)

    def test_latency_objective_skips_ineligible_endpoints(self):
        _, monitor = self._monitor(latency_deadline_s=0.1)
        monitor.record("healthz", 200, 5.0, latency_eligible=False)
        assert monitor.snapshot()["latency_attainment"] == 1.0
        monitor.record("search", 200, 5.0)
        snap = monitor.snapshot()
        assert snap["latency_attainment"] == 0.0
        assert snap["latency_burn_rate"] > 1.0
        assert snap["availability"] == 1.0  # slow but not erroring

    def test_health_transitions_become_events(self):
        _, monitor = self._monitor()
        monitor.note_health("ok")  # no transition, no event
        assert not monitor.events
        monitor.note_health("degraded")
        monitor.note_health("degraded")  # steady state, still one event
        monitor.note_health("ok")
        health = [e for e in monitor.events if e["kind"] == "health"]
        assert [(e["from"], e["to"]) for e in health] == [
            ("ok", "degraded"), ("degraded", "ok"),
        ]

    def test_publish_writes_gauges(self):
        registry = MetricsRegistry()
        _, monitor = self._monitor()
        monitor.record("search", 200, 0.01)
        monitor.note_health("degraded")
        monitor.publish(registry)
        gauges = registry.as_dict()["gauges"]
        assert gauges["serve.slo.availability"] == 1.0
        assert gauges["serve.slo.degraded"] == 1.0
        for name in ("availability_burn_rate", "latency_attainment",
                     "latency_burn_rate"):
            assert f"serve.slo.{name}" in gauges


class TestPromAndSloRoutes:
    def test_healthz_carries_slo_snapshot(self, app):
        payload = app.handle("GET", "/healthz").json()
        slo = payload["slo"]
        assert slo["health"] == "ok"
        assert slo["objectives"]["availability"] == 0.999
        assert slo["objectives"]["latency_deadline_s"] == 0.5
        assert "availability_burn_rate" in slo
        assert "latency_burn_rate" in slo
        assert isinstance(slo["events"], list)

    def test_metricz_prom_parses_with_checker(self, app, tiny_pedigree_graph):
        from repro.obs.prom import check_exposition

        probe = _named_entity(tiny_pedigree_graph)
        body = (
            f'{{"first_name": "{probe.first("first_name")}", '
            f'"surname": "{probe.first("surname")}"}}'
        ).encode()
        app.handle("GET", "/healthz")
        app.handle("POST", "/v1/search", body=body)
        response = app.handle("GET", "/metricz", {"format": "prom"})
        assert response.status == 200
        assert response.content_type.startswith("text/plain")
        families = check_exposition(response.body.decode())
        # Latency histogram with the shared quantile companion family.
        search = families["snaps_serve_search_latency_seconds"]
        assert search["type"] == "histogram"
        assert "snaps_serve_search_latency_seconds_quantile" in families
        # SLO gauges, process gauges, and the identity info series.
        for family in (
            "snaps_serve_slo_availability",
            "snaps_serve_slo_latency_burn_rate",
            "snaps_serve_slo_degraded",
            "snaps_process_rss_bytes",
            "snaps_process_open_fds",
            "snaps_serve_requests_total",
        ):
            assert family in families, family
        (sample,) = families["snaps_info"]["samples"]
        assert sample[1]["service"] == "snaps-serve"

    def test_slo_degrades_with_breaker(self, tiny_pedigree_graph):
        """A tripping breaker flips health; the SLO monitor records the
        degraded-mode entry as an event and the degraded gauge goes 1."""
        config = ServeConfig(breaker_threshold=2, breaker_reset_s=60.0)
        app = ServingApp(tiny_pedigree_graph, config)

        def explode(query, top_m=10):
            raise RuntimeError("backend down")

        app.engine.search = explode
        body = b'{"first_name": "mary", "surname": "macdonald"}'
        for _ in range(3):
            assert app.handle("POST", "/v1/search", body=body).status >= 500
        payload = app.handle("GET", "/healthz").json()
        assert payload["status"] != "ok"
        assert payload["slo"]["health"] != "ok"
        kinds = {e["kind"] for e in app.slo.events}
        assert "health" in kinds
        app.handle("GET", "/metricz", {"format": "json"})
        assert app.metrics.gauges["serve.slo.degraded"].value == 1.0
        assert app.metrics.counter_value("serve.slo.events") >= 1
