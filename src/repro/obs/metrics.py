"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The pipeline reports *how much work* each phase did through a
:class:`MetricsRegistry` — candidate pairs generated, merges applied,
constraint rejections, block-size and similarity distributions, query
latencies.  The registry is a plain name → instrument mapping with
get-or-create semantics, so instrumented code never has to declare its
instruments up front.

Counters take a lock per increment because the threaded serving tier
(and tests) drive one registry from several threads at once; gauges
and histograms share the same lock discipline.  A :class:`NullMetrics`
singleton (``NULL_METRICS``) implements the same surface as no-ops so
hot paths can be written unconditionally against an always-present
registry.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "linear_buckets",
    "exponential_buckets",
    "histogram_quantile",
    "merge_counts",
    "SIMILARITY_BUCKETS",
    "LATENCY_BUCKETS_S",
]


def linear_buckets(start: float, width: float, count: int) -> list[float]:
    """``count`` evenly spaced bucket upper bounds from ``start``.

    >>> linear_buckets(0.1, 0.1, 3)
    [0.1, 0.2, 0.3]
    """
    if count <= 0 or width <= 0:
        raise ValueError("count and width must be positive")
    return [round(start + i * width, 10) for i in range(count)]


def exponential_buckets(start: float, factor: float, count: int) -> list[float]:
    """``count`` geometrically growing bucket upper bounds from ``start``.

    >>> exponential_buckets(1, 2, 4)
    [1.0, 2.0, 4.0, 8.0]
    """
    if count <= 0 or start <= 0 or factor <= 1.0:
        raise ValueError("need positive start, factor > 1, positive count")
    return [round(float(start) * float(factor) ** i, 10) for i in range(count)]


# Shared bucket presets: similarity scores live in [0, 1] (20 × 0.05
# steps); latencies from 0.1 ms to ~13 s in doubling steps.
SIMILARITY_BUCKETS = linear_buckets(0.05, 0.05, 20)
LATENCY_BUCKETS_S = exponential_buckets(0.0001, 2, 18)


def histogram_quantile(
    buckets: Sequence[float],
    counts: Sequence[int],
    q: float,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float:
    """Prometheus-style quantile estimate from cumulative-able buckets.

    ``buckets`` are the upper bounds, ``counts`` the per-bucket counts
    with one trailing overflow slot (the :class:`Histogram` layout).
    Linearly interpolates inside the bucket the target rank falls in;
    the first bucket's lower edge is ``minimum`` (default 0.0) and a
    rank landing in the overflow bucket returns ``maximum`` (default the
    last finite bound).  The result is clamped into ``[minimum,
    maximum]`` when those are known, matching what an exact-sample
    estimator could return.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0.0
    for i, bound in enumerate(buckets):
        in_bucket = counts[i]
        if seen + in_bucket >= rank and in_bucket > 0:
            lo = buckets[i - 1] if i > 0 else (minimum if minimum is not None else 0.0)
            estimate = lo + (bound - lo) * ((rank - seen) / in_bucket)
            break
        seen += in_bucket
    else:
        # Rank falls in the overflow bucket: the bound is unknown, so
        # report the observed maximum (or the last finite bound).
        estimate = maximum if maximum is not None else float(buckets[-1])
    if minimum is not None and estimate < minimum:
        estimate = minimum
    if maximum is not None and estimate > maximum:
        estimate = maximum
    return estimate


def merge_counts(metrics, counts: dict[str, int], prefix: str = "") -> None:
    """Fold a plain ``name -> count`` dict into ``metrics`` counters.

    Worker processes can't share a registry, so they return counter
    deltas as plain dicts; the parent folds them in here.  ``metrics``
    may be ``None`` (the uninstrumented fast path).
    """
    if metrics is None:
        return
    for name, count in counts.items():
        if count:
            metrics.inc(f"{prefix}{name}", count)


class Counter:
    """Monotonically increasing integer count, safe across threads."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        return self._value

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += n

    # Locks don't pickle; drop them on the way out and mint a fresh one
    # on the way in so registries can cross process boundaries.
    def __getstate__(self) -> dict:
        return {"name": self.name, "_value": self._value}

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._value = state["_value"]
        self._lock = threading.Lock()


class Gauge:
    """A last-write-wins numeric value (e.g. reduction ratio)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram with sum/min/max tracking.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit overflow bucket (+inf) catches everything above the last
    bound.  A value exactly on a bound lands in that bound's bucket.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = [float(b) for b in buckets]
        if not bounds or bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("buckets must be strictly increasing and non-empty")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # [+1] = overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self.counts[index] += 1
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-interpolated quantile estimate (see
        :func:`histogram_quantile`)."""
        if not self.count:
            return 0.0
        return histogram_quantile(
            self.buckets, self.counts, q, minimum=self.min, maximum=self.max
        )

    def as_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.total, 9),
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "p50": round(self.quantile(0.50), 9) if self.count else None,
            "p95": round(self.quantile(0.95), 9) if self.count else None,
            "p99": round(self.quantile(0.99), 9) if self.count else None,
        }

    def __getstate__(self) -> dict:
        return {
            slot: getattr(self, slot) for slot in self.__slots__ if slot != "_lock"
        }

    def __setstate__(self, state: dict) -> None:
        for slot, value in state.items():
            setattr(self, slot, value)
        self._lock = threading.Lock()


class MetricsRegistry:
    """Name → instrument mapping with get-or-create semantics."""

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def __bool__(self) -> bool:
        return True

    # -- get-or-create ------------------------------------------------

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self.counters.get(name)
            if instrument is None:
                instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self.gauges.get(name)
            if instrument is None:
                instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str, buckets: Sequence[float] | None = None) -> Histogram:
        with self._lock:
            instrument = self.histograms.get(name)
            if instrument is None:
                if buckets is None:
                    buckets = exponential_buckets(1, 2, 16)
                instrument = self.histograms[name] = Histogram(name, buckets)
        return instrument

    # -- convenience write paths --------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(
        self, name: str, value: float, buckets: Sequence[float] | None = None
    ) -> None:
        self.histogram(name, buckets).observe(value)

    # -- read / export -------------------------------------------------

    def counter_value(self, name: str) -> int:
        instrument = self.counters.get(name)
        return instrument.value if instrument else 0

    def as_dict(self) -> dict:
        """JSON-serialisable snapshot of every instrument."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self.histograms.items())
            },
        }

    def __getstate__(self) -> dict:
        return {
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": self.histograms,
        }

    def __setstate__(self, state: dict) -> None:
        self.counters = state["counters"]
        self.gauges = state["gauges"]
        self.histograms = state["histograms"]
        self._lock = threading.Lock()

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other``'s instruments into this registry (for multi-run
        aggregation); gauges keep the *other* run's value (last write
        wins).  Histograms must agree on buckets."""
        for name, counter in other.counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other.gauges.items():
            self.gauge(name).set(gauge.value)
        for name, theirs in other.histograms.items():
            mine = self.histogram(name, theirs.buckets)
            if mine.buckets != theirs.buckets:
                raise ValueError(f"histogram {name!r} bucket mismatch")
            with mine._lock:
                for i, c in enumerate(theirs.counts):
                    mine.counts[i] += c
                mine.count += theirs.count
                mine.total += theirs.total
                mine.min = min(mine.min, theirs.min)
                mine.max = max(mine.max, theirs.max)
        return self


class NullMetrics:
    """No-op registry: same write surface, nothing recorded."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def counter(self, name: str) -> Counter:  # pragma: no cover - trivial
        return Counter(name)

    def gauge(self, name: str) -> Gauge:  # pragma: no cover - trivial
        return Gauge(name)

    def histogram(
        self, name: str, buckets: Sequence[float] | None = None
    ) -> Histogram:  # pragma: no cover - trivial
        return Histogram(name, buckets if buckets is not None else [1.0])

    def inc(self, name: str, n: int = 1) -> None:
        return None

    def set_gauge(self, name: str, value: float) -> None:
        return None

    def observe(
        self, name: str, value: float, buckets: Sequence[float] | None = None
    ) -> None:
        return None

    def counter_value(self, name: str) -> int:
        return 0

    def as_dict(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()
