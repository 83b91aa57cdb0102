"""Request metrics for the serving layer.

Per-route request counters, status-class tallies, and fixed-bucket latency
histograms with percentile estimation (p50/p95/p99/p99.9), plus cache
hit-ratio counters — everything ``/api/metrics`` reports.  Pure stdlib,
thread-safe, and deterministic given a request sequence.

Locking is striped for the multi-worker server: the registry mutex only
guards the route and tenant tables and the scalar counters, while each
:class:`RouteStats` / :class:`TenantStats` stripe carries its own mutex
for its counters and histogram.  Two workers recording requests for
*different* routes therefore never contend on a shared lock — the same
striping idea as the sharded page cache.

The histogram is :class:`repro.histogram.LatencyHistogram` (shared with
the runtime sanitizer's lock timing).

Cross-process aggregation (the pre-fork serving mode): every piece of
state is *mergeable*.  :meth:`MetricsRegistry.export` emits a raw,
JSON-safe dump — bucket counts, not percentiles — that crosses a process
boundary losslessly, and :func:`merge_exports` folds any number of those
dumps back into one registry, so fleet-wide percentiles are computed from
the merged histograms rather than averaging per-worker percentiles
(which would be wrong).
"""

from __future__ import annotations

import threading
import time
from collections import Counter

from repro import sanitize
from repro.histogram import DEFAULT_BUCKETS_S, LatencyHistogram

__all__ = ["LatencyHistogram", "RouteStats", "TenantStats", "MetricsRegistry",
           "DEFAULT_BUCKETS_S", "merge_exports"]


class _CounterStripe:
    """Named counters, a status tally and a latency histogram, one mutex.

    Subclasses declare ``COUNTERS`` and write their own ``record()``;
    snapshot, export and merge are shared.  The per-stripe mutex means
    concurrent workers recording different stripes never share a lock.
    """

    COUNTERS: tuple[str, ...] = ()

    def __init__(self) -> None:
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.statuses: Counter = Counter()
        self.latency = LatencyHistogram()
        self._lock = threading.Lock()
        sanitize.register_lock(self, "_lock", f"{type(self).__name__}._lock")

    def _view(self, latency) -> dict:
        with self._lock:
            view = {name: getattr(self, name) for name in self.COUNTERS}
            view["statuses"] = {str(k): v
                                for k, v in sorted(self.statuses.items())}
            view["latency"] = latency(self.latency)
            return view

    def snapshot(self) -> dict:
        return self._view(LatencyHistogram.snapshot)

    def export(self) -> dict:
        """Raw, mergeable dump of this stripe's counters."""
        return self._view(LatencyHistogram.export)

    def merge_export(self, export: dict) -> None:
        with self._lock:
            for name in self.COUNTERS:
                setattr(self, name,
                        getattr(self, name) + int(export.get(name, 0)))
            for status, n in export.get("statuses", {}).items():
                self.statuses[int(status)] += int(n)
            self.latency.merge_export(export.get("latency", {}))


class RouteStats(_CounterStripe):
    """Counters for one route pattern (e.g. ``/activities/<slug>/``)."""

    #: ``errors`` counts responses with status >= 400.
    COUNTERS = ("requests", "errors")

    def record(self, status: int, elapsed_s: float) -> None:
        with self._lock:
            self.requests += 1
            self.statuses[status] += 1
            if status >= 400:
                self.errors += 1
            self.latency.observe(elapsed_s)


class TenantStats(_CounterStripe):
    """Counters for one tenant at the admission edge.

    ``allowed`` were admitted past the edge, ``limited`` and
    ``sweep_limited`` got a 429 (request window or sweep quota), ``shed``
    were admitted and then shed at capacity, and ``errors`` are served
    responses with status >= 500.  The latency histogram records
    *served* requests only — folding in microsecond-scale rejections
    would drag a throttled tenant's percentiles toward zero exactly when
    its real latency matters.
    """

    COUNTERS = ("allowed", "limited", "sweep_limited", "shed", "errors")

    def record(self, outcome: str, status: int, elapsed_s: float) -> None:
        with self._lock:
            self.statuses[status] += 1
            if outcome == "limited":
                self.limited += 1
            elif outcome == "sweep_limited":
                self.sweep_limited += 1
            elif outcome == "shed":
                self.shed += 1
            else:
                self.allowed += 1
                if status >= 500:
                    self.errors += 1
                self.latency.observe(elapsed_s)


class MetricsRegistry:
    """Thread-safe aggregate of everything ``/api/metrics`` exposes."""

    #: Scalar counters every export carries (and merging sums).  The
    #: resilience ones make the degradation ladder observable: 503s at
    #: the watermark (``shed``), requests over their time budget, 200s
    #: marked ``Warning: 110``, renders that gave up after retries, and
    #: 429s at the tenancy edge.
    COUNTERS = ("cache_hits", "cache_misses", "not_modified", "rebuilds",
                "rebuild_pages", "shed", "deadline_expired", "stale_served",
                "degraded", "rate_limited")

    def __init__(self, clock=time.time):
        self._lock = threading.Lock()
        sanitize.register_lock(self, "_lock", "MetricsRegistry._lock")
        self._routes: dict[str, RouteStats] = {}
        self._tenants: dict[str, TenantStats] = {}
        self._counters = dict.fromkeys(self.COUNTERS, 0)
        self.started_at = clock()
        self._clock = clock

    def record_request(self, route: str, status: int, elapsed_s: float,
                       cache_status: str | None = None) -> None:
        with self._lock:
            stats = self._routes.get(route)
            if stats is None:
                stats = self._routes[route] = RouteStats()
            if cache_status == "hit":
                self._counters["cache_hits"] += 1
            elif cache_status == "miss":
                self._counters["cache_misses"] += 1
            if status == 304:
                self._counters["not_modified"] += 1
        stats.record(status, elapsed_s)     # striped: per-route mutex

    def _bump(self, name: str, n: int = 1) -> None:
        with self._lock:
            self._counters[name] += n

    def record_rebuild(self, files_rerendered: int) -> None:
        with self._lock:
            self._counters["rebuilds"] += 1
            self._counters["rebuild_pages"] += files_rerendered

    def record_shed(self) -> None:
        self._bump("shed")

    def record_deadline_expired(self) -> None:
        self._bump("deadline_expired")

    def record_stale_served(self) -> None:
        self._bump("stale_served")

    def record_degraded(self) -> None:
        self._bump("degraded")

    def record_tenant(self, tenant: str, outcome: str, status: int,
                      elapsed_s: float) -> None:
        """Attribute one edge decision to its tenant.

        ``outcome`` is one of ``allowed`` / ``limited`` /
        ``sweep_limited`` / ``shed`` — the registry lock only guards the
        tenant table; counting happens under the tenant's own stripe.
        """
        with self._lock:
            stats = self._tenants.get(tenant)
            if stats is None:
                stats = self._tenants[tenant] = TenantStats()
            if outcome in ("limited", "sweep_limited"):
                self._counters["rate_limited"] += 1
        stats.record(outcome, status, elapsed_s)

    def _tables(self) -> tuple[dict, dict, dict, float]:
        """Consistent copies: routes, tenants, counters, start time."""
        with self._lock:
            return (dict(self._routes), dict(self._tenants),
                    dict(self._counters), self.started_at)

    def export(self) -> dict:
        """Raw, JSON-safe, *mergeable* dump of every counter.

        This is what crosses the process boundary in pre-fork mode: the
        parent (or a peer worker) folds any number of these back into one
        registry with :func:`merge_exports`, and percentiles come out of
        the merged bucket counts — statistically correct, unlike any
        combination of per-worker percentiles.
        """
        routes, tenants, counters, started_at = self._tables()
        return {
            "routes": {pattern: stats.export()
                       for pattern, stats in routes.items()},
            "tenants": {name: stats.export()
                        for name, stats in tenants.items()},
            "counters": counters,
            "started_at": started_at,
        }

    def merge_export(self, export: dict) -> None:
        """Fold one raw :meth:`export` dump into this registry."""
        stripes = []
        with self._lock:
            for name, value in export.get("counters", {}).items():
                if name in self._counters:
                    self._counters[name] += int(value)
            started_at = export.get("started_at")
            if started_at is not None:
                self.started_at = min(self.started_at, float(started_at))
            for key, table, kind in (("routes", self._routes, RouteStats),
                                     ("tenants", self._tenants, TenantStats)):
                for name, stripe_export in export.get(key, {}).items():
                    stripe = table.get(name)
                    if stripe is None:
                        stripe = table[name] = kind()
                    stripes.append((stripe, stripe_export))
        for stripe, stripe_export in stripes:
            stripe.merge_export(stripe_export)

    def snapshot(self) -> dict:
        """JSON-ready view of every counter (the ``/api/metrics`` body)."""
        routes, tenants, counters, started_at = self._tables()
        uptime = self._clock() - started_at
        route_snapshots = {
            pattern: stats.snapshot() for pattern, stats in sorted(routes.items())
        }
        hits, misses = counters["cache_hits"], counters["cache_misses"]
        looked_up = hits + misses
        return {
            "uptime_s": round(uptime, 3),
            "total_requests": sum(s["requests"] for s in route_snapshots.values()),
            "routes": route_snapshots,
            "cache": {
                "hits": hits,
                "misses": misses,
                "hit_ratio": round(hits / looked_up, 4) if looked_up else 0.0,
                "not_modified": counters["not_modified"],
            },
            "rebuilds": {
                "count": counters["rebuilds"],
                "files_rerendered": counters["rebuild_pages"],
            },
            "resilience": {name: counters[name] for name in (
                "shed", "deadline_expired", "stale_served", "degraded",
                "rate_limited")},
            "tenants": {name: stats.snapshot()
                        for name, stats in sorted(tenants.items())},
        }


def merge_exports(exports, clock=time.time) -> "MetricsRegistry":
    """Fold raw :meth:`MetricsRegistry.export` dumps into one registry.

    The fleet-wide ``/api/metrics`` view in pre-fork mode: per-worker
    bucket counts sum, so percentiles of the result are percentiles of
    the union of all observations (to bucket resolution).
    """
    merged = MetricsRegistry(clock=clock)
    for export in exports:
        if export:
            merged.merge_export(export)
    return merged
