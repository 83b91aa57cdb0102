"""Metrics tests: histogram percentiles, route counters, registry snapshot,
and the raw export/merge plane the pre-fork fleet aggregates through."""

from __future__ import annotations

import json

import pytest

from repro.serve.metrics import (
    LatencyHistogram,
    MetricsRegistry,
    RouteStats,
    merge_exports,
)


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.percentile(50) == 0.0
        assert h.snapshot()["p99_ms"] == 0.0

    def test_percentiles_ordered(self):
        h = LatencyHistogram()
        for ms in range(1, 101):                 # 1ms .. 100ms uniform
            h.observe(ms / 1000.0)
        p50, p95, p99 = h.percentile(50), h.percentile(95), h.percentile(99)
        assert p50 <= p95 <= p99 <= h.max_s
        assert 0.01 < p50 < 0.1                  # median of 1..100 ms
        assert p99 > 0.05

    def test_overflow_bucket_reports_max(self):
        h = LatencyHistogram(buckets_s=(0.001,))
        h.observe(5.0)
        assert h.percentile(99) == 5.0

    def test_mean_and_bounds(self):
        h = LatencyHistogram()
        h.observe(0.002)
        h.observe(0.004)
        assert abs(h.mean_s - 0.003) < 1e-9
        assert h.min_s == 0.002 and h.max_s == 0.004


class TestRouteStats:
    def test_errors_counted(self):
        stats = RouteStats()
        stats.record(200, 0.001)
        stats.record(404, 0.001)
        stats.record(500, 0.001)
        assert stats.requests == 3 and stats.errors == 2
        assert stats.snapshot()["statuses"] == {"200": 1, "404": 1, "500": 1}


class TestMetricsRegistry:
    def test_records_and_snapshots(self):
        reg = MetricsRegistry(clock=lambda: 100.0)
        reg.record_request("/", 200, 0.002, cache_status="miss")
        reg.record_request("/", 200, 0.001, cache_status="hit")
        reg.record_request("/", 304, 0.0005, cache_status="hit")
        reg.record_request("/api/gaps", 200, 0.01)
        snap = reg.snapshot()
        assert snap["total_requests"] == 4
        assert snap["routes"]["/"]["requests"] == 3
        assert snap["cache"]["hits"] == 2
        assert snap["cache"]["misses"] == 1
        assert snap["cache"]["hit_ratio"] == round(2 / 3, 4)
        assert snap["cache"]["not_modified"] == 1
        assert {"p50_ms", "p95_ms", "p99_ms"} <= set(
            snap["routes"]["/"]["latency"])

    def test_rebuild_counters(self):
        reg = MetricsRegistry()
        reg.record_rebuild(3)
        reg.record_rebuild(1)
        snap = reg.snapshot()
        assert snap["rebuilds"] == {"count": 2, "files_rerendered": 4}

    def test_hit_ratio_zero_without_traffic(self):
        assert MetricsRegistry().snapshot()["cache"]["hit_ratio"] == 0.0


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        """Regression for the --workers mode: N threads hammer the registry
        across shared and distinct routes; every count must survive."""
        import threading

        from repro.serve.metrics import MetricsRegistry

        registry = MetricsRegistry(clock=lambda: 0.0)
        threads_n, per_thread = 8, 500

        def worker(i):
            for k in range(per_thread):
                route = f"route-{k % 4}"          # 4 routes shared by all
                status = 200 if k % 10 else 404
                cache_status = ("hit", "miss", None)[k % 3]
                registry.record_request(route, status, 0.001 * (k % 7),
                                        cache_status)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)

        total = threads_n * per_thread
        snapshot = registry.snapshot()
        assert snapshot["total_requests"] == total
        per_route = total // 4
        for route, stats in snapshot["routes"].items():
            assert stats["requests"] == per_route, route
            assert stats["latency"]["count"] == per_route
            assert sum(stats["statuses"].values()) == per_route
        hits = snapshot["cache"]["hits"]
        misses = snapshot["cache"]["misses"]
        # per thread: k%3==0 -> hit (167 of 500), k%3==1 -> miss (167)
        assert hits == threads_n * len([k for k in range(per_thread) if k % 3 == 0])
        assert misses == threads_n * len([k for k in range(per_thread) if k % 3 == 1])

    def test_concurrent_rebuild_and_request_recording(self):
        import threading

        from repro.serve.metrics import MetricsRegistry

        registry = MetricsRegistry(clock=lambda: 0.0)

        def requests():
            for _ in range(300):
                registry.record_request("/", 200, 0.001, "hit")

        def rebuilds():
            for _ in range(300):
                registry.record_rebuild(2)

        threads = [threading.Thread(target=requests),
                   threading.Thread(target=rebuilds)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        snapshot = registry.snapshot()
        assert snapshot["rebuilds"]["count"] == 300
        assert snapshot["rebuilds"]["files_rerendered"] == 600
        assert snapshot["cache"]["hits"] == 300

    def test_p999_reported_and_ordered(self):
        from repro.serve.metrics import LatencyHistogram

        hist = LatencyHistogram()
        for i in range(1000):
            hist.observe(0.001 if i < 999 else 1.0)
        snap = hist.snapshot()
        assert snap["p50_ms"] <= snap["p95_ms"] <= snap["p99_ms"] <= snap["p999_ms"]
        assert snap["p999_ms"] > snap["p99_ms"]


class TestExportMerge:
    """The cross-process plane: export is raw and mergeable, and merging
    reconstructs the union — what pre-fork ``/api/metrics`` relies on."""

    def test_export_is_json_safe_raw_counts(self):
        reg = MetricsRegistry(clock=lambda: 50.0)
        reg.record_request("/", 200, 0.002, cache_status="miss")
        export = json.loads(json.dumps(reg.export()))   # crosses a boundary
        assert export["started_at"] == 50.0
        assert export["counters"]["cache_misses"] == 1
        latency = export["routes"]["/"]["latency"]
        assert latency["count"] == sum(latency["counts"]) == 1
        assert latency["min_s"] == latency["max_s"] == 0.002

    def test_merge_sums_counters_and_keeps_earliest_start(self):
        a = MetricsRegistry(clock=lambda: 10.0)
        b = MetricsRegistry(clock=lambda: 5.0)
        a.record_request("/x", 200, 0.001, cache_status="hit")
        b.record_request("/x", 200, 0.002, cache_status="hit")
        b.record_shed()
        b.record_stale_served()
        merged = merge_exports([a.export(), b.export()], clock=lambda: 20.0)
        snap = merged.snapshot()
        assert snap["total_requests"] == 2
        assert snap["cache"]["hits"] == 2
        assert snap["resilience"]["shed"] == 1
        assert snap["resilience"]["stale_served"] == 1
        # Fleet uptime is measured from the oldest worker's start.
        assert merged.started_at == 5.0
        assert snap["uptime_s"] == 15.0

    def test_route_stats_merge_preserves_statuses_and_errors(self):
        a, b = RouteStats(), RouteStats()
        a.record(200, 0.001)
        b.record(404, 0.002)
        b.record(500, 0.003)
        a.merge_export(b.export())
        snap = a.snapshot()
        assert snap["requests"] == 3
        assert snap["errors"] == 2
        assert snap["statuses"] == {"200": 1, "404": 1, "500": 1}

    def test_histogram_merge_identical_bounds_is_exact(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for ms in (1, 2, 3):
            a.observe(ms / 1000.0)
        for ms in (4, 5):
            b.observe(ms / 1000.0)
        a.merge_export(b.export())
        assert a.count == 5
        assert a.min_s == 0.001 and a.max_s == 0.005
        assert abs(a.sum_s - 0.015) < 1e-9
        assert sum(a.counts) == 5

    def test_histogram_merge_mismatched_bounds_raises(self):
        """Every merged export comes from workers forked from one image,
        so different bucket bounds are a bug: the merge refuses loudly
        instead of folding observations into the wrong buckets."""
        coarse = LatencyHistogram(buckets_s=(0.01, 1.0))
        coarse.observe(0.005)
        coarse.observe(2.0)
        fine = LatencyHistogram()               # default bounds
        with pytest.raises(ValueError, match="bucket bounds"):
            fine.merge_export(coarse.export())
        assert fine.count == 0                  # nothing half-merged

    def test_empty_export_merge_is_a_noop(self):
        hist = LatencyHistogram()
        hist.observe(0.001)
        hist.merge_export(LatencyHistogram().export())
        assert hist.count == 1


#: ``/api/metrics`` key paths the benchmark and CI read, in both modes.
_MERGED_PATHS = (
    ("routes", "page:home", "latency", "p99_ms"),
    ("resilience", "shed"), ("resilience", "deadline_expired"),
    ("resilience", "degraded"), ("resilience", "rate_limited"),
    ("cache", "not_modified"),
)
#: Per-process sections: top level in thread mode ...
_LOCAL_PATHS = (
    ("page_cache", "hits"), ("page_cache", "misses"),
    ("page_cache", "evictions"), ("page_cache", "warm_loaded"),
    ("resilience", "tenancy", "limiter_errors"),
)
#: ... and under ``fleet.per_worker.<i>`` in a pre-fork fleet.
_WORKER_PATHS = (
    ("page_cache", "hits"), ("page_cache", "misses"),
    ("page_cache", "evictions"), ("page_cache", "warm_loaded"),
    ("tenancy", "limiter_errors"),
)


def _missing(payload: dict, paths) -> list:
    missing = []
    for path in paths:
        node = payload
        for key in path:
            if not isinstance(node, dict) or key not in node:
                missing.append(path)
                break
            node = node[key]
    return missing


class TestMetricsSchema:
    """The ``/api/metrics`` key paths consumers depend on, in both the
    thread model and a 2-worker pre-fork fleet."""

    def test_thread_mode_payload_paths(self, tmp_path):
        from repro.serve import call_app, create_app

        app = create_app(watch=False, cache_dir=tmp_path / "cache",
                         tenants="default")
        try:
            call_app(app, "/")
            payload = json.loads(call_app(app, "/api/metrics").body)
        finally:
            app.close()
        assert _missing(payload, _MERGED_PATHS + _LOCAL_PATHS) == []
        assert "fleet" not in payload

    def test_prefork_payload_paths(self, tmp_path):
        import urllib.request

        from repro.serve.prefork import PreforkServer

        server = PreforkServer(port=0, workers=2, watch=False, quiet=True,
                               cache_dir=str(tmp_path / "cache"),
                               tenants="default")
        server.start()
        try:
            assert server.wait_ready(timeout_s=60.0), "fleet never ready"
            with urllib.request.urlopen(server.base_url + "/",
                                        timeout=30) as resp:
                resp.read()
            with urllib.request.urlopen(server.base_url + "/api/metrics",
                                        timeout=30) as resp:
                payload = json.loads(resp.read())
            supervisor_view = server.fleet.metrics_payload()
        finally:
            server.stop()
        for merged in (payload, supervisor_view):
            assert _missing(merged, _MERGED_PATHS) == []
            per_worker = merged["fleet"]["per_worker"]
            assert sorted(per_worker) == ["0", "1"]
            for worker in per_worker.values():
                assert _missing(worker, _WORKER_PATHS) == []
