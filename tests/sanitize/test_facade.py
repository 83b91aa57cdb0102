"""The activation facade and the serve-stack integration points."""

from __future__ import annotations

import json
import threading

import pytest

from repro import sanitize
from repro.sanitize.core import InstrumentedLock, Sanitizer
from repro.serve import create_app
from repro.serve.cache import PageCache
from repro.serve.loadgen import call_app
from repro.serve.metrics import MetricsRegistry
from repro.serve.workers import WorkerPool
from repro.sweep.manager import SweepManager


class TestFacade:
    def test_register_lock_is_noop_when_inactive(self):
        if sanitize.current() is not None:
            pytest.skip("session sanitized")
        cache = PageCache(capacity=4)
        assert isinstance(cache._lock, type(threading.Lock()))

    def test_wrap_lock_returns_original_when_inactive(self):
        if sanitize.current() is not None:
            pytest.skip("session sanitized")
        lock = threading.Lock()
        assert sanitize.wrap_lock(lock, "x") is lock

    def test_share_returns_original_when_inactive(self):
        if sanitize.current() is not None:
            pytest.skip("session sanitized")
        obj = object()
        assert sanitize.share(obj, "x") is obj

    def test_activation_context_installs_and_removes(self, sanitizer):
        # `sanitizer` fixture swapped in a fresh active sanitizer.
        assert sanitize.current() is sanitizer
        with pytest.raises(RuntimeError):
            sanitize.activate(Sanitizer())

    def test_registered_classes_get_instrumented_locks(self, sanitizer):
        assert isinstance(PageCache(capacity=4)._lock, InstrumentedLock)
        assert isinstance(MetricsRegistry()._lock, InstrumentedLock)
        pool = WorkerPool(1)
        try:
            assert isinstance(pool._lock, InstrumentedLock)
        finally:
            pool.shutdown()
        manager = SweepManager()
        try:
            assert isinstance(manager._lock, InstrumentedLock)
        finally:
            manager.close()
        names = set(sanitizer.sites)
        assert {"PageCache._lock", "MetricsRegistry._lock",
                "WorkerPool._lock", "SweepManager._lock"} <= names

    def test_cache_still_works_instrumented(self, sanitizer):
        cache = PageCache(capacity=4)
        cache.put("/a", b"body")
        entry = cache.get("/a")
        assert entry is not None and entry.body == b"body"
        assert sanitizer.sites["PageCache._lock"].acquires >= 2


class TestServeIntegration:
    def test_api_metrics_reports_sanitizer_section(self, sanitizer, tmp_path):
        app = create_app(watch=False)
        response = call_app(app, "/api/metrics")
        assert response.status == 200
        section = json.loads(response.body)["sanitizer"]
        assert section["races"] == 0
        assert "PageCache._lock" in section["locks"]
        site = section["locks"]["PageCache._lock"]
        assert set(site) >= {"acquires", "contended", "stalls",
                             "wait", "hold", "stall_budget_ms"}
        assert site["acquires"] >= 1

    def test_api_metrics_has_no_section_when_inactive(self):
        if sanitize.current() is not None:
            pytest.skip("session sanitized")
        app = create_app(watch=False)
        response = call_app(app, "/api/metrics")
        assert response.status == 200
        assert "sanitizer" not in json.loads(response.body)

    def test_metrics_extras_carry_sanitizer_for_fleet(self, sanitizer):
        app = create_app(watch=False)
        extras = app.metrics_extras()
        assert "sanitizer" in extras
        assert extras["sanitizer"]["races"] == 0

    def test_sanitized_requests_serve_identically(self, sanitizer):
        app = create_app(watch=False)
        for path in ("/", "/api/activities", "/api/search?q=race"):
            assert call_app(app, path).status == 200
        counters = sanitizer.counters()
        assert counters["locks"]["PageCache._lock"]["acquires"] > 0
        assert counters["races"] == 0
