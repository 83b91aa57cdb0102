"""Worker-pool tests: pool semantics, the pooled WSGI server under
parallel socket traffic, and warm-restart hit ratios across server
generations (the ISSUE 2 concurrency acceptance path)."""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (
    LoadGenerator,
    create_app,
    create_server,
    run_load_http,
)
from repro.serve.loadgen import call_app
from repro.serve.workers import WorkerPool


class TestWorkerPool:
    def test_executes_submitted_tasks(self):
        results = []
        with WorkerPool(2) as pool:
            for i in range(10):
                pool.submit(results.append, i)
            assert pool.drain(timeout_s=5.0)
        assert sorted(results) == list(range(10))

    def test_tasks_run_concurrently(self):
        """Two blocking tasks overlap: both enter before either leaves."""
        both_running = threading.Event()
        entered = []
        gate = threading.Event()

        def task():
            entered.append(threading.current_thread().name)
            if len(entered) == 2:
                both_running.set()
            gate.wait(timeout=5.0)

        with WorkerPool(2) as pool:
            pool.submit(task)
            pool.submit(task)
            assert both_running.wait(timeout=5.0)
            gate.set()
            assert pool.drain(timeout_s=5.0)
        assert len(set(entered)) == 2       # two distinct worker threads

    def test_errors_counted_and_pool_survives(self):
        def boom():
            raise RuntimeError("task failure")

        with WorkerPool(1) as pool:
            pool.submit(boom)
            pool.submit(lambda: None)
            assert pool.drain(timeout_s=5.0)
            stats = pool.stats()
        assert stats["errors"] == 1
        assert stats["completed"] == 2

    def test_submit_after_shutdown_rejected(self):
        pool = WorkerPool(1)
        pool.shutdown()
        with pytest.raises(RuntimeError):
            pool.submit(lambda: None)

    def test_worker_count_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_stats_shape(self):
        with WorkerPool(3) as pool:
            stats = pool.stats()
        assert stats["workers"] == 3
        assert stats["submitted"] == stats["completed"] == 0


@pytest.fixture()
def threaded_server(tmp_path):
    """A ``--workers 4`` server with a persistent cache dir, over sockets."""
    cache_dir = tmp_path / "cache"
    server, app = create_server(
        host="127.0.0.1", port=0, quiet=True, watch=False,
        workers=4, cache_dir=cache_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server, app, f"http://127.0.0.1:{server.server_address[1]}", cache_dir
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestConcurrentServing:
    def test_parallel_requests_no_errors(self, threaded_server):
        """8 client threads, mixed page/API/conditional traffic, no 5xx."""
        _, app, base_url, _ = threaded_server
        gen = LoadGenerator.for_app(app, seed=5, api_ratio=0.2,
                                    conditional_ratio=0.7)
        report = run_load_http(base_url, gen.sample_requests(200), clients=8)
        assert report.requests == 200
        assert set(report.statuses) <= {200, 304}
        assert report.revalidations > 0     # conditional clients earned 304s
        assert report.api_requests > 0
        assert app.worker_pool.stats()["errors"] == 0

    def test_etag_304_contract_under_concurrency(self, threaded_server):
        _, _, base_url, _ = threaded_server
        url = base_url + "/activities/gardeners/"
        with urllib.request.urlopen(url) as response:
            etag = response.headers["ETag"]
        assert etag

        statuses = []

        def revalidate():
            request = urllib.request.Request(url,
                                             headers={"If-None-Match": etag})
            try:
                with urllib.request.urlopen(request) as response:
                    statuses.append(response.status)
            except urllib.error.HTTPError as err:  # 304 raises in urllib
                statuses.append(err.code)

        threads = [threading.Thread(target=revalidate) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert statuses == [304] * 8

    def test_worker_pool_visible_in_metrics(self, threaded_server):
        _, _, base_url, _ = threaded_server
        with urllib.request.urlopen(base_url + "/api/metrics") as response:
            payload = json.loads(response.read())
        assert payload["workers"]["workers"] == 4
        assert payload["workers"]["errors"] == 0
        assert payload["page_cache"]["shard_count"] == 8

    def test_warm_restart_starts_hot(self, threaded_server):
        """Spill the cache, boot a second app over the same cache dir, and
        the very first load pass is mostly cache hits (vs ~0 cold)."""
        _, app, base_url, cache_dir = threaded_server
        gen = LoadGenerator.for_app(app, seed=9)
        stream = gen.sample_requests(150)
        run_load_http(base_url, stream, clients=4)
        assert app.save_cache() > 0

        restarted = create_app(watch=False, cache_dir=cache_dir)
        assert restarted.warm_loaded > 0
        from repro.serve import run_load

        first_pass = run_load(restarted, stream, revalidate=False)
        assert first_pass.ok
        hit_ratio = first_pass.cache_hits / first_pass.requests
        assert hit_ratio > 0.5


class TestGracefulDrain:
    """The shutdown path: server_close finishes accepted work first."""

    def test_drain_empty_pool_is_immediate_and_clean(self):
        with WorkerPool(2) as pool:
            assert pool.drain(timeout_s=0.1) is True
            assert pool.stats()["abandoned"] == 0

    def test_drain_deadline_counts_abandoned_work(self):
        gate = threading.Event()
        with WorkerPool(1) as pool:
            pool.submit(gate.wait, 10.0)        # blocks the only worker
            pool.submit(lambda: None)           # queued behind it
            assert pool.pending() == 2
            assert pool.drain(timeout_s=0.05) is False
            assert pool.stats()["abandoned"] == 2
            gate.set()
            assert pool.drain(timeout_s=5.0) is True
            assert pool.pending() == 0
            # abandoned records what the deadline gave up on, not the
            # current backlog: it does not un-count when work finishes.
            assert pool.stats()["abandoned"] == 2

    def test_server_close_reports_clean_drain(self):
        server, _ = create_server(port=0, quiet=True, watch=False, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        with urllib.request.urlopen(base + "/healthz") as response:
            assert response.status == 200
        server.shutdown()
        thread.join(timeout=5)
        server.server_close()
        assert server.drained_clean is True
        with pytest.raises(RuntimeError):       # the pool is torn down too
            server.pool.submit(lambda: None)


class TestSingleWorkerUnchanged:
    def test_default_server_has_no_pool(self):
        server, app = create_server(port=0, quiet=True, watch=False)
        try:
            assert app.worker_pool is None
        finally:
            server.server_close()


def test_rebuild_refresh_thread_safe(tmp_path):
    """Concurrent refresh calls race on one content edit; they serialize,
    exactly one rebuilds it and the rest find nothing left to do."""
    import shutil

    from repro.activities.catalog import corpus_dir
    from repro.serve.rebuild import RebuildManager

    content = tmp_path / "content"
    shutil.copytree(corpus_dir(), content)
    manager = RebuildManager(content)
    path = content / "gardeners.md"
    path.write_text(path.read_text(encoding="utf-8") + "\nEdited.\n",
                    encoding="utf-8")
    time.sleep(0.01)                        # let mtime tick

    results = []

    def refresh():
        results.append(manager.refresh())

    threads = [threading.Thread(target=refresh) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    rebuilt = [r for r in results if r is not None]
    assert len(rebuilt) == 1
    assert rebuilt[0].ok
    assert "/activities/gardeners/" in rebuilt[0].dirty_urls


class _WorkerDeath(BaseException):
    """Escapes WorkerPool._run's ``except Exception`` and kills the worker."""


def _wait_for(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestWorkerExcepthook:
    def test_uncaught_base_exception_is_counted(self):
        with WorkerPool(1) as pool:
            pool.submit(lambda: (_ for _ in ()).throw(_WorkerDeath()))
            assert _wait_for(
                lambda: pool.stats()["worker_uncaught"] == 1)

    def test_pool_keeps_serving_after_worker_death(self):
        results = []
        with WorkerPool(1) as pool:
            pool.submit(lambda: (_ for _ in ()).throw(_WorkerDeath()))
            assert _wait_for(
                lambda: pool.stats()["worker_uncaught"] == 1)
            pool.submit(results.append, "alive")
            assert pool.drain(timeout_s=5.0)
        assert results == ["alive"]

    def test_ordinary_exceptions_stay_errors_not_uncaught(self):
        def boom():
            raise RuntimeError("handled by _run")

        with WorkerPool(1) as pool:
            pool.submit(boom)
            assert pool.drain(timeout_s=5.0)
            stats = pool.stats()
        assert stats["errors"] == 1
        assert stats["worker_uncaught"] == 0

    def test_uncaught_counter_reaches_api_metrics(self):
        app = create_app(watch=False)
        pool = WorkerPool(1)
        app.worker_pool = pool
        try:
            pool.submit(lambda: (_ for _ in ()).throw(_WorkerDeath()))
            assert _wait_for(
                lambda: pool.stats()["worker_uncaught"] == 1)
            response = call_app(app, "/api/metrics")
            assert response.status == 200
            payload = json.loads(response.body)
            assert payload["workers"]["worker_uncaught"] == 1
        finally:
            pool.shutdown()

    def test_non_pool_threads_fall_through_to_previous_hook(self):
        from repro.serve import workers as workers_mod

        seen = []
        saved_hook = threading.excepthook
        saved_flag = workers_mod._excepthook_installed

        def recording_hook(args):
            seen.append(args.exc_type)

        # Force a fresh install chaining onto the recording hook.
        threading.excepthook = recording_hook
        workers_mod._excepthook_installed = False
        try:
            with WorkerPool(1):
                assert threading.excepthook is not recording_hook
                thread = threading.Thread(
                    target=lambda: (_ for _ in ()).throw(ValueError("x")))
                thread.start()
                thread.join()
        finally:
            threading.excepthook = saved_hook
            workers_mod._excepthook_installed = saved_flag
        assert seen == [ValueError]
