"""EXPERIMENT S-SERVE -- the serving layer under synthetic load.

Measures what the ROADMAP's "serves heavy traffic" claim rests on:

* requests/sec over a Zipf-distributed page-popularity workload with the
  content-addressed LRU cache ON vs OFF,
* the conditional-request (If-None-Match -> 304) revalidation path,
* full rebuild vs incremental rebuild after a single content edit.

The full static export is timed by ``bench_site_build.py``.

All load streams are seeded -- identical requests across runs.
"""

from __future__ import annotations

import shutil

import pytest

from repro.activities.catalog import corpus_dir
from repro.serve import LoadGenerator, create_app, run_load

REQUESTS = 500


@pytest.fixture(scope="module")
def request_stream():
    app = create_app(watch=False)
    return LoadGenerator.for_app(app, seed=42).sample(REQUESTS)


@pytest.mark.benchmark(group="serve-throughput")
def test_cached_serving(benchmark, request_stream):
    """Zipf load with the page cache on; repeats revalidate via ETag."""
    app = create_app(watch=False)

    def serve():
        return run_load(app, request_stream)

    report = benchmark(serve)
    assert report.ok
    assert report.cache_hits > 0
    print()
    print(f"cached: {report.requests_per_s:,.0f} req/s "
          f"({report.revalidations} x 304, "
          f"{report.cache_hits}/{report.requests} cache hits)")


@pytest.mark.benchmark(group="serve-throughput")
def test_uncached_serving(benchmark, request_stream):
    """Same load with the cache disabled: every request re-renders."""
    app = create_app(watch=False, cache_enabled=False)

    def serve():
        return run_load(app, request_stream, revalidate=False)

    report = benchmark(serve)
    assert report.ok
    print()
    print(f"uncached: {report.requests_per_s:,.0f} req/s")


def test_cache_speedup_measured(request_stream):
    """The acceptance check: cached serving beats uncached by a factor."""
    cached_app = create_app(watch=False)
    uncached_app = create_app(watch=False, cache_enabled=False)
    run_load(cached_app, request_stream)               # warm the cache
    cached = run_load(cached_app, request_stream)
    uncached = run_load(uncached_app, request_stream, revalidate=False)
    speedup = cached.requests_per_s / uncached.requests_per_s
    print()
    print(f"cache speedup: {speedup:.1f}x "
          f"({cached.requests_per_s:,.0f} vs {uncached.requests_per_s:,.0f} req/s)")
    assert speedup > 1.5


@pytest.mark.benchmark(group="serve-rebuild")
def test_full_rebuild(benchmark, tmp_path):
    """Baseline: re-render all ~170 files after one edit."""
    from repro.serve.rebuild import RebuildManager

    content = tmp_path / "content"
    shutil.copytree(corpus_dir(), content)
    manager = RebuildManager(content, min_interval_s=0.0)
    out = tmp_path / "site"
    manager.state.site.build(out)

    def rebuild():
        return manager.state.site.build(out)

    stats = benchmark(rebuild)
    assert stats.total_files == 170


@pytest.mark.benchmark(group="serve-rebuild")
def test_incremental_rebuild_one_edit(benchmark, tmp_path):
    """Incremental: only the edited page is re-rendered."""
    from repro.serve.rebuild import RebuildManager

    content = tmp_path / "content"
    shutil.copytree(corpus_dir(), content)
    manager = RebuildManager(content, min_interval_s=0.0)
    out = tmp_path / "site"
    manager.state.site.build(out)

    counter = [0]

    def edit_and_rebuild():
        counter[0] += 1
        path = content / "gardeners.md"
        path.write_text(path.read_text(encoding="utf-8")
                        + f"\nEdit {counter[0]}.\n", encoding="utf-8")
        manager.refresh()
        return manager.state.site.build(out, incremental=True)

    stats = benchmark(edit_and_rebuild)
    assert stats.incremental
    assert stats.total_files <= 2           # the page (+ home if title moved)
    assert stats.total_skipped >= 168


def test_metrics_after_load_run():
    """/api/metrics reports counts, percentiles, hit ratio after a run."""
    import json

    from repro.serve import call_app

    app = create_app(watch=False)
    stream = LoadGenerator.for_app(app, seed=7).sample(300)
    run_load(app, stream)
    payload = json.loads(call_app(app, "/api/metrics").body)
    assert payload["total_requests"] == 300
    assert payload["cache"]["hit_ratio"] > 0.5
    page_routes = [r for r in payload["routes"] if r.startswith("page:")]
    assert page_routes
    for route in page_routes:
        latency = payload["routes"][route]["latency"]
        assert latency["p50_ms"] <= latency["p95_ms"] <= latency["p99_ms"]
    print()
    print(f"hit ratio {payload['cache']['hit_ratio']:.2%} over "
          f"{payload['total_requests']} requests")


# --------------------------------------------------------------------------
# EXPERIMENT S-CONC -- concurrent serving and warm starts.
#
# Thread speedups only exist where the host grants real parallelism; on a
# single-core runner the GIL serialises render work, so speedup assertions
# are gated on ``os.cpu_count()`` while the measured numbers always print.
# --------------------------------------------------------------------------

import os
import threading

MULTICORE = (os.cpu_count() or 1) >= 2


def _socket_server(workers, cache_dir=None):
    from repro.serve import create_server

    server, app = create_server(host="127.0.0.1", port=0, quiet=True,
                                watch=False, workers=workers,
                                cache_dir=cache_dir)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, app, f"http://127.0.0.1:{server.server_address[1]}", thread


def test_worker_throughput_measured():
    """Single-threaded vs ``--workers 4`` over real sockets, 8 clients."""
    from repro.serve import run_load_http

    app = create_app(watch=False)
    gen = LoadGenerator.for_app(app, seed=13, api_ratio=0.2,
                                conditional_ratio=0.7)
    stream = gen.sample_requests(400)

    rates = {}
    for workers in (1, 4):
        server, sapp, base_url, thread = _socket_server(workers)
        try:
            run_load_http(base_url, stream[:50], clients=4)     # warm-up
            report = run_load_http(base_url, stream, clients=8)
            assert report.ok
            rates[workers] = report.requests_per_s
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    speedup = rates[4] / rates[1]
    print()
    print(f"workers: 1 -> {rates[1]:,.0f} req/s, 4 -> {rates[4]:,.0f} req/s "
          f"({speedup:.2f}x, {os.cpu_count()} cpu)")
    if MULTICORE:
        assert speedup > 1.2
    else:
        assert rates[4] > rates[1] * 0.5    # pooling must not fall off a cliff


def test_warm_start_hit_ratio(tmp_path):
    """A restarted server answers its first load pass mostly from cache."""
    cache_dir = tmp_path / "cache"
    cold = create_app(watch=False, cache_dir=cache_dir)
    stream = LoadGenerator.for_app(cold, seed=31).sample(300)

    cold_report = run_load(cold, stream, revalidate=False)
    cold_first_ratio = cold_report.cache_hits / cold_report.requests
    assert cold.save_cache() > 0

    warm = create_app(watch=False, cache_dir=cache_dir)
    warm_report = run_load(warm, stream, revalidate=False)
    warm_first_ratio = warm_report.cache_hits / warm_report.requests
    print()
    print(f"first-pass hit ratio: cold {cold_first_ratio:.2%} -> "
          f"warm {warm_first_ratio:.2%} ({warm.warm_loaded} entries loaded)")
    assert warm_first_ratio > 0.5
    assert warm_first_ratio > cold_first_ratio


def test_mixed_traffic_tail_latency():
    """Realistic mix (20% API, 70% conditional): p99.9 tail is reported."""
    app = create_app(watch=False)
    gen = LoadGenerator.for_app(app, seed=17, api_ratio=0.2,
                                conditional_ratio=0.7)
    report = run_load(app, gen.sample_requests(1000))
    assert report.ok
    assert report.api_requests > 0
    p50 = report.latency_percentile_ms(50)
    p99 = report.latency_percentile_ms(99)
    p999 = report.latency_percentile_ms(99.9)
    assert p50 <= p99 <= p999
    print()
    print(f"mixed traffic: {report.requests_per_s:,.0f} req/s, "
          f"p50 {p50:.2f} ms, p99 {p99:.2f} ms, p99.9 {p999:.2f} ms "
          f"({report.api_requests} api, {report.revalidations} x 304)")


# --------------------------------------------------------------------------
# EXPERIMENT S-CHAOS -- throughput and tail behaviour under injected faults.
#
# The resilience claim measured: with the chaos plan active the server may
# shed (503) and serve stale, but never surfaces an unhandled 5xx, and the
# shed-rate / stale-hit-rate columns quantify the degradation.
# --------------------------------------------------------------------------


def test_chaos_shed_and_stale_rates_measured(tmp_path):
    """Seeded fault plan: report shed rate and stale-hit rate columns."""
    import shutil as _shutil

    from repro.serve import parse_fault_spec, run_load_concurrent

    content = tmp_path / "content"
    _shutil.copytree(corpus_dir(), content)
    faults = parse_fault_spec(
        "rebuild:error@0.3,render:latency@0.2:ms=2", seed=99)
    app = create_app(content_dir=content, watch=False, faults=faults,
                     rebuild_mode="background", breaker_threshold=2,
                     breaker_reset_s=0.02, max_inflight=2,
                     cache_enabled=False)
    try:
        stream = LoadGenerator.for_app(app, seed=99).sample(200)
        page = content / "gardeners.md"
        page.write_text(page.read_text(encoding="utf-8") + "\nChaos.\n",
                        encoding="utf-8")
        app.background.run_once()            # likely fails: stale marking on
        report = run_load_concurrent(app, stream, clients=4,
                                     revalidate=False)
        assert report.unhandled_errors == 0
        assert set(report.statuses) <= {200, 304, 503}
        print()
        print(f"chaos: {report.requests_per_s:,.0f} req/s, "
              f"shed rate {report.shed_rate:.2%}, "
              f"stale-hit rate {report.stale_hit_rate:.2%}, "
              f"unhandled 5xx {report.unhandled_errors} "
              f"({faults.total_injected} faults injected)")
    finally:
        app.close()


def test_clean_run_has_zero_degradation_rates():
    """Without faults the new columns are exactly zero (no false alarms)."""
    app = create_app(watch=False, rebuild_mode="background", max_inflight=64)
    try:
        report = run_load(app, LoadGenerator.for_app(app, seed=4).sample(200))
        assert report.ok
        assert report.shed_rate == 0.0
        assert report.stale_hit_rate == 0.0
        assert report.unhandled_errors == 0
    finally:
        app.close()
