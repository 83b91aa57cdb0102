"""EXPERIMENT S-SERVE -- what the page cache and the worker pool buy.

Two ratio checks that no tier-1 test or perfbench metric asserts:

* cached serving beats uncached serving over a seeded Zipf load,
* ``--workers 4`` beats a single-threaded server over real sockets.

Thread speedups only exist where the host grants real parallelism; on a
single-core runner the GIL serialises render work, so the speedup
assertion is gated on ``os.cpu_count()`` while the measured numbers
always print.

All load streams are seeded -- identical requests across runs.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.serve import LoadGenerator, create_app, run_load

REQUESTS = 500
MULTICORE = (os.cpu_count() or 1) >= 2


@pytest.fixture(scope="module")
def request_stream():
    app = create_app(watch=False)
    return LoadGenerator.for_app(app, seed=42).sample(REQUESTS)


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


def _socket_server(workers):
    from repro.serve import create_server

    server, app = create_server(host="127.0.0.1", port=0, quiet=True,
                                watch=False, workers=workers)
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
