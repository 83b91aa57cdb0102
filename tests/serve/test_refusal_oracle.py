"""Frozen oracle: the exact bytes of every refusal and edge response.

Each case drives a fresh :class:`~repro.serve.app.ServeApp` in process
and compares, against literals, the status line, the full header list in
order and the body bytes of every response, plus what the requests added
to the ``/api/metrics`` counters: ``resilience.*``, ``cache.*``, the
per-route counts and the per-tenant edge outcomes.  Latency is not part
of the oracle.

Everything that could vary between runs is pinned: the tenant gate reads
a fixed clock (40 s into a 60 s window, so every tenant ``Retry-After``
is 20), the deadline case runs the app on a clock that advances 1 ms per
read, and the sweep-capacity refusal is raised with a fixed hint.  The
literals were captured from the implementation this file was written
against; a change to any of them is a change to the wire format.
"""

from __future__ import annotations

import itertools
import json

import pytest

from repro.serve import create_app
from repro.serve.loadgen import call_app
from repro.serve.tenancy import TenancyConfig, TenantGate

#: 40 s into a 60 s tenant window: a refused tenant retries in 20 s.
FIXED_NOW = 1000.0

TENANTS = {
    "window_s": 60,
    "tiers": {
        "free": {"requests_per_window": 1, "burst": 0,
                 "sweep_submissions_per_window": 0},
        "standard": {"requests_per_window": 1000, "burst": 0},
    },
    "keys": {"sk-steady": {"tenant": "steady", "tier": "standard"}},
}

SPEC = json.dumps({"slugs": ["findsmallestcard"], "sizes": [4],
                   "seeds": [0]}).encode("utf-8")

#: A search no activity matches: a small, cacheable JSON body with an ETag.
NO_HITS = "/api/search?q=zzqxv"


def exchange(app, method: str, path: str,
             headers: dict[str, str] | None = None,
             body: bytes | None = None) -> tuple[str, list, bytes]:
    """One in-process call: status line, header list in order, body."""
    seen = {}

    def recording(environ, start_response):
        def capture(status_line, header_list):
            seen["status"], seen["headers"] = status_line, list(header_list)
            return start_response(status_line, header_list)
        return app(environ, capture)

    response = call_app(recording, path, method=method, headers=headers,
                        body=body)
    return seen["status"], seen["headers"], response.body


def counts(app) -> dict[str, int]:
    """The ``/api/metrics`` counters the oracle pins, flattened."""
    snapshot = app.metrics.snapshot()
    flat = {f"resilience.{k}": v for k, v in snapshot["resilience"].items()}
    for key in ("hits", "misses", "not_modified"):
        flat[f"cache.{key}"] = snapshot["cache"][key]
    for route, stats in snapshot["routes"].items():
        flat[f"routes.{route}.requests"] = stats["requests"]
        flat[f"routes.{route}.errors"] = stats["errors"]
        for status, n in stats["statuses"].items():
            flat[f"routes.{route}.statuses.{status}"] = n
    for tenant, stats in snapshot["tenants"].items():
        for key in ("allowed", "limited", "sweep_limited", "shed"):
            flat[f"tenants.{tenant}.{key}"] = stats[key]
    return flat


def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    return {k: v - before.get(k, 0) for k, v in sorted(after.items())
            if v != before.get(k, 0)}


def fixed_gate(app) -> None:
    app.tenancy = TenantGate(TenancyConfig.load(TENANTS),
                             clock=lambda: FIXED_NOW)


def stepping_clock(step_s: float = 1e-3):
    ticks = itertools.count()
    return lambda: next(ticks) * step_s


# -- the cases ----------------------------------------------------------------
#
# Each case: create_app keyword arguments, a setup hook run on the fresh
# app (with pytest's monkeypatch), a list of warm-up requests whose
# responses are not pinned, and the requests whose responses are.


def _setup_none(app, monkeypatch):
    pass


def _setup_tenants(app, monkeypatch):
    fixed_gate(app)


def _setup_shed(app, monkeypatch):
    fixed_gate(app)
    assert app.shedder.try_acquire()        # the only slot is taken


def _setup_deadline(app, monkeypatch):
    monkeypatch.setattr(app, "_clock", stepping_clock())


def _setup_raise(app, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("dispatch exploded")
    monkeypatch.setattr(app, "_dispatch", boom)


def _setup_stale(app, monkeypatch):
    monkeypatch.setattr(app.rebuilder, "last_error",
                        "parse error in gardeners.md")


def _setup_not_ready(app, monkeypatch):
    monkeypatch.setattr(app, "local_readiness", lambda: {
        "catalog_loaded": False, "generation": "g0", "stale": False,
        "breaker": None, "shed_rate": 0.0, "ready": False})


def _setup_sweep_job(app, monkeypatch):
    monkeypatch.setattr(app.sweeps, "job", lambda job_id: object())


def _setup_sweep_full(app, monkeypatch):
    from repro.sweep import SweepRejected

    def reject(spec, tenant=None):
        raise SweepRejected(4, 4, retry_after_s=2.6)
    monkeypatch.setattr(app.sweeps, "submit", reject)


def _setup_no_sweeps(app, monkeypatch):
    app.sweeps.close()
    app.sweeps = None


HOT = {"X-Api-Key": "sk-hot"}
STEADY = {"X-Api-Key": "sk-steady"}

CASES = {
    "tenant-rate-429": (
        {}, _setup_tenants,
        [("GET", "/", HOT, None)],
        [("GET", "/", HOT, None)]),
    "tenant-sweep-quota-429": (
        {}, _setup_tenants, [],
        [("POST", "/api/sweeps", {"X-Api-Key": "sk-sweeper"}, SPEC)]),
    "shed-503-twice": (
        {"max_inflight": 1}, _setup_shed, [],
        [("GET", "/healthz", STEADY, None),
         ("GET", "/", STEADY, None)]),
    "put-405": (
        {}, _setup_none, [], [("PUT", "/", None, None)]),
    "delete-sweep-results-405": (
        {}, _setup_sweep_job, [],
        [("DELETE", "/api/sweeps/sweep-0001/results", None, None)]),
    "deadline-503": (
        {"request_timeout_ms": 1e-6, "cache_enabled": False},
        _setup_deadline, [], [("GET", "/", None, None)]),
    "degraded-503": (
        {"fault_spec": "render:error@1.0"}, _setup_none, [],
        [("GET", "/", None, None)]),
    "safety-net-500": (
        {}, _setup_raise, [], [("GET", "/", None, None)]),
    "stale-200": (
        {}, _setup_stale, [], [("GET", NO_HITS, None, None)]),
    "if-none-match-304": (
        {}, _setup_none, [("GET", NO_HITS, None, None)],
        [("GET", NO_HITS, {"If-None-Match": "<etag>"}, None)]),
    "head-200": (
        {}, _setup_none, [], [("HEAD", "/healthz", None, None)]),
    "head-429": (
        {}, _setup_tenants, [("HEAD", "/", HOT, None)],
        [("HEAD", "/", HOT, None)]),
    "trailing-slash-301": (
        {}, _setup_none, [],
        [("GET", "/activities/gardeners", None, None)]),
    "readyz-503": (
        {}, _setup_not_ready, [], [("GET", "/readyz", None, None)]),
    "sweep-capacity-429": (
        {}, _setup_sweep_full, [], [("POST", "/api/sweeps", None, SPEC)]),
    "sweeps-disabled-503": (
        {}, _setup_no_sweeps, [], [("GET", "/api/sweeps", None, None)]),
}


def run_case(name: str, monkeypatch) -> tuple[list, dict[str, int]]:
    """Run one case on a fresh app: pinned responses and counter deltas."""
    app_kwargs, setup, warmup, requests = CASES[name]
    app = create_app(watch=False, **app_kwargs)
    try:
        setup(app, monkeypatch)
        etag = None
        for method, path, headers, body in warmup:
            _, header_list, _ = exchange(app, method, path, headers, body)
            etag = dict(header_list).get("ETag", etag)
        before = counts(app)
        responses = []
        for method, path, headers, body in requests:
            if headers and headers.get("If-None-Match") == "<etag>":
                headers = {"If-None-Match": etag}
            responses.append(exchange(app, method, path, headers, body))
        return responses, delta(before, counts(app))
    finally:
        app.close()


# -- the frozen literals ------------------------------------------------------

ORACLE: dict[str, tuple[list, dict[str, int]]] = {
    "deadline-503": (
        [("503 Service Unavailable",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "91"),
           ("Retry-After", "1")],
          b'{\n  "error": "deadline exceeded at render-start: 1.0 ms > 0.0'
          b' ms budget",\n  "status": 503\n}')],
        {"resilience.deadline_expired": 1,
         "routes.<deadline>.errors": 1,
         "routes.<deadline>.requests": 1,
         "routes.<deadline>.statuses.503": 1}),
    "degraded-503": (
        [("503 Service Unavailable",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "120"),
           ("Retry-After", "1")],
          b'{\n  "error": "temporarily degraded: gave up after 2 attempt(s'
          b'): InjectedFault: injected render fault",\n  "status": 503\n}')],
        {"resilience.degraded": 1,
         "routes.<degraded>.errors": 1,
         "routes.<degraded>.requests": 1,
         "routes.<degraded>.statuses.503": 1}),
    "delete-sweep-results-405": (
        [("405 Method Not Allowed",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "68")],
          b'{\n  "error": "DELETE applies to /api/sweeps/<id>",\n  "status'
          b'": 405\n}')],
        {"routes./api/sweeps/<id>.errors": 1,
         "routes./api/sweeps/<id>.requests": 1,
         "routes./api/sweeps/<id>.statuses.405": 1}),
    "head-200": (
        [("200 OK",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "0")],
          b'')],
        {"routes./healthz.requests": 1,
         "routes./healthz.statuses.200": 1}),
    "head-429": (
        [("429 Too Many Requests",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "0"),
           ("Retry-After", "20")],
          b'')],
        {"resilience.rate_limited": 1,
         "routes.<rate-limited>.errors": 1,
         "routes.<rate-limited>.requests": 1,
         "routes.<rate-limited>.statuses.429": 1,
         "tenants.sk-hot.limited": 1}),
    "if-none-match-304": (
        [("304 Not Modified",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "0"),
           ("ETag", "\"04bb90c1ab1d15cd2faf48e8\""),
           ("X-Cache", "miss")],
          b'')],
        {"cache.misses": 1,
         "cache.not_modified": 1,
         "routes./api/search.requests": 1,
         "routes./api/search.statuses.304": 1}),
    "put-405": (
        [("405 Method Not Allowed",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "56")],
          b'{\n  "error": "method PUT not allowed",\n  "status": 405\n}')],
        {"routes.<method-not-allowed>.errors": 1,
         "routes.<method-not-allowed>.requests": 1,
         "routes.<method-not-allowed>.statuses.405": 1}),
    "readyz-503": (
        [("503 Service Unavailable",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "126"),
           ("Retry-After", "1")],
          b'{\n  "breaker": null,\n  "catalog_loaded": false,\n  "generati'
          b'on": "g0",\n  "ready": false,\n  "shed_rate": 0.0,\n  "stale":'
          b' false\n}')],
        {"routes./readyz.errors": 1,
         "routes./readyz.requests": 1,
         "routes./readyz.statuses.503": 1}),
    "safety-net-500": (
        [("500 Internal Server Error",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "62")],
          b'{\n  "error": "internal error: RuntimeError",\n  "status": 500'
          b'\n}')],
        {"routes.<error>.errors": 1,
         "routes.<error>.requests": 1,
         "routes.<error>.statuses.500": 1}),
    "shed-503-twice": (
        [("503 Service Unavailable",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "69"),
           ("Retry-After", "1")],
          b'{\n  "error": "server over capacity, retry shortly",\n  "statu'
          b's": 503\n}'),
         ("503 Service Unavailable",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "69"),
           ("Retry-After", "2")],
          b'{\n  "error": "server over capacity, retry shortly",\n  "statu'
          b's": 503\n}')],
        {"resilience.shed": 2,
         "routes.<shed>.errors": 2,
         "routes.<shed>.requests": 2,
         "routes.<shed>.statuses.503": 2,
         "tenants.steady.shed": 1}),
    "stale-200": (
        [("200 OK",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "50"),
           ("ETag", "\"04bb90c1ab1d15cd2faf48e8\""),
           ("X-Cache", "miss"),
           ("Warning", "110 pdcunplugged \"Response is stale\""),
           ("X-Stale", "1")],
          b'{\n  "count": 0,\n  "hits": [],\n  "query": "zzqxv"\n}')],
        {"cache.misses": 1,
         "resilience.stale_served": 1,
         "routes./api/search.requests": 1,
         "routes./api/search.statuses.200": 1}),
    "sweep-capacity-429": (
        [("429 Too Many Requests",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "89"),
           ("Retry-After", "3")],
          b'{\n  "error": "sweep capacity reached (4/4 jobs active), retry'
          b' shortly",\n  "status": 429\n}')],
        {"routes./api/sweeps.errors": 1,
         "routes./api/sweeps.requests": 1,
         "routes./api/sweeps.statuses.429": 1}),
    "sweeps-disabled-503": (
        [("503 Service Unavailable",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "88")],
          b'{\n  "error": "sweep service not enabled (start with --sweep-w'
          b'orkers)",\n  "status": 503\n}')],
        {"routes./api/sweeps.errors": 1,
         "routes./api/sweeps.requests": 1,
         "routes./api/sweeps.statuses.503": 1}),
    "tenant-rate-429": (
        [("429 Too Many Requests",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "119"),
           ("Retry-After", "20")],
          b'{\n  "error": "rate limit exceeded for this key, retry later",'
          b'\n  "status": 429,\n  "tenant": "sk-hot",\n  "tier": "free"\n}')],
        {"resilience.rate_limited": 1,
         "routes.<rate-limited>.errors": 1,
         "routes.<rate-limited>.requests": 1,
         "routes.<rate-limited>.statuses.429": 1,
         "tenants.sk-hot.limited": 1}),
    "tenant-sweep-quota-429": (
        [("429 Too Many Requests",
          [("Content-Type", "application/json; charset=utf-8"),
           ("Content-Length", "126"),
           ("Retry-After", "20")],
          b'{\n  "error": "sweep submission quota exhausted for this windo'
          b'w",\n  "status": 429,\n  "tenant": "sk-sweeper",\n  "tier": "f'
          b'ree"\n}')],
        {"resilience.rate_limited": 1,
         "routes.<rate-limited>.errors": 1,
         "routes.<rate-limited>.requests": 1,
         "routes.<rate-limited>.statuses.429": 1,
         "tenants.sk-sweeper.sweep_limited": 1}),
    "trailing-slash-301": (
        [("301 Moved Permanently",
          [("Content-Type", "text/html; charset=utf-8"),
           ("Content-Length", "0"),
           ("Location", "/activities/gardeners/")],
          b'')],
        {"routes.<redirect>.requests": 1,
         "routes.<redirect>.statuses.301": 1}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_refusal_bytes_and_counters_are_frozen(name, monkeypatch):
    responses, deltas = run_case(name, monkeypatch)
    expected_responses, expected_deltas = ORACLE[name]
    assert responses == expected_responses
    assert deltas == expected_deltas


def test_every_case_has_an_oracle():
    assert sorted(ORACLE) == sorted(CASES)
