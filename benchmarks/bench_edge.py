"""EXPERIMENT S-EDGE -- the admission edge must be (nearly) free.

The multi-tenant limiter sits in front of EVERY request, so it only
earns its place if (a) the admission decision itself costs microseconds
and (b) refusing an over-budget tenant is far cheaper than serving it —
that asymmetry is the entire mechanism by which one hot tenant stops
hurting everyone else.

Two checks, both asserted (not just printed):

* **decision overhead** — mean ``TenantGate.admit`` latency over tens of
  thousands of calls stays under 500 microseconds (in practice it is a
  dict lookup and a couple of float ops under one lock);
* **rejection asymmetry** — answering a 429 at the edge is at least 10x
  cheaper than rendering the page it replaced (cache disabled, so the
  served path pays the full template render the limiter is protecting).
"""

from __future__ import annotations

import gc
import time

from repro.serve import create_app
from repro.serve.loadgen import call_app
from repro.serve.tenancy import TenancyConfig, TenantGate, TierPolicy

DECISIONS = 20_000
MAX_MEAN_DECISION_US = 500.0
MIN_REJECT_SPEEDUP = 10.0


def _gate(requests_per_window: int) -> TenantGate:
    config = TenancyConfig(
        tiers={"free": TierPolicy("free",
                                  requests_per_window=requests_per_window,
                                  burst=0, sweep_submissions_per_window=2)},
        window_s=3600.0, default_tier="free")
    return TenantGate(config)


def test_admission_decision_overhead_is_bounded():
    """Mean admit() cost, measured on both the allow and deny paths."""
    for label, gate in (("allow", _gate(DECISIONS * 2)), ("deny", _gate(1))):
        environ = {"PATH_INFO": "/", "REQUEST_METHOD": "GET",
                   "HTTP_X_API_KEY": "sk-bench"}
        gate.admit(environ)                 # burn the deny gate's budget
        gc.collect()
        started = time.perf_counter()
        for _ in range(DECISIONS):
            gate.admit(environ)
        mean_us = (time.perf_counter() - started) / DECISIONS * 1e6
        print(f"\n{label}: {mean_us:.1f}us mean over {DECISIONS:,} decisions")
        assert mean_us < MAX_MEAN_DECISION_US, (
            f"{label} path: {mean_us:.1f}us mean admission decision "
            f"(budget {MAX_MEAN_DECISION_US}us)")


def test_rejection_is_an_order_of_magnitude_cheaper_than_serving():
    """429s must cost a small fraction of the render they displace."""
    config = {
        "window_s": 3600,
        "tiers": {"free": {"requests_per_window": 50, "burst": 0}},
    }
    app = create_app(watch=False, cache_enabled=False, tenants=config)
    try:
        headers = {"X-Api-Key": "sk-bench"}
        # The page an abusive client would hammer: a full view render
        # (the curriculum cross-reference tables), the heaviest class of
        # page the limiter is protecting.  Cache off: every 200 pays it.
        views = [task.url for task in app.state.plan
                 if task.url.startswith("/views/")]
        target = views[0] if views else "/"

        # A gen-2 collection of an earlier module's heap landing inside a
        # timed loop is not the edge's cost: collect before each loop.
        gc.collect()
        served = 0
        served_started = time.perf_counter()
        while served < 40:
            response = call_app(app, target, headers=headers)
            assert response.status == 200
            served += 1
        served_mean_s = (time.perf_counter() - served_started) / served

        # Burn whatever budget remains, then measure pure rejections.
        while call_app(app, target, headers=headers).status != 429:
            pass
        gc.collect()
        rejected = 0
        rejected_started = time.perf_counter()
        while rejected < 400:
            response = call_app(app, target, headers=headers)
            assert response.status == 429
            rejected += 1
        rejected_mean_s = (time.perf_counter() - rejected_started) / rejected

        speedup = served_mean_s / rejected_mean_s
        print(f"\nserved {served_mean_s * 1e3:.2f}ms vs "
              f"rejected {rejected_mean_s * 1e3:.3f}ms per request "
              f"({speedup:.0f}x)")
        assert speedup >= MIN_REJECT_SPEEDUP, (
            f"rejection only {speedup:.1f}x cheaper than serving "
            f"(need >= {MIN_REJECT_SPEEDUP}x)")
    finally:
        app.close()
