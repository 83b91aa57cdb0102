"""``repro.serve``: the production serving layer.

Turns the one-shot static build into a live, queryable web service — the
form the paper's artifact (pdcunplugged.org) actually takes:

* :mod:`repro.serve.app` — stdlib WSGI app: rendered site + JSON API,
  request deadlines, stale marking, ``/healthz`` / ``/readyz``.
* :mod:`repro.serve.cache` — content-addressed LRU page cache (single
  mutex or lock-striped shards) with strong ETags and 304 revalidation.
* :mod:`repro.serve.persist` — on-disk page-cache spill keyed by
  render-plan signature, so restarts warm-start instead of
  re-rendering; every load path tolerates corruption.
* :mod:`repro.serve.workers` — bounded worker pool + pooled WSGI server
  (the ``--workers N`` mode); a bounded queue sheds with a raw 503.
* :mod:`repro.serve.prefork` — the ``--worker-model process`` mode: a
  supervisor binds once and forks N accepting worker processes, with
  cross-process metrics merging, generation coordination over a board +
  control sockets, and crash respawn with backoff.
* :mod:`repro.serve.rebuild` — content watching and incremental
  generation swaps (only dirty URLs are evicted / re-rendered; the
  search index is patched, not rebuilt); the rebuild thread every app
  refreshes through, off the request path.
* :mod:`repro.serve.resilience` — circuit breaker, request deadlines,
  load shedding: the degradation ladder.
* :mod:`repro.serve.faults` — deterministic, seedable fault injection
  (``--fault-spec``) so every failure path above is chaos-tested.
* :mod:`repro.serve.retrypolicy` — shared exponential-backoff retry
  schedule (also used by :mod:`repro.sitegen.linkcheck`).
* :mod:`repro.serve.metrics` — per-route counters, latency percentiles
  (to p99.9, via :mod:`repro.histogram`), cache hit ratios,
  breaker/shed/stale counters (``/api/metrics``); lock-striped per route.
* :mod:`repro.serve.loadgen` — deterministic Zipf + API-mix load
  generation, serial / concurrent in-process / over-HTTP runners, with
  shed-rate / limited-rate / stale-hit accounting, multi-tenant
  key mixes, and ``Retry-After``-honoring retries.
* :mod:`repro.serve.tenancy` — the multi-tenant admission edge
  (``--tenants``): API-key resolution, sliding-window per-tenant rate
  limits with free/standard/unlimited tiers, per-tier sweep quotas,
  and fleet-wide window reconciliation over the control sockets.

The package namespace re-exports only what callers import from it: app
construction, the load runners, the fault-spec parser, and ``run`` (the
CLI's ``serve`` entry).  Everything else comes from its submodule.
"""

from repro.serve.app import ServeApp, create_app, create_server, run
from repro.serve.faults import parse_fault_spec
from repro.serve.loadgen import (
    LoadGenerator,
    call_app,
    run_load,
    run_load_concurrent,
    run_load_http,
)

__all__ = [
    "LoadGenerator",
    "ServeApp",
    "call_app",
    "create_app",
    "create_server",
    "parse_fault_spec",
    "run",
    "run_load",
    "run_load_concurrent",
    "run_load_http",
]
