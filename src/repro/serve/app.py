"""The PDCunplugged WSGI application.

Serves the rendered site (every URL in the :meth:`Site.render_plan`) plus a
JSON query API over the same engines the paper's evaluation uses:

* ``GET /``, ``/activities/<slug>/``, ``/<taxonomy>/``,
  ``/<taxonomy>/<term>/``, ``/views/<view>/`` — rendered HTML, served
  through the content-addressed LRU cache with strong ETags and
  ``If-None-Match``/304 revalidation,
* ``GET /api/activities`` — the corpus as JSON,
* ``GET /api/search?q=…&limit=…`` — TF-IDF ranked full-text search,
* ``GET /api/coverage/cs2013`` and ``/api/coverage/tcpp`` — Tables I/II,
* ``GET /api/gaps`` — the §III-E gap report,
* ``GET /api/simulate/<slug>?n=…&seed=…`` — run a classroom simulation,
* ``POST /api/sweeps`` + ``GET /api/sweeps/<id>[/results|/compare]`` —
  batch parameter-sweep jobs over the simulations (the
  :mod:`repro.sweep` plane: multiprocessing pool, content-addressed
  result store, speedup/efficiency comparison),
* ``GET /api/metrics`` — request counters, latency percentiles, cache
  hit ratio (with per-shard stats and lock wait), worker-pool gauges,
  rebuild counters, sweep counters,
* ``GET /api/lint`` — the :mod:`repro.lint` content and site report for
  the served corpus, recomputed when the corpus generation changes.

Pure stdlib (``wsgiref``), no new runtime dependencies.  Content changes
are picked up off the request path by the app's one
:class:`~repro.serve.rebuild.BackgroundRebuilder`, whose successful
rebuilds evict exactly the dirty URLs from the cache.

Concurrency: ``create_server(workers=N)`` services connections on a
:class:`~repro.serve.workers.WorkerPool`, the default page cache is
lock-striped (:class:`~repro.serve.cache.ShardedPageCache`), and passing
``cache_dir=`` enables persistent warm starts — rendered bodies spill to
disk keyed by render-plan signature and reload on boot, so a restarted
server answers its first requests from cache instead of re-rendering.

Failure model: every request takes one path, :meth:`ServeApp.__call__`,
which reads the clock once and runs a flat ladder in this order:

1. **tenant** — the optional multi-tenant edge (``tenants=``,
   :mod:`repro.serve.tenancy`): a key over its sliding-window rate limit
   or sweep quota gets ``429 + Retry-After`` before it touches anything;
2. **shed** — past the in-flight watermark (``max_inflight``): ``503 +
   Retry-After``, answered cheaply;
3. **method** — anything but ``GET``/``HEAD`` (or ``POST``/``DELETE`` on
   ``/api/sweeps``): ``405``;
4. **dispatch** — over the per-request budget (``request_timeout_ms``) or
   a render that failed even after retries: ``503 + Retry-After``; any
   other exception: ``500``.

A ``200`` served while the rebuild pipeline is failing (or its circuit
breaker is open) comes from the last good generation and carries
``Warning: 110`` and ``X-Stale``.

``/healthz`` (liveness) and ``/readyz`` (readiness: catalog loaded,
breaker state, shed rate) expose the ladder to orchestrators, and
``/api/metrics`` carries every counter behind it.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from http import HTTPStatus
from typing import TYPE_CHECKING
from urllib.parse import parse_qs
from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

from repro import sanitize
from repro.serve.cache import PageCache, ShardedPageCache, make_etag
from repro.serve.faults import InjectedFault, parse_fault_spec
from repro.serve.metrics import MetricsRegistry
from repro.serve.persist import CacheStore
from repro.serve.rebuild import BackgroundRebuilder, RebuildManager
from repro.serve.resilience import (OPEN, CircuitBreaker, Deadline,
                                    DeadlineExceeded, LoadShedder,
                                    bounded_retry_after)
from repro.serve.retrypolicy import RetryError, RetryPolicy
from repro.serve.tenancy import TenancyConfig, TenantGate
from repro.serve.workers import PooledWSGIServer, WorkerPool

# NOTE: repro.sweep imports repro.serve primitives (faults, resilience,
# retry), so the sweep plane is imported lazily inside the handlers and
# create_app to keep the package import graph acyclic.
if TYPE_CHECKING:
    from repro.sweep import SweepManager

__all__ = ["ServeApp", "Response", "create_app", "create_server", "run"]

#: Warning header on responses served from a generation the rebuild
#: pipeline could not refresh (RFC 7234 §5.5: 110 = "Response is Stale").
STALE_WARNING = '110 pdcunplugged "Response is stale"'

#: Routes whose responses depend only on the corpus generation — safe to
#: cache and bulk-invalidated on every rebuild.
_CACHEABLE_API = ("/api/activities", "/api/search", "/api/coverage", "/api/gaps")

#: Maximum classroom size accepted by ``/api/simulate`` (keeps a single
#: request's CPU bounded).
MAX_SIM_STUDENTS = 200

#: Maximum ``POST /api/sweeps`` body size (a spec is small; anything
#: bigger is a mistake, refused with 413 before parsing).
MAX_SWEEP_BODY = 1 << 20


def _json_body(payload: object) -> bytes:
    """The one encoder for every JSON body, live or cached."""
    return json.dumps(payload, indent=2, sort_keys=True,
                      default=str).encode("utf-8")


@dataclass
class Response:
    """One materialized HTTP response plus its metrics labels."""

    status: int
    body: bytes = b""
    content_type: str = "text/html; charset=utf-8"
    etag: str | None = None
    route: str = "<unmatched>"
    cache_status: str | None = None      # "hit" | "miss" | None (uncacheable)
    headers: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def json(cls, payload: object, status: int = 200, route: str = "<unmatched>",
             retry_after: int | None = None, **kwargs) -> "Response":
        response = cls(status=status, body=_json_body(payload),
                       content_type="application/json; charset=utf-8",
                       route=route, **kwargs)
        if retry_after is not None:
            response.headers.append(("Retry-After", str(retry_after)))
        return response

    @classmethod
    def error(cls, status: int, message: str, route: str = "<unmatched>",
              retry_after: int | None = None, **extra) -> "Response":
        return cls.json({"error": message, "status": status, **extra},
                        status=status, route=route, retry_after=retry_after)


class ServeApp:
    """WSGI callable: routing, caching, conditional requests, metrics."""

    def __init__(
        self,
        background: BackgroundRebuilder,
        cache: PageCache | ShardedPageCache | None = None,
        metrics: MetricsRegistry | None = None,
        store: CacheStore | None = None,
        clock=time.perf_counter,
        faults=None,
        request_timeout_ms: float | None = None,
        shedder: LoadShedder | None = None,
        retry: RetryPolicy | None = None,
        sweeps: SweepManager | None = None,
        tenancy: TenantGate | None = None,
    ):
        # The one rebuild pipeline: every successful rebuild, from the
        # thread or from run_once(), evicts through on_rebuild.
        self.background = background
        background.on_result = self.on_rebuild
        self.rebuilder = background.manager
        self.cache = cache
        self.metrics = metrics or MetricsRegistry()
        self.store = store
        self.faults = faults
        self.request_timeout_ms = request_timeout_ms
        self.shedder = shedder
        self.retry = retry
        self.sweeps = sweeps
        self.tenancy = tenancy
        self.warm_loaded = 0
        self.worker_pool: WorkerPool | None = None
        # Set by the pre-fork worker bootstrap: this app's view of its
        # process fleet.  Presence switches /api/metrics and /readyz
        # into fleet-wide mode (merged registries, all-workers-warm).
        self.fleet = None
        self._clock = clock
        # /api/lint engine and report cache (corpus signature, payload).
        # Guarded by _lint_lock; the lint run itself happens outside it.
        self._lint_lock = threading.Lock()
        # Held only to create the engine or swap the cached payload
        # reference — default budget is fine.
        sanitize.register_lock(self, "_lint_lock", "ServeApp._lint_lock")
        self._lint_engine = None
        self._lint_payload: dict | None = None
        self._lint_signature: str | None = None

    @property
    def state(self):
        return self.rebuilder.state

    # -- persistence -------------------------------------------------------

    def cache_signature(self, path: str) -> str | None:
        """The render-plan signature a cached ``path`` was produced under.

        Rendered pages carry their own task signature; corpus-derived API
        responses (including ``/api/search?…`` variants) carry the whole
        generation's signature.  ``None`` marks the path unpersistable.
        """
        task = self.state.plan_by_url.get(path)
        if task is not None:
            return task.signature
        base = path.partition("?")[0]
        if base in _CACHEABLE_API or any(
                base.startswith(prefix + "/") for prefix in _CACHEABLE_API):
            return self.state.corpus_signature
        return None

    def warm_start(self) -> int:
        """Reload persisted cache entries whose signatures still match."""
        if self.store is None or self.cache is None:
            return 0
        # Boot-time only: warm_start runs before create_server exposes the
        # app to any worker thread, so this write cannot race.
        self.warm_loaded = self.store.warm_load(  # lint: disable=serve-unlocked-write
            self.cache, self.cache_signature)
        return self.warm_loaded

    def save_cache(self) -> int:
        """Spill the live page cache (no-op without a store or cache)."""
        if self.store is None or self.cache is None:
            return 0
        return self.store.save(self.cache, self.cache_signature)

    def close(self) -> None:
        """Stop background work: the rebuild thread and the sweep plane."""
        self.background.stop()
        # on_result is this app's bound method: dropping it breaks the
        # app <-> rebuilder cycle, so a closed app is freed as soon as
        # its last reference goes, not at the next cyclic collection.
        self.background.on_result = None
        if self.sweeps is not None:
            self.sweeps.close()

    # -- WSGI entry point --------------------------------------------------

    def __call__(self, environ, start_response):
        """The one request path: the module docstring's ladder, in order.

        The clock is read once, here, so every answer's latency covers
        the whole ladder, and every answer leaves through :meth:`_finish`.
        """
        started = self._clock()
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO") or "/"
        decision = None
        if self.tenancy is not None:
            decision = environ["repro.tenant"] = self.tenancy.admit(environ)
        outcome = "allowed"             # the tenant's edge outcome
        shedder, admitted = self.shedder, False
        try:
            if decision is not None and not decision.allowed:
                # Refused before the shedder, the cache, any render or a
                # worker thread: rejection costs a dict lookup and a counter.
                quota = decision.reason == "sweep-quota"
                outcome = "sweep_limited" if quota else "limited"
                response = Response.error(
                    429, "sweep submission quota exhausted for this window"
                    if quota else "rate limit exceeded for this key, retry later",
                    route="<rate-limited>", retry_after=decision.retry_after,
                    tenant=decision.tenant, tier=decision.tier)
            elif shedder is not None and not (admitted := shedder.try_acquire()):
                # Refusing must stay cheap: no rebuild check, no dispatch.
                self.metrics.record_shed()
                outcome = "shed"
                response = Response.error(
                    503, "server over capacity, retry shortly", route="<shed>",
                    retry_after=shedder.retry_after())
            else:
                deadline = None
                if self.request_timeout_ms is not None:
                    deadline = Deadline(self.request_timeout_ms / 1e3,
                                        clock=self._clock)
                is_sweep = path == "/api/sweeps" or path.startswith("/api/sweeps/")
                if method not in ("GET", "HEAD") and not (
                        is_sweep and method in ("POST", "DELETE")):
                    response = Response.error(405, f"method {method} not allowed",
                                              route="<method-not-allowed>")
                elif is_sweep:
                    response = self._api_sweeps(method, path, environ)
                else:
                    response = self._dispatch(
                        path, parse_qs(environ.get("QUERY_STRING", "")), deadline)
        except DeadlineExceeded as exc:
            self.metrics.record_deadline_expired()
            response = Response.error(
                503, str(exc), route="<deadline>",
                retry_after=shedder.retry_after() if shedder is not None else 1)
        except (RetryError, InjectedFault) as exc:
            # Render failed even after retries: degrade honestly with a
            # retryable 503, priced like a shed, never an unhandled 500.
            self.metrics.record_degraded()
            response = Response.error(
                503, f"temporarily degraded: {exc}", route="<degraded>",
                retry_after=shedder.retry_after() if shedder is not None else 1)
        except Exception as exc:            # the safety net
            # The client learns only the type; the server's error stream
            # (PEP 3333 ``wsgi.errors``) gets the message and traceback.
            traceback.print_exc(file=environ.get("wsgi.errors", sys.stderr))
            response = Response.error(
                500, f"internal error: {type(exc).__name__}", route="<error>")
        finally:
            if admitted:
                shedder.release()
        return self._finish(environ, start_response, response, started,
                            outcome)

    def _finish(self, environ, start_response, response: Response, started,
                outcome: str):
        if response.status == 200 and self.background.stale:
            response.headers.append(("Warning", STALE_WARNING))
            response.headers.append(("X-Stale", "1"))
            self.metrics.record_stale_served()

        inm = environ.get("HTTP_IF_NONE_MATCH")
        if (response.status == 200 and response.etag
                and inm and response.etag in [t.strip() for t in inm.split(",")]):
            response.status = 304

        elapsed = self._clock() - started
        self.metrics.record_request(
            response.route, response.status, elapsed, response.cache_status)
        decision = environ.get("repro.tenant")
        if decision is not None and not decision.exempt:
            self.metrics.record_tenant(decision.tenant, outcome,
                                       response.status, elapsed)

        status_line = f"{response.status} {HTTPStatus(response.status).phrase}"
        method = environ.get("REQUEST_METHOD", "GET").upper()
        body = b"" if method == "HEAD" or response.status == 304 else response.body
        headers = [("Content-Type", response.content_type),
                   ("Content-Length", str(len(body)))]
        if response.etag:
            headers.append(("ETag", response.etag))
        if response.cache_status:
            headers.append(("X-Cache", response.cache_status))
        headers.extend(response.headers)
        start_response(status_line, headers)
        return [body]

    def on_rebuild(self, result) -> None:
        """Account a successful rebuild and evict exactly its dirty URLs."""
        self.metrics.record_rebuild(len(result.dirty_urls))
        if self.cache is not None:
            self.cache.invalidate(result.dirty_urls)
            self.cache.invalidate(_CACHEABLE_API)
        if self.fleet is not None:
            # Publish the new generation to the board and poke peers so
            # every process in the fleet swaps without a restart.
            self.fleet.publish_generation(
                result.generation or self.state.corpus_signature)

    # -- routing -----------------------------------------------------------

    def _dispatch(self, path: str, query: dict[str, list[str]],
                  deadline: Deadline | None = None) -> Response:
        if path == "/healthz":
            # Liveness: the process answers, nothing else is implied.
            return Response.json({"status": "ok"}, route="/healthz")
        if path == "/readyz":
            return self._readyz()
        if path.startswith("/api/"):
            return self._dispatch_api(path, query, deadline)

        task = self.state.plan_by_url.get(path)
        if task is not None:
            return self._serve_rendered(path, f"page:{task.kind}",
                                        deadline=deadline)
        if not path.endswith("/") and path + "/" in self.state.plan_by_url:
            return Response(status=301, route="<redirect>",
                            headers=[("Location", path + "/")])
        return Response.error(404, f"no page at {path!r}", route="<unmatched>")

    def local_readiness(self) -> dict:
        """This process's readiness: catalog loaded, breaker not open.

        Also the payload a worker's control socket answers for ``ready``
        queries — it must stay strictly local (no fleet fan-out), or two
        workers asking each other would recurse forever.
        """
        breaker_state = self.background.breaker.state
        payload = {
            "catalog_loaded": len(self.state.catalog) > 0,
            "generation": self.state.corpus_signature,
            "stale": self.background.stale,
            "breaker": breaker_state,
            "shed_rate": (round(self.shedder.shed_rate(), 4)
                          if self.shedder is not None else 0.0),
        }
        payload["ready"] = payload["catalog_loaded"] and breaker_state != OPEN
        return payload

    def _readyz(self) -> Response:
        """Readiness; in a process fleet, false until *all* workers warm."""
        payload = self.local_readiness()
        ready = payload["ready"]
        if self.fleet is not None:
            fleet_ready, fleet_info = self.fleet.fleet_status(ready)
            payload["fleet"] = fleet_info
            ready = ready and fleet_ready
            payload["ready"] = ready
        return Response.json(payload, status=200 if ready else 503,
                             route="/readyz", retry_after=None if ready else 1)

    def _render_guarded(self, render):
        """Run a render with fault injection and transient-error retry."""
        def attempt():
            if self.faults is not None:
                self.faults.maybe_fail("render")
            return render()
        if self.retry is None:
            return attempt()
        return self.retry.call(attempt, sleep=None)

    def _serve_rendered(self, path: str, route: str,
                        render=None, content_type: str = "text/html; charset=utf-8",
                        cache_key: str | None = None,
                        deadline: Deadline | None = None) -> Response:
        """Serve a renderable through the cache with a strong ETag.

        The deadline is checked at the stage edges: before starting a
        render (don't start work the budget cannot pay for) and after it
        returns — the finished body still lands in the cache first, so an
        over-budget render is not wasted, but the request that paid for
        it reports 503 honestly.  The miss fill is gated: a query-string
        key is stored on its second miss (see :meth:`PageCache.put`).
        """
        if render is None:
            task = self.state.plan_by_url[path]
            render = lambda: task.render().encode("utf-8")  # noqa: E731
        key = cache_key or path
        cache = self.cache
        if cache is not None:
            entry = cache.get(key)
            if entry is not None:
                return Response(status=200, body=entry.body,
                                content_type=entry.content_type,
                                etag=entry.etag, route=route, cache_status="hit")
        if deadline is not None:
            deadline.check("render-start")
        body = self._render_guarded(render)
        if cache is not None:
            etag = cache.put(key, body, content_type, gated=True).etag
        else:
            etag = make_etag(body)
        if deadline is not None:
            deadline.check("render")
        return Response(status=200, body=body, content_type=content_type,
                        etag=etag, route=route,
                        cache_status="miss" if cache is not None else None)

    # -- API ---------------------------------------------------------------

    def _dispatch_api(self, path: str, query: dict[str, list[str]],
                      deadline: Deadline | None = None) -> Response:
        if path == "/api/activities":
            return self._api_cached(path, self._activities_payload,
                                    deadline=deadline)
        if path == "/api/search":
            return self._api_search(query, deadline)
        if path in ("/api/coverage/cs2013", "/api/coverage/tcpp"):
            standard = path.rsplit("/", 1)[1]
            return self._api_cached(
                path, lambda: self._coverage_payload(standard),
                route=f"/api/coverage/{standard}", deadline=deadline)
        if path == "/api/gaps":
            return self._api_cached(path, self._gaps_payload, deadline=deadline)
        if path.startswith("/api/simulate/"):
            return self._api_simulate(path[len("/api/simulate/"):], query)
        if path == "/api/metrics":
            return self._api_metrics()
        if path == "/api/lint":
            return self._api_lint(query)
        return Response.error(404, f"unknown API route {path!r}", route="<unmatched>")

    def _api_cached(self, key: str, payload, route: str | None = None,
                    deadline: Deadline | None = None) -> Response:
        """A JSON endpoint whose body only changes when the corpus does."""
        route = route or key
        return self._serve_rendered(
            key, route, render=lambda: _json_body(payload()),
            content_type="application/json; charset=utf-8", cache_key=key,
            deadline=deadline)

    def _activities_payload(self) -> dict:
        from repro.unplugged import SIMULATIONS

        return {
            "count": len(self.state.catalog),
            "activities": [
                {
                    "name": a.name,
                    "title": a.title,
                    "url": f"/activities/{a.name}/",
                    "date": a.date,
                    "courses": a.courses,
                    "cs2013": a.cs2013,
                    "tcpp": a.tcpp,
                    "senses": a.senses,
                    "medium": a.medium,
                    "has_simulation": a.name in SIMULATIONS,
                }
                for a in self.state.catalog
            ],
        }

    def _api_search(self, query: dict[str, list[str]],
                    deadline: Deadline | None = None) -> Response:
        route = "/api/search"
        q = " ".join(query.get("q", [])).strip()
        if not q:
            return Response.error(400, "missing query parameter 'q'", route=route)
        try:
            limit = int(query.get("limit", ["10"])[0])
        except ValueError:
            return Response.error(400, "limit must be an integer", route=route)
        limit = max(1, min(limit, 50))

        def payload():
            hits = self.state.search.search(q, limit=limit)
            return {
                "query": q,
                "count": len(hits),
                "hits": [
                    {
                        "name": h.name,
                        "title": h.title,
                        "score": round(h.score, 6),
                        "url": f"/activities/{h.name}/",
                        "matched_terms": list(h.matched_terms),
                    }
                    for h in hits
                ],
            }

        return self._api_cached(f"/api/search?q={q}&limit={limit}", payload,
                                route=route, deadline=deadline)

    def _coverage_payload(self, standard: str) -> dict:
        from repro.analytics import cs2013_coverage, tcpp_coverage

        if standard == "cs2013":
            rows = cs2013_coverage(self.state.catalog)
            table = [
                {
                    "term": r.term,
                    "name": r.display_name,
                    "outcomes": r.num_outcomes,
                    "covered": r.num_covered,
                    "percent": round(r.percent_coverage, 2),
                    "activities": r.total_activities,
                }
                for r in rows
            ]
        else:
            rows = tcpp_coverage(self.state.catalog)
            table = [
                {
                    "term": r.term,
                    "name": r.name,
                    "topics": r.num_topics,
                    "covered": r.num_covered,
                    "percent": round(r.percent_coverage, 2),
                    "activities": r.total_activities,
                }
                for r in rows
            ]
        return {"standard": standard, "rows": table}

    def _gaps_payload(self) -> dict:
        from repro.analytics import gap_report

        report = gap_report(self.state.catalog)
        return {
            "cs2013_gaps": report.cs2013_gaps,
            "tcpp_gaps": report.tcpp_gaps,
            "total_uncovered_outcomes": report.total_uncovered_outcomes,
            "total_uncovered_topics": report.total_uncovered_topics,
            "empty_categories": report.empty_categories,
            "units_below_tier_targets": report.units_below_tier_targets,
            "sparse_senses": report.sparse_senses,
            "activities_without_assessment": report.activities_without_assessment,
        }

    def _api_simulate(self, slug: str, query: dict[str, list[str]]) -> Response:
        from repro.unplugged import SIMULATIONS, Classroom

        route = "/api/simulate/<slug>"
        slug = slug.rstrip("/")
        if slug not in SIMULATIONS:
            return Response.error(
                404, f"no simulation for {slug!r}", route=route,
                available=sorted(SIMULATIONS))
        try:
            students = int(query.get("n", ["16"])[0])
            seed = int(query.get("seed", ["0"])[0])
        except ValueError:
            return Response.error(400, "n and seed must be integers", route=route)
        if not 2 <= students <= MAX_SIM_STUDENTS:
            return Response.error(
                400, f"n must be between 2 and {MAX_SIM_STUDENTS}", route=route)

        try:
            classroom = Classroom(size=students, seed=seed,
                                  step_time_jitter=0.2)
            result = SIMULATIONS[slug](classroom)
        except Exception as exc:  # noqa: BLE001 - map sim failures to 422
            # A simulation blowing up mid-run is a property of the
            # requested (slug, n, seed), not a server fault: answer a
            # structured 422, never an opaque 500.
            return Response.error(
                422, f"simulation {slug!r} failed: {exc}", route=route,
                slug=slug, n=students, seed=seed,
                exception=type(exc).__name__)
        return Response.json(
            {
                "activity": result.activity,
                "slug": slug,
                "classroom_size": result.classroom_size,
                "seed": seed,
                "metrics": result.metrics,
                "checks": result.checks,
                "all_checks_pass": result.all_checks_pass,
                "trace_events": len(result.trace),
            },
            route=route,
        )

    # -- sweeps (the batch plane) ------------------------------------------

    def _api_sweeps(self, method: str, path: str, environ) -> Response:
        """Route ``/api/sweeps[/<id>[/results|/compare]]``.

        The batch plane is admission-controlled separately from the
        request plane: the :class:`~repro.sweep.manager.SweepManager`
        sheds submissions past ``max_active_jobs`` with ``429 +
        Retry-After`` (the request-plane shedder still fronts every call
        here, so batch traffic cannot starve interactive requests).
        """
        route = "/api/sweeps"
        if self.sweeps is None:
            return Response.error(
                503, "sweep service not enabled (start with --sweep-workers)",
                route=route)
        parts = [p for p in path[len("/api/sweeps"):].split("/") if p]
        if not parts:
            if method == "POST":
                return self._sweep_submit(environ)
            return Response.json(
                {"jobs": [job.progress() for job in self.sweeps.jobs()]},
                route=route)
        job = self.sweeps.job(parts[0])
        if job is None:
            return Response.error(404, f"no sweep job {parts[0]!r}",
                                  route="/api/sweeps/<id>")
        if len(parts) == 1:
            if method == "DELETE":
                accepted = job.cancel()
                payload = job.progress()
                payload["cancel_accepted"] = accepted
                return Response.json(payload, route="/api/sweeps/<id>")
            return Response.json(job.progress(), route="/api/sweeps/<id>")
        if method == "DELETE":
            return Response.error(405, "DELETE applies to /api/sweeps/<id>",
                                  route="/api/sweeps/<id>")
        if parts[1:] == ["results"]:
            return Response.json(
                {"job": job.progress(), "results": job.results()},
                route="/api/sweeps/<id>/results")
        if parts[1:] == ["compare"]:
            from repro.sweep import compare

            return Response.json(
                {"job": job.progress(), "compare": compare(job.results())},
                route="/api/sweeps/<id>/compare")
        return Response.error(
            404, f"unknown sweep route {path!r}", route="<unmatched>")

    def _sweep_submit(self, environ) -> Response:
        from repro.sweep import SweepRejected, SweepSpec, SweepSpecError

        route = "/api/sweeps"
        try:
            length = int(environ.get("CONTENT_LENGTH") or 0)
        except ValueError:
            length = 0
        if length > MAX_SWEEP_BODY:
            return Response.error(413, "sweep spec too large", route=route)
        body = environ["wsgi.input"].read(length) if length > 0 else b""
        try:
            payload = json.loads(body or b"null")
        except ValueError:
            return Response.error(400, "request body is not valid JSON",
                                  route=route)
        try:
            spec = SweepSpec.parse(payload)
        except SweepSpecError as exc:
            return Response.error(422, str(exc), route=route)
        decision = environ.get("repro.tenant")
        tenant = decision.tenant if decision is not None else None
        try:
            job = self.sweeps.submit(spec, tenant=tenant)
        except SweepRejected as exc:
            return Response.error(
                429, str(exc), route=route,
                retry_after=bounded_retry_after(exc.retry_after_s))
        accepted = job.progress()
        accepted["spec"] = spec.canonical()
        return Response.json(accepted, status=202, route=route)

    def metrics_extras(self, shards: bool = False) -> dict:
        """Per-process sections riding alongside the mergeable export.

        In a process fleet, these appear under each worker's entry in
        ``fleet.per_worker`` — page caches, pools, and resilience state
        are genuinely per process and must not be summed.  The per-shard
        page-cache detail is too chatty for an N-worker breakdown, so
        only the local payload asks for it (``shards=True``).
        """
        page_cache = (self.cache.stats() if self.cache is not None
                      else {"enabled": False})
        if not shards:
            page_cache.pop("shards", None)
        if self.cache is not None:
            page_cache["warm_loaded"] = self.warm_loaded
        extras = {
            "generation": self.state.corpus_signature,
            "stale": self.background.stale,
            "page_cache": page_cache,
            "pool": (self.worker_pool.stats() if self.worker_pool is not None
                     else {"workers": 1, "pooled": False}),
        }
        if self.rebuilder.last_error:
            extras["rebuild_last_error"] = self.rebuilder.last_error
        extras["rebuild_thread"] = self.background.stats()
        if self.sweeps is not None:
            extras["sweeps"] = self.sweeps.stats()
        if self.tenancy is not None:
            extras["tenancy"] = self.tenancy.stats()
        sanitizer = sanitize.current()
        if sanitizer is not None:
            extras["sanitizer"] = sanitizer.counters()
        return extras

    def _local_metrics_payload(self) -> dict:
        """The thread-mode ``/api/metrics``: the registry snapshot with
        the :meth:`metrics_extras` sections placed in its own layout."""
        extras = self.metrics_extras(shards=True)
        payload = self.metrics.snapshot()
        payload["page_cache"] = extras["page_cache"]
        payload["workers"] = extras["pool"]
        if "rebuild_last_error" in extras:
            payload["rebuilds"]["last_error"] = extras["rebuild_last_error"]
        resilience = payload["resilience"]
        resilience["stale"] = extras["stale"]
        for key, part in (("load_shedder", self.shedder),
                          ("faults", self.faults), ("persist", self.store)):
            if part is not None:
                resilience[key] = part.stats()
        for key in ("rebuild_thread", "tenancy"):
            if key in extras:
                resilience[key] = extras[key]
        for key in ("sweeps", "sanitizer"):
            if key in extras:
                payload[key] = extras[key]
        return payload

    def _api_metrics(self) -> Response:
        if self.fleet is not None:
            # Fleet-wide view: merge every worker's raw export (bucket
            # counts, not percentiles) so the reported percentiles come
            # from the union of all observations, with a per-worker
            # breakdown for the genuinely per-process state.
            return Response.json(self.fleet.metrics_payload(self),
                                 route="/api/metrics")
        return Response.json(self._local_metrics_payload(),
                             route="/api/metrics")

    def _api_lint(self, query: dict[str, list[str]] | None = None,
                  ) -> Response:
        """Static-analysis report for the served corpus.

        Content and site rules only: the code rules lint the server's own
        source, which is no concern of a content author and which the
        corpus signature below could never see change.  They stay with
        the ``lint`` CLI, and ``?rules=`` naming one is a 400.

        The report is recomputed only when the corpus generation changes
        (the same ``corpus_signature`` the cacheable API responses key
        on), so after a :class:`RebuildManager` swap the next request
        re-lints and every one after that is served from the snapshot.
        The engine is created once, under ``_lint_lock``; the lint run
        happens *outside* it — the engine serializes itself — so
        concurrent requests never queue behind a full analysis just to
        read the cached payload.  Concurrent runs for one signature all
        answer with the first payload stored.

        ``?rules=a,b`` narrows the report to those rule ids — applied to
        the cached payload after the fact, mirroring ``lint --select``:
        filtering never invalidates or forks the cache.
        """
        route = "/api/lint"
        rules: list[str] = [
            rule_id.strip()
            for chunk in (query or {}).get("rules", [])
            for rule_id in chunk.split(",") if rule_id.strip()]
        signature = self.state.corpus_signature
        with self._lint_lock:
            if (self._lint_payload is not None
                    and self._lint_signature == signature):
                return self._lint_response(self._lint_payload, rules, route)
            engine = self._lint_engine
        if engine is None:
            from repro.lint import LintConfig, LintEngine

            # Sharing the serve cache directory persists the lint
            # fingerprint table too, so a freshly started server's first
            # /api/lint re-analyzes only files changed since the last run.
            cache_dir = self.store.root if self.store is not None else None
            with self._lint_lock:
                if self._lint_engine is None:
                    self._lint_engine = LintEngine(LintConfig(
                        content_dir=self.rebuilder.content_dir,
                        code=False, cache_dir=cache_dir))
                engine = self._lint_engine
        result = engine.lint()
        payload = {
            "signature": signature,
            "counts": result.counts,
            "fixable": result.fixable,
            "clean": not result.diagnostics,
            "diagnostics": [d.to_dict() for d in result.diagnostics],
            "fixes": [f.to_dict() for f in result.fixes],
            "stats": {
                "files_total": result.stats.files_total,
                "files_analyzed": result.stats.files_analyzed,
                "files_cached": result.stats.files_cached,
            },
        }
        with self._lint_lock:
            if self._lint_signature != signature:
                self._lint_payload = payload
                self._lint_signature = signature
            payload = self._lint_payload
        return self._lint_response(payload, rules, route)

    @staticmethod
    def _lint_response(payload: dict, rules: list[str],
                       route: str) -> Response:
        """The cached lint payload, optionally narrowed to ``rules``."""
        if not rules:
            return Response.json(payload, route=route)
        from repro.lint import RULES

        unknown = sorted(set(rules) - set(RULES))
        if unknown:
            return Response.error(
                400, f"unknown lint rule(s): {', '.join(unknown)}",
                route=route)
        code = sorted(r for r in set(rules) if RULES[r].pass_name == "code")
        if code:
            return Response.error(
                400, f"code rules are not served: {', '.join(code)}",
                route=route)
        keep = set(rules)
        diagnostics = [d for d in payload["diagnostics"]
                       if d["rule"] in keep]
        fixes = [f for f in payload["fixes"] if f["rule"] in keep]
        counts: dict[str, int] = {k: 0 for k in payload["counts"]}
        for diag in diagnostics:
            counts[diag["severity"]] += 1
        filtered = dict(payload)
        filtered.update({
            "rules": sorted(keep),
            "counts": counts,
            "fixable": len(fixes),
            "clean": not diagnostics,
            "diagnostics": diagnostics,
            "fixes": fixes,
        })
        return Response.json(filtered, route=route)


# -- construction ----------------------------------------------------------


def create_app(
    content_dir=None,
    cache_size: int = 512,
    cache_enabled: bool = True,
    cache_shards: int = 8,
    cache_dir=None,
    watch_interval_s: float = 1.0,
    watch: bool = True,
    metrics: MetricsRegistry | None = None,
    faults=None,
    fault_spec: str | None = None,
    fault_seed: int = 0,
    request_timeout_ms: float | None = None,
    max_inflight: int | None = None,
    rebuild_mode: str = "background",
    debounce_s: float = 0.05,
    breaker_threshold: int = 3,
    breaker_reset_s: float = 1.0,
    retry: RetryPolicy | None = None,
    sweep_workers: int = 1,
    sweep_max_jobs: int = 4,
    tenants=None,
) -> ServeApp:
    """Build a ready-to-serve :class:`ServeApp` over a content directory
    (default: the packaged 38-activity corpus).

    The page cache is lock-striped over ``cache_shards`` shards
    (``cache_shards=1`` degenerates to the single-mutex cache).  With
    ``cache_dir`` set, previously spilled responses whose render-plan
    signatures still match are warm-loaded immediately, so the first
    requests after a restart are hits.  The search index is always built
    from the catalog.

    Every app refreshes through one :class:`BackgroundRebuilder` (with
    a circuit breaker), so no request's latency ever includes a re-scan.
    With ``watch=True`` its thread starts here and polls every
    ``watch_interval_s``.  With ``watch=False`` no thread starts: the
    owner refreshes with ``app.background.run_once()``, or starts the
    thread so that pokes (a pre-fork peer's swap) wake it.
    ``rebuild_mode`` accepts only ``"background"``: it is kept only
    because the ``perfbench`` harness still passes it.

    ``tenants`` enables the multi-tenant admission edge: pass a
    :class:`~repro.serve.tenancy.TenancyConfig`, a config dict, a path
    to a tenants JSON file, or the literal string ``"default"`` for the
    built-in tiers.  ``None`` (the default) disables the edge entirely —
    zero per-request overhead for single-tenant deployments.
    """
    if faults is None and fault_spec:
        faults = parse_fault_spec(fault_spec, seed=fault_seed)
    store = CacheStore(cache_dir, faults=faults) if cache_dir else None
    if rebuild_mode != "background":
        raise ValueError(f"unknown rebuild_mode {rebuild_mode!r} "
                         f"(only 'background' remains)")
    rebuilder = RebuildManager(content_dir, faults=faults)
    cache = None
    if cache_enabled:
        if cache_shards > 1:
            cache = ShardedPageCache(cache_size, shards=cache_shards)
        else:
            cache = PageCache(cache_size)
    from repro.sweep import ResultStore, SweepManager

    sweep_store = None
    if cache_dir:
        from pathlib import Path

        sweep_store = ResultStore(Path(cache_dir) / "sweeps", faults=faults)
    sweeps = SweepManager(
        store=sweep_store, workers=sweep_workers,
        max_active_jobs=sweep_max_jobs, faults=faults)
    tenancy = None
    if tenants is not None:
        tenancy = TenantGate(TenancyConfig.load(tenants), faults=faults)
    background = BackgroundRebuilder(
        rebuilder,
        breaker=CircuitBreaker(failure_threshold=breaker_threshold,
                               reset_timeout_s=breaker_reset_s),
        debounce_s=debounce_s,
        poll_interval_s=watch_interval_s if watch else None)
    app = ServeApp(
        background, cache=cache, metrics=metrics, store=store,
        faults=faults, request_timeout_ms=request_timeout_ms,
        shedder=LoadShedder(max_inflight) if max_inflight else None,
        retry=retry if retry is not None else RetryPolicy(retries=1),
        sweeps=sweeps, tenancy=tenancy,
    )
    if watch:
        background.start()
    app.warm_start()
    return app


class _QuietHandler(WSGIRequestHandler):
    def log_message(self, format, *args):  # noqa: A002 - WSGI API
        pass


def create_server(host: str = "127.0.0.1", port: int = 8000,
                  app: ServeApp | None = None, quiet: bool = False,
                  workers: int = 1, queue_limit: int | None = None,
                  **app_kwargs) -> tuple[WSGIServer, ServeApp]:
    """Bind a WSGI server (``port=0`` picks an ephemeral port).

    ``workers=1`` is the stock single-threaded ``wsgiref`` server;
    ``workers>1`` services connections on a :class:`WorkerPool` of that
    size, so slow clients no longer head-of-line block everyone else.
    ``queue_limit`` bounds the pool's task queue: connections past the
    watermark are answered ``503 + Retry-After`` at the socket.
    """
    app = app or create_app(**app_kwargs)
    handler = _QuietHandler if quiet else WSGIRequestHandler
    if workers > 1:
        pool = WorkerPool(workers, max_queue=queue_limit)
        server = PooledWSGIServer((host, port), handler, pool)
        server.set_app(app)
        app.worker_pool = pool
    else:
        server = make_server(host, port, app, handler_class=handler)
    return server, app


def run(host: str = "127.0.0.1", port: int = 8000, workers: int = 1,
        queue_limit: int | None = None, worker_model: str = "thread",
        threads_per_worker: int = 2, sanitize_locks: bool = False,
        sanitize_budget_ms: float = 250.0, **app_kwargs) -> int:
    """Blocking entry point used by ``pdcunplugged serve``.

    The app's rebuild thread scans the content directory once per
    ``watch_interval_s``, requests never pay for (or trigger) a
    re-scan, and rebuild failures degrade to stale serving behind the
    circuit breaker instead of surfacing.  Only pre-fork peers poke the
    thread, after a generation swap; ``debounce_s`` coalesces those
    pokes.

    ``worker_model="process"`` switches to the pre-fork supervisor:
    ``workers`` becomes the process count (each with its own
    ``threads_per_worker``-thread pool), and the GIL stops being the
    throughput ceiling.

    ``sanitize_locks=True`` activates the runtime concurrency sanitizer
    (:mod:`repro.sanitize`) before any lock is constructed, so every
    registered serve/sweep lock is instrumented and ``/api/metrics``
    grows a ``sanitizer`` section (races, stalls, per-site hold/wait
    histograms).  Activation happens before a pre-fork supervisor
    forks, so each worker process inherits an active sanitizer and
    reports its own counters.
    """
    if sanitize_locks and sanitize.current() is None:
        sanitize.activate(hold_budget_ms=sanitize_budget_ms)
        print(f"concurrency sanitizer ACTIVE "
              f"(stall budget {sanitize_budget_ms:g}ms)")
    if worker_model == "process":
        from repro.serve.prefork import run_prefork

        return run_prefork(host=host, port=port, workers=max(1, workers),
                           queue_limit=queue_limit,
                           threads_per_worker=threads_per_worker,
                           **app_kwargs)
    if worker_model != "thread":
        raise ValueError(f"unknown worker_model {worker_model!r} "
                         f"(expected 'thread' or 'process')")
    server, app = create_server(host, port, workers=workers,
                                queue_limit=queue_limit, **app_kwargs)
    bound_port = server.server_address[1]
    print(f"serving {len(app.state.catalog)} activities on "
          f"http://{host}:{bound_port} with {workers} worker(s) "
          f"(Ctrl-C to stop)")
    if app.warm_loaded:
        print(f"  warm start: {app.warm_loaded} cached responses reloaded")
    if app.faults is not None and app.faults.active:
        print(f"  fault injection ACTIVE: {len(app.faults.rules)} rule(s), "
              f"seed {app.faults.seed}")
    if app.tenancy is not None:
        config = app.tenancy.config
        print(f"  multi-tenant edge ACTIVE: tiers {sorted(config.tiers)}, "
              f"{len(config.keys)} key(s), {config.window_s:g}s window")
    print(f"  API: /api/activities /api/search?q=… /api/coverage/cs2013 "
          f"/api/coverage/tcpp /api/gaps /api/simulate/<slug> /api/sweeps "
          f"/api/metrics /api/lint")
    if app.sweeps is not None:
        print(f"  sweeps: {app.sweeps.workers} worker process(es), "
              f"up to {app.sweeps.max_active_jobs} concurrent jobs")
    print(f"  ops: /healthz /readyz")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down.")
    finally:
        server.server_close()
        app.close()
        saved = app.save_cache()
        if saved:
            print(f"spilled {saved} cached responses for warm restart.")
    return 0
