"""Deterministic synthetic load generation for the serving layer.

Models the traffic pattern of a public teaching repository: page
popularity follows a Zipf distribution (a few famous activities get most
of the hits), with a configurable slice of API traffic (activity listing,
search queries, coverage tables) and a configurable split between
conditional (``If-None-Match``) and unconditional requests.  Everything
is seeded — the same profile and seed produce the same request stream,
so test, benchmark and perfbench runs are reproducible.

Includes :func:`call_app`, a minimal in-process WSGI client (no sockets),
used by the load runners, the test suite, the benchmarks and perfbench.
The runner emulates well-behaved browser caches: it remembers each URL's
ETag and revalidates with ``If-None-Match``, so a warm run exercises the
304 path exactly like repeat real-world traffic would.  Per-request
latencies are retained in the report, so tail percentiles (p99, p99.9)
come from exact order statistics, not histogram interpolation.

Three runners share the :class:`LoadReport` shape:

* :func:`run_load` — serial, in-process (one WSGI call at a time),
* :func:`run_load_concurrent` — N client threads against one in-process
  app (hammers the sharded cache and striped metrics),
* :func:`run_load_http` — N client threads over real sockets against a
  live server (the multi-worker benchmark path).
"""

from __future__ import annotations

import http.client
import io
import random
import threading
import time
from dataclasses import dataclass, field

__all__ = ["WSGIResponse", "call_app", "zipf_weights", "LoadRequest",
           "LoadGenerator", "LoadReport", "run_load", "run_load_concurrent",
           "run_load_http", "parse_tenant_mix",
           "DEFAULT_API_PATHS", "DEFAULT_SWEEP_SPECS"]

#: Default API population for mixed traffic: listing, searches with
#: different selectivity, both coverage tables, and the gap report.
DEFAULT_API_PATHS: tuple[str, ...] = (
    "/api/activities",
    "/api/search?q=cards",
    "/api/search?q=parallel+sorting",
    "/api/search?q=deadlock",
    "/api/coverage/cs2013",
    "/api/coverage/tcpp",
    "/api/gaps",
)

#: Default sweep-submission population for batch traffic: small grids
#: over cheap simulations, so a loadgen run with ``sweep_ratio > 0``
#: exercises the batch plane without dominating wall-clock.  Repeats of
#: the same spec are the point — they hit the content-addressed result
#: store instead of re-executing.
DEFAULT_SWEEP_SPECS: tuple[str, ...] = (
    '{"slugs": ["findsmallestcard"], "sizes": [4, 8], "seeds": [0, 1]}',
    '{"slugs": ["parallelradixsort"], "sizes": [8], "seeds": [0, 1, 2]}',
    '{"slugs": ["byzantinegenerals"], "sizes": [6, 9], "seeds": [0]}',
)


@dataclass(frozen=True)
class WSGIResponse:
    """Materialized response from an in-process WSGI call."""

    status: int
    headers: dict[str, str]
    body: bytes

    @property
    def etag(self) -> str | None:
        return self.headers.get("ETag")


def call_app(app, path: str, method: str = "GET",
             headers: dict[str, str] | None = None,
             body: bytes | None = None) -> WSGIResponse:
    """Invoke a WSGI app in-process for ``path`` (query string allowed).

    ``body`` makes the call an entity-bearing request (``POST
    /api/sweeps``): it is exposed through ``wsgi.input`` with
    ``CONTENT_LENGTH`` set, JSON content type by default.
    """
    path, _, query = path.partition("?")
    environ = {
        "REQUEST_METHOD": method,
        "PATH_INFO": path,
        "QUERY_STRING": query,
        "SERVER_NAME": "localhost",
        "SERVER_PORT": "80",
        "SERVER_PROTOCOL": "HTTP/1.1",
        "wsgi.version": (1, 0),
        "wsgi.url_scheme": "http",
        "wsgi.input": io.BytesIO(body or b""),
        "wsgi.errors": io.StringIO(),
        "wsgi.multithread": False,
        "wsgi.multiprocess": False,
        "wsgi.run_once": False,
    }
    if body is not None:
        environ["CONTENT_LENGTH"] = str(len(body))
        environ["CONTENT_TYPE"] = "application/json"
    for name, value in (headers or {}).items():
        environ["HTTP_" + name.upper().replace("-", "_")] = value

    captured: dict[str, object] = {}

    def start_response(status_line, response_headers):
        captured["status"] = int(status_line.split(" ", 1)[0])
        captured["headers"] = dict(response_headers)

    chunks = app(environ, start_response)
    try:
        body = b"".join(chunks)
    finally:
        close = getattr(chunks, "close", None)
        if close is not None:
            close()
    return WSGIResponse(status=captured["status"],
                        headers=captured["headers"], body=body)


def zipf_weights(n: int, exponent: float = 1.1) -> list[float]:
    """Zipf popularity weights for ranks 1..n (rank 1 most popular)."""
    if n < 1:
        return []
    return [1.0 / (rank ** exponent) for rank in range(1, n + 1)]


@dataclass(frozen=True)
class LoadRequest:
    """One synthetic request: a path plus whether the client revalidates.

    ``api_key`` (sent as ``X-Api-Key``) attributes the request to a
    tenant when the server runs the multi-tenant admission edge.
    """

    path: str
    conditional: bool = True
    method: str = "GET"
    body: bytes | None = None
    api_key: str | None = None


def parse_tenant_mix(spec: str) -> dict[str, float]:
    """Parse a ``hot:0.8,cold:0.2`` style tenant traffic mix.

    Returns ``{api_key: weight}``; weights need not sum to 1 (they are
    relative).  A bare name (no ``:weight``) gets weight 1.
    """
    mix: dict[str, float] = {}
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, weight_text = chunk.partition(":")
        name = name.strip()
        if not name:
            raise ValueError(f"tenant mix entry {chunk!r} has no key")
        try:
            weight = float(weight_text) if weight_text else 1.0
        except ValueError:
            raise ValueError(
                f"tenant mix entry {chunk!r}: weight is not a number") from None
        if weight <= 0:
            raise ValueError(f"tenant mix entry {chunk!r}: weight must be > 0")
        mix[name] = weight
    if not mix:
        raise ValueError(f"empty tenant mix {spec!r}")
    return mix


class LoadGenerator:
    """Seeded request-stream generator over a fixed URL population.

    ``api_ratio`` routes that fraction of requests to the API population
    (uniformly — API traffic is flatter than page traffic);
    ``conditional_ratio`` marks that fraction of requests as revalidating
    clients (they send ``If-None-Match`` on repeat visits), the rest as
    cold clients that always want full bodies.
    """

    def __init__(self, urls: list[str], exponent: float = 1.1, seed: int = 0,
                 api_paths: list[str] | None = None, api_ratio: float = 0.0,
                 conditional_ratio: float = 1.0,
                 sweep_ratio: float = 0.0,
                 sweep_specs: list[str] | None = None,
                 tenant_mix: dict[str, float] | str | None = None):
        if not urls:
            raise ValueError("need at least one URL to generate load")
        if not 0.0 <= api_ratio <= 1.0:
            raise ValueError("api_ratio must be within [0, 1]")
        if not 0.0 <= conditional_ratio <= 1.0:
            raise ValueError("conditional_ratio must be within [0, 1]")
        if not 0.0 <= sweep_ratio <= 1.0:
            raise ValueError("sweep_ratio must be within [0, 1]")
        if api_ratio > 0.0 and not api_paths:
            raise ValueError("api_ratio > 0 requires api_paths")
        self.urls = list(urls)
        self.weights = zipf_weights(len(self.urls), exponent)
        self.api_paths = list(api_paths or [])
        self.api_ratio = api_ratio
        self.conditional_ratio = conditional_ratio
        self.sweep_ratio = sweep_ratio
        self.sweep_specs = list(sweep_specs if sweep_specs is not None
                                else DEFAULT_SWEEP_SPECS)
        if isinstance(tenant_mix, str):
            tenant_mix = parse_tenant_mix(tenant_mix)
        self.tenant_mix = dict(tenant_mix) if tenant_mix else None
        self.seed = seed

    @classmethod
    def for_app(cls, app, kinds: tuple[str, ...] = ("home", "page", "term", "taxonomy", "view"),
                exponent: float = 1.1, seed: int = 0,
                api_ratio: float = 0.0,
                conditional_ratio: float = 1.0,
                sweep_ratio: float = 0.0,
                tenant_mix: dict[str, float] | str | None = None,
                ) -> "LoadGenerator":
        """Build a profile over a :class:`~repro.serve.app.ServeApp`'s site.

        Popularity rank is the plan order (home page first, then the 38
        activity pages, then listing pages) — a reasonable stand-in for
        real traffic where the front page and famous activities dominate.
        """
        urls = [t.url for t in app.state.plan if t.kind in kinds]
        return cls(urls, exponent=exponent, seed=seed,
                   api_paths=list(DEFAULT_API_PATHS), api_ratio=api_ratio,
                   conditional_ratio=conditional_ratio,
                   sweep_ratio=sweep_ratio, tenant_mix=tenant_mix)

    def sample(self, n: int) -> list[str]:
        """A deterministic stream of ``n`` request paths (pages only)."""
        rng = random.Random(self.seed)
        return rng.choices(self.urls, weights=self.weights, k=n)

    def sample_requests(self, n: int) -> list[LoadRequest]:
        """A deterministic mixed stream of ``n`` :class:`LoadRequest`.

        Pages follow the Zipf weights; the ``sweep_ratio`` slice (drawn
        first) submits ``POST /api/sweeps`` batch jobs from the spec
        population; the ``api_ratio`` slice samples the API population
        uniformly; each request is independently marked conditional with
        probability ``conditional_ratio``.
        """
        rng = random.Random(self.seed)
        keys = weights = None
        if self.tenant_mix:
            keys = list(self.tenant_mix)
            weights = [self.tenant_mix[k] for k in keys]

        def api_key() -> str | None:
            if keys is None:
                return None
            return rng.choices(keys, weights=weights, k=1)[0]

        requests = []
        for _ in range(n):
            if self.sweep_specs and rng.random() < self.sweep_ratio:
                spec = rng.choice(self.sweep_specs)
                requests.append(LoadRequest(
                    "/api/sweeps", conditional=False, method="POST",
                    body=spec.encode("utf-8"), api_key=api_key()))
                continue
            if self.api_paths and rng.random() < self.api_ratio:
                path = rng.choice(self.api_paths)
            else:
                path = rng.choices(self.urls, weights=self.weights, k=1)[0]
            requests.append(LoadRequest(
                path, conditional=rng.random() < self.conditional_ratio,
                api_key=api_key()))
        return requests


@dataclass
class LoadReport:
    """Aggregate of one load run against an app."""

    requests: int = 0
    statuses: dict[int, int] = field(default_factory=dict)
    cache_hits: int = 0                  # responses served from the page cache
    revalidations: int = 0               # 304 Not Modified responses
    api_requests: int = 0                # requests whose path was /api/*
    sweep_submissions: int = 0           # POST /api/sweeps issued
    sweeps_accepted: int = 0             # 202 Accepted responses
    shed: int = 0                        # 503 (shed / degraded / deadline)
    limited: int = 0                     # 429 (per-tenant rate/quota refusals)
    retries: int = 0                     # re-issues after a 429/503 refusal
    stale_hits: int = 0                  # responses carrying X-Stale
    transport_errors: int = 0            # connection refused/reset (HTTP runner)
    bytes_received: int = 0
    duration_s: float = 0.0
    clients: int = 1
    latencies_s: list[float] = field(default_factory=list, repr=False)

    @property
    def requests_per_s(self) -> float:
        return self.requests / self.duration_s if self.duration_s else 0.0

    @property
    def ok(self) -> bool:
        return all(status in (200, 202, 304) for status in self.statuses)

    @property
    def unhandled_errors(self) -> int:
        """5xx responses that are NOT deliberate 503 degradation.

        The chaos acceptance criterion: under injected faults a run may
        shed (503) and serve stale, but must never surface an unhandled
        server error.
        """
        return sum(count for status, count in self.statuses.items()
                   if status >= 500 and status != 503)

    @property
    def shed_rate(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def limited_rate(self) -> float:
        """Fraction of requests refused by the tenancy edge (429)."""
        return self.limited / self.requests if self.requests else 0.0

    def latency_percentile_ms(self, p: float) -> float:
        """Exact order-statistic percentile over recorded latencies, in ms."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        rank = max(0, min(len(ordered) - 1,
                          int(-(-p / 100.0 * len(ordered) // 1)) - 1))
        return ordered[rank] * 1e3

    def merge(self, other: "LoadReport") -> None:
        """Fold another client's report into this one (durations overlap)."""
        self.requests += other.requests
        for status, count in other.statuses.items():
            self.statuses[status] = self.statuses.get(status, 0) + count
        self.cache_hits += other.cache_hits
        self.revalidations += other.revalidations
        self.api_requests += other.api_requests
        self.sweep_submissions += other.sweep_submissions
        self.sweeps_accepted += other.sweeps_accepted
        self.shed += other.shed
        self.limited += other.limited
        self.retries += other.retries
        self.stale_hits += other.stale_hits
        self.transport_errors += other.transport_errors
        self.bytes_received += other.bytes_received
        self.latencies_s.extend(other.latencies_s)


def _as_request(item) -> LoadRequest:
    return item if isinstance(item, LoadRequest) else LoadRequest(str(item))


def _retry_delay_s(retry_after: str | None, honor_retry_after: bool,
                   retry_cap_s: float) -> float:
    """The pause before re-issuing a refused request.

    A well-behaved client honors the server's ``Retry-After`` hint
    (capped so a test or benchmark never sleeps a full production-scale
    back-off); without a hint it retries after a token pause.
    """
    delay = 0.05
    if honor_retry_after and retry_after:
        try:
            delay = float(retry_after)
        except ValueError:
            pass
    return max(0.0, min(delay, retry_cap_s))


def run_load(app, paths, revalidate: bool = True,
             clock=time.perf_counter, max_retries: int = 0,
             honor_retry_after: bool = True, retry_cap_s: float = 2.0,
             sleep=time.sleep) -> LoadReport:
    """Replay ``paths`` (strings or :class:`LoadRequest`) in-process.

    With ``revalidate=True`` the runner behaves like a browser cache:
    it remembers the last ETag seen per URL and sends ``If-None-Match``
    on repeats (for requests marked conditional), earning 304s for
    unchanged pages.

    ``max_retries > 0`` re-issues refused requests (429/503) up to that
    many times per request, pausing per the response's ``Retry-After``
    hint (capped at ``retry_cap_s``).  Every attempt is tallied — the
    report's ``limited``/``shed`` counters reflect refusals seen on the
    wire, and ``retries`` counts the re-issues.
    """
    etags: dict[str, str] = {}
    report = LoadReport()
    started = clock()
    for item in paths:
        request = _as_request(item)
        attempts = 0
        while True:
            headers = {}
            if request.api_key:
                headers["X-Api-Key"] = request.api_key
            if revalidate and request.conditional and request.path in etags:
                headers["If-None-Match"] = etags[request.path]
            issued = clock()
            response = call_app(app, request.path, method=request.method,
                                headers=headers, body=request.body)
            report.latencies_s.append(clock() - issued)
            _tally(report, request, response.status, response.etag,
                   len(response.body), etags,
                   cache_status=response.headers.get("X-Cache"),
                   stale=response.headers.get("X-Stale") is not None)
            if response.status in (429, 503) and attempts < max_retries:
                attempts += 1
                report.retries += 1
                sleep(_retry_delay_s(response.headers.get("Retry-After"),
                                     honor_retry_after, retry_cap_s))
                continue
            break
    report.duration_s = clock() - started
    return report


def _tally(report: LoadReport, request: LoadRequest, status: int,
           etag: str | None, body_len: int, etags: dict[str, str],
           cache_status: str | None = None, stale: bool = False) -> None:
    report.requests += 1
    report.statuses[status] = report.statuses.get(status, 0) + 1
    report.bytes_received += body_len
    if request.path.startswith("/api/"):
        report.api_requests += 1
    if request.method == "POST" and request.path == "/api/sweeps":
        report.sweep_submissions += 1
        if status == 202:
            report.sweeps_accepted += 1
    if status == 304:
        report.revalidations += 1
    if status == 503:
        report.shed += 1
    elif status == 429:
        report.limited += 1
    if stale:
        report.stale_hits += 1
    if cache_status == "hit":
        report.cache_hits += 1
    if etag:
        etags[request.path] = etag


def run_load_concurrent(app, paths, clients: int = 4, revalidate: bool = True,
                        clock=time.perf_counter) -> LoadReport:
    """Replay ``paths`` from ``clients`` concurrent threads, in-process.

    The stream is dealt round-robin; each client keeps its own ETag
    memory (independent browsers).  The merged report's ``duration_s`` is
    wall-clock across all clients, so ``requests_per_s`` measures
    aggregate concurrent throughput.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    requests = [_as_request(p) for p in paths]
    slices = [requests[i::clients] for i in range(clients)]
    reports = [LoadReport() for _ in range(clients)]

    def client(i: int) -> None:
        reports[i] = run_load(app, slices[i], revalidate=revalidate, clock=clock)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = LoadReport(clients=clients)
    for report in reports:
        merged.merge(report)
    merged.duration_s = clock() - started
    return merged


def run_load_http(base_url: str, paths, clients: int = 1,
                  revalidate: bool = True, timeout_s: float = 10.0,
                  clock=time.perf_counter, max_retries: int = 0,
                  honor_retry_after: bool = True, retry_cap_s: float = 2.0,
                  sleep=time.sleep) -> LoadReport:
    """Replay ``paths`` over real sockets against ``base_url``.

    ``base_url`` is ``http://host:port``; each client thread opens its own
    connections, so against a multi-worker server the requests are
    genuinely concurrent on the wire.

    Transport failures (connection refused or reset — e.g. a pre-fork
    worker killed mid-request during a chaos drill) are *counted* in
    ``transport_errors`` and the run continues; they never abort a client
    thread or masquerade as server 5xx.
    """
    if clients < 1:
        raise ValueError("clients must be >= 1")
    host_port = base_url.split("//", 1)[-1].rstrip("/")
    host, _, port_text = host_port.partition(":")
    port = int(port_text or 80)
    requests = [_as_request(p) for p in paths]
    slices = [requests[i::clients] for i in range(clients)]
    reports = [LoadReport() for _ in range(clients)]

    def client(i: int) -> None:
        etags: dict[str, str] = {}
        report = reports[i]
        for request in slices[i]:
            attempts = 0
            while True:
                headers = {}
                if request.api_key:
                    headers["X-Api-Key"] = request.api_key
                if revalidate and request.conditional and request.path in etags:
                    headers["If-None-Match"] = etags[request.path]
                issued = clock()
                conn = http.client.HTTPConnection(host, port,
                                                  timeout=timeout_s)
                try:
                    if request.body is not None:
                        headers.setdefault("Content-Type", "application/json")
                    conn.request(request.method, request.path,
                                 body=request.body, headers=headers)
                    response = conn.getresponse()
                    body = response.read()
                    status = response.status
                    etag = response.getheader("ETag")
                    cache_status = response.getheader("X-Cache")
                    stale = response.getheader("X-Stale") is not None
                    retry_after = response.getheader("Retry-After")
                except (OSError, http.client.HTTPException):
                    report.requests += 1
                    report.transport_errors += 1
                    break
                finally:
                    conn.close()
                report.latencies_s.append(clock() - issued)
                _tally(report, request, status, etag, len(body), etags,
                       cache_status=cache_status, stale=stale)
                if status in (429, 503) and attempts < max_retries:
                    attempts += 1
                    report.retries += 1
                    sleep(_retry_delay_s(retry_after, honor_retry_after,
                                         retry_cap_s))
                    continue
                break

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    started = clock()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    merged = LoadReport(clients=clients)
    for report in reports:
        merged.merge(report)
    merged.duration_s = clock() - started
    return merged
