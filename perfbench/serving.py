"""The serving workloads: ``browse`` and ``fleet``.

Both are closed loops through the program's own load client
(:mod:`repro.serve.loadgen`): each request is sent when the previous
reply has arrived.  The end-to-end figures come from the app that
``serve`` builds, called in process by one caller.  Over loopback HTTP
the same requests measured mostly how fast a shared two-core virtual
machine wakes an idle core: between runs of one configuration the
spread was 0.26-0.39 for ``browse`` and up to 0.37 (throughput) and 0.82
(p99) for ``fleet``, wider than any allowed bound.  The HTTP stack is
still measured, without a bound: a traced run adds a side run against
the real server (``--workers nproc`` threads for ``browse``, a pre-fork
fleet for ``fleet``) over ``nproc`` connections, for the transport,
client and pre-fork figures.

* ``browse``: readers of the packaged corpus.  Traffic is a Zipf(1.1)
  page mix plus 20 % of the default API paths, with 70 % of requests
  revalidating (``If-None-Match``).
* ``fleet``: cold visitors on a scaled corpus (the 38 activities copied
  twelve times), with tenant keys, and a persistent cache directory
  filled by an earlier, unmeasured boot, so set-up is a warm restart.
  Traffic has no revalidation, seeded distinct searches, a few
  simulations and metrics polls.
"""

from __future__ import annotations

import functools
import json
import os
import random
import sys
import time
from pathlib import Path

import inputs
import measure
import spans

#: Scaled-corpus copies for ``fleet``: 456 activities, whose pages plus
#: API variants overflow the default 512-entry page cache.
FLEET_COPIES = 12

#: ``fleet`` request shares (the rest are Zipf-distributed pages).
#: These are assumptions: neither the paper nor the program records the
#: traffic of a deployed site.  They were chosen so that pages stay the
#: majority, as in ``browse`` (80 %), while each other kind still
#: arrives many times in every window of about 2500 requests: about 450
#: searches (so slow searches can reach ``tail_ms``), 200 other API
#: calls, 50 small simulations and 12 fleet-merged metrics polls.
FLEET_SHARES = {"search": 0.18, "api": 0.08, "simulate": 0.02,
                "metrics": 0.005}

#: Cheap simulations for ``/api/simulate`` (well under a millisecond).
SIMULATE_SLUGS = ("findsmallestcard", "parallelradixsort", "concerttickets",
                  "laundrypipeline", "examgradingspeedup")

#: Set-up repetitions (the median is reported).  ``browse``: spawn of
#: the thread server to ``/readyz`` 200, cold.  ``fleet``: ``create_app``
#: warm-started from the cache directory.
SETUP_REPS = {"browse": 5, "fleet": 5}

#: Requests per measured window, at least.  Windows last about a
#: second; throughput and p50 are medians over the least-stolen half of
#: them (see :func:`measure.least_stolen`), and ``tail_ms`` is a
#: percentile of their latencies pooled.
WINDOW_REQUESTS = 1200

#: The percentile ``tail_ms`` reports.  In ``fleet`` about 1 % of
#: requests wait for the GIL while the background rebuild thread polls
#: the 456 files, so p99 falls on the steep edge of that group and
#: moved by 0.21-0.29 (IQR over median) between runs; p99.9 lies inside
#: it and moved by 0.07.  The pooled windows hold about 25000 requests,
#: so p99.9 has about 25 samples beyond it.
TAIL_PERCENTILE = {"browse": 99, "fleet": 99.9}

#: ``browse`` requests drawn per seeded generator block.
BROWSE_BLOCK = 5000

#: Pages compared byte for byte with an in-process render after a run.
SAMPLED_PAGES = 24


class Setting:
    """What differs between the two serving workloads."""

    def __init__(self, name: str, root: Path, work: Path, seed: int):
        self.name = name
        self.root = root
        self.seed = seed
        self.copies = 1
        self.content = inputs.packaged_corpus(root)
        self.app_kwargs: dict = {}
        self.server_args = ["--worker-model", "thread",
                            "--workers", str(measure.nproc())]
        if name == "browse":
            return
        self.copies = FLEET_COPIES
        self.content = work / "fleet-corpus"
        inputs.scaled_corpus(root, self.content, self.copies, seed)
        config, self.key_mix = inputs.tenant_config(seed)
        tenants = work / "tenants.json"
        tenants.write_text(json.dumps(config), encoding="utf-8")
        cache_dir = work / "fleet-cache"
        self.app_kwargs = {"content_dir": self.content,
                           "tenants": str(tenants), "cache_dir": cache_dir}
        self.server_args = ["--worker-model", "process",
                            "--workers", str(measure.nproc()),
                            "--content-dir", str(self.content),
                            "--tenants", str(tenants),
                            "--cache-dir", str(cache_dir)]

    def app(self) -> "InProcessApp":
        return InProcessApp(self.app_kwargs)

    def server(self) -> measure.Server:
        argv = [sys.executable, str(Path(__file__).with_name("launch.py")),
                "serve", "--port", "0"] + self.server_args
        return measure.Server(argv, self.root)


class InProcessApp:
    """The app ``serve`` builds, called in process by one caller (the
    same interface as :class:`measure.Server`)."""

    def __init__(self, app_kwargs: dict):
        from repro.serve import create_app

        self.app = create_app(rebuild_mode="background", **app_kwargs)

    def load(self, requests: list, clients: int):
        from repro.serve.loadgen import run_load

        return run_load(self.app, requests)

    def get(self, path: str):
        from repro.serve import call_app

        response = call_app(self.app, path)
        return response.status, response.headers, response.body

    def get_json(self, path: str) -> dict:
        return json.loads(self.get(path)[2])

    def cpu_seconds(self) -> float:
        return measure.cpu_seconds(os.getpid())

    def peak_rss_mb(self) -> float:
        return measure.peak_rss_mb(os.getpid())

    def reset_peak_rss(self) -> None:
        measure.reset_peak_rss(os.getpid())

    def stop(self) -> None:
        self.app.close()


class Traffic:
    """The seeded request stream, consumed chunk by chunk."""

    def __init__(self, setting: Setting, urls: list[str]):
        from repro.serve.loadgen import (DEFAULT_API_PATHS, LoadGenerator,
                                         LoadRequest, zipf_weights)

        self.setting = setting
        self.rng = random.Random(f"traffic:{setting.name}:{setting.seed}")
        self._request = LoadRequest
        if setting.name == "browse":
            self.generator = functools.partial(
                LoadGenerator, urls, exponent=1.1,
                api_paths=list(DEFAULT_API_PATHS), api_ratio=0.2,
                conditional_ratio=0.7)
            self.blocks = 0
            self.buffer: list = []
            return
        self.urls = urls
        self.weights = zipf_weights(len(urls), 1.1)
        self.api_paths = list(DEFAULT_API_PATHS)
        self.words = inputs.vocabulary(setting.content)
        self.keys = list(setting.key_mix)
        self.key_weights = [setting.key_mix[k] for k in self.keys]

    def take(self, n: int) -> list:
        if self.setting.name == "browse":
            # The stream is a chain of fixed-size blocks, each from a
            # generator seeded by the run seed and the block number: it
            # is fixed by the seed and never held in memory whole.
            while len(self.buffer) < n:
                self.blocks += 1
                self.buffer += self.generator(
                    seed=f"{self.setting.seed}:{self.blocks}",
                ).sample_requests(BROWSE_BLOCK)
            batch, self.buffer = self.buffer[:n], self.buffer[n:]
            return batch
        return [self._fleet_request() for _ in range(n)]

    def _fleet_request(self):
        rng = self.rng
        draw = rng.random()
        kind = "page"
        for name, share in FLEET_SHARES.items():
            if draw < share:
                kind = name
                break
            draw -= share
        if kind == "search":
            words = rng.sample(self.words, 2)
            path = f"/api/search?q={words[0]}+{words[1]}"
        elif kind == "api":
            path = rng.choice(self.api_paths)
        elif kind == "simulate":
            slug = rng.choice(SIMULATE_SLUGS)
            path = (f"/api/simulate/{slug}?n={rng.randint(4, 8)}"
                    f"&seed={rng.randrange(1000)}")
        elif kind == "metrics":
            path = "/api/metrics"
        else:
            path = rng.choices(self.urls, weights=self.weights, k=1)[0]
        key = rng.choices(self.keys, weights=self.key_weights, k=1)[0]
        return self._request(path, conditional=False, api_key=key)


def _drive(target, traffic: Traffic, clients: int, seconds: float,
           tracer=None) -> dict:
    """Closed-loop load for ``seconds`` in windows of about one second.

    The peak RSS read at the end covers the measured windows only; so do
    the spans of ``tracer``, which drops those of set-up and calibration.
    """
    # Calibration window (unmeasured): lets lazy set-up finish and sizes
    # the measured windows.
    started = time.perf_counter()
    warm = target.load(traffic.take(WINDOW_REQUESTS), clients)
    if warm.transport_errors or set(warm.statuses) - {200, 304}:
        raise RuntimeError(f"warm-up failed: {warm.statuses}")
    rate = warm.requests / max(1e-6, time.perf_counter() - started)
    window = max(WINDOW_REQUESTS, int(rate)) // clients * clients

    before = target.get_json("/api/metrics")
    if tracer is not None:
        tracer.take()
    target.reset_peak_rss()
    cpu0 = target.cpu_seconds()
    client0 = time.process_time()
    latency_sum = 0.0
    windows: list[dict] = []
    statuses: dict[int, int] = {}
    requests = transport_errors = 0
    elapsed = 0.0
    steal = measure.StealMeter()
    while elapsed < seconds:
        t0 = time.perf_counter()
        report = target.load(traffic.take(window), clients)
        took = time.perf_counter() - t0
        elapsed += took
        latency_sum += sum(report.latencies_s)
        windows.append(measure.window_stats(report.requests / took,
                                            report.latencies_s,
                                            steal.share()))
        requests += report.requests
        transport_errors += report.transport_errors
        for status, count in report.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
    client_cpu = time.process_time() - client0
    server_cpu = target.cpu_seconds() - cpu0
    rss_mb = target.peak_rss_mb()
    measured = tracer.take() if tracer is not None else None
    after = target.get_json("/api/metrics")
    failed = transport_errors + sum(count for status, count in
                                    statuses.items() if status not in (200, 304))
    return {"latency_sum": latency_sum, "windows": windows,
            "statuses": statuses, "requests": requests, "failed": failed,
            "transport_errors": transport_errors, "elapsed": elapsed,
            "client_cpu": client_cpu, "server_cpu": server_cpu,
            "before": before, "after": after, "rss_mb": rss_mb,
            "spans": measured}


def _check_outputs(target, setting: Setting, state,
                   problems: list[str]) -> None:
    """Sampled pages equal an in-process render; coverage equals the paper."""
    from repro import paper
    from repro.serve.cache import make_etag

    rng = random.Random(f"sample:{setting.seed}")
    urls = [task.url for task in state.plan]
    for url in rng.sample(urls, SAMPLED_PAGES):
        status, headers, body = target.get(url)
        reference = state.plan_by_url[url].render().encode("utf-8")
        if status != 200 or body != reference:
            problems.append(f"{url}: served body differs from reference")
        elif headers.get("ETag") != make_etag(reference):
            problems.append(f"{url}: ETag {headers.get('ETag')} is not the "
                            f"reference render's")
    for standard, table, count_key in (("cs2013", paper.TABLE1, "outcomes"),
                                       ("tcpp", paper.TABLE2, "topics")):
        rows = target.get_json(f"/api/coverage/{standard}")["rows"]
        got = {r["term"]: (r[count_key], r["covered"], r["activities"])
               for r in rows}
        want = {term: (n, covered, activities * setting.copies)
                for term, (n, covered, activities) in table.items()}
        if got != want:
            problems.append(f"/api/coverage/{standard} differs from the "
                            f"paper's table: {got}")


# -- reading /api/metrics -----------------------------------------------------


def _worker_sections(payload: dict) -> list[dict]:
    """Per-process sections: the fleet breakdown, or the local payload."""
    fleet = payload.get("fleet")
    if fleet:
        return list(fleet["per_worker"].values())
    local = dict(payload)
    local["tenancy"] = payload.get("resilience", {}).get("tenancy", {})
    return [local]


def _route_totals(payload: dict, prefix: tuple[str, ...]) -> tuple[int, float]:
    count, total_ms = 0, 0.0
    for route, stats in payload.get("routes", {}).items():
        if route.startswith(prefix):
            latency = stats["latency"]
            count += latency["count"]
            total_ms += latency["count"] * latency["mean_ms"]
    return count, total_ms


def _route_mean_ms(run: dict, prefix: tuple[str, ...]) -> float:
    """Server-recorded mean latency of the routes under ``prefix`` during
    a run."""
    n0, t0 = _route_totals(run["before"], prefix)
    n1, t1 = _route_totals(run["after"], prefix)
    return (t1 - t0) / (n1 - n0) if n1 > n0 else 0.0


def _sum_sections(payload: dict, section: str, key: str) -> float:
    return sum(float(w.get(section, {}).get(key, 0) or 0)
               for w in _worker_sections(payload))


def _app_metrics(run: dict) -> dict:
    """Per-layer figures read from the app's own /api/metrics."""
    before, after = run["before"], run["after"]

    def delta(section, key):
        return (_sum_sections(after, section, key)
                - _sum_sections(before, section, key))

    def counter(section, key):
        return (float(after.get(section, {}).get(key, 0))
                - float(before.get(section, {}).get(key, 0)))

    hits, misses = delta("page_cache", "hits"), delta("page_cache", "misses")
    return {
        "app.handle_ms.page": _route_mean_ms(run, ("page:",)),
        "app.handle_ms.api": _route_mean_ms(run, ("/api/",)),
        "app.refused": sum(counter("resilience", k) for k in
                           ("shed", "deadline_expired", "degraded",
                            "rate_limited")),
        "tenancy.limited": delta("tenancy", "limited"),
        "tenancy.limiter_errors": delta("tenancy", "limiter_errors"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.not_modified_share": (counter("cache", "not_modified")
                                     / run["requests"]),
        "cache.evictions": delta("page_cache", "evictions"),
        "cache.lock_wait_ms": delta("page_cache", "lock_wait_ms"),
        "persist.warm_loaded": _sum_sections(after, "page_cache",
                                             "warm_loaded"),
    }


def _transport_metrics(setting: Setting, urls: list[str], seconds: float,
                       problems: list[str]) -> dict:
    """The HTTP side run: the real server over ``nproc`` connections."""
    server = setting.server()
    try:
        members = set(measure.descendants(server.proc.pid))
        run = _drive(server, Traffic(setting, urls), measure.nproc(),
                     seconds)
        respawns = len(set(measure.descendants(server.proc.pid)) - members)
    finally:
        server.stop()
    if run["failed"]:
        problems.append(f"HTTP side run: {run['failed']} request(s) failed: "
                        f"{run['statuses']}")
    requests = run["requests"]
    return {
        "loadgen.client_cpu_ms_per_req": run["client_cpu"] * 1e3 / requests,
        "transport.server_cpu_ms_per_req": run["server_cpu"] * 1e3 / requests,
        "transport.overhead_ms": (run["latency_sum"] * 1e3 / requests
                                  - _route_mean_ms(run, ("",))),
        "prefork.metrics_poll_ms": (_route_mean_ms(run, ("/api/metrics",))
                                    if setting.name == "fleet" else 0.0),
        "prefork.respawns": float(respawns),
    }


def _span_metrics(names: dict, requests: int, setup: dict) -> dict:
    out = {
        "tenancy.admit_us": spans.mean_ms(names, "tenancy.admit") * 1e3,
        "metrics.record_us": spans.mean_ms(names, "metrics.record") * 1e3,
        "cache.get_us": spans.mean_ms(names, "cache.get") * 1e3,
        "cache.put_us": spans.mean_ms(names, "cache.put") * 1e3,
        "persist.warm_load_ms": spans.mean_ms(setup, "persist.warm_load"),
        "sitegen.renders": float(names.get("sitegen.render", {})
                                 .get("outer", 0)),
        "sitegen.search_ms": spans.mean_ms(names, "sitegen.search"),
    }
    for kind in ("home", "page", "term", "taxonomy", "view"):
        out[f"sitegen.render_ms.{kind}"] = spans.mean_ms(
            names, "sitegen.render", tag=kind)
    for layer, value in spans.layer_self_ms(names, requests).items():
        out[f"self_ms.{layer}"] = value
    return out


# -- the workload ---------------------------------------------------------------


def _measure_setup(setting: Setting, reps: int,
                   urls: list[str]) -> tuple[list[dict], float | None]:
    """``reps`` set-up samples, each with its steal, and for ``browse``
    the thread server's peak RSS after one pass over every URL and API
    path (the memory of the deployment; the measured load runs beside
    the benchmark's own memory)."""
    from repro.serve.loadgen import DEFAULT_API_PATHS, LoadRequest

    samples, rss = [], None
    for index in range(reps):
        steal = measure.StealMeter()
        if setting.name == "fleet":
            started = time.perf_counter()
            target = setting.app()
            samples.append({"value": time.perf_counter() - started,
                            "steal": steal.share()})
            target.stop()
            continue
        server = setting.server()
        samples.append({"value": server.ready_s, "steal": steal.share()})
        try:
            if index == reps - 1:
                server.load([LoadRequest(u, conditional=False) for u in
                             urls + list(DEFAULT_API_PATHS)], 1)
                rss = server.peak_rss_mb()
        finally:
            server.stop()
    return samples, rss


def _fill_cache(setting: Setting, urls: list[str]) -> None:
    """The earlier, unmeasured ``fleet`` boot: render every page twice
    and spill the cache, so every measured start is a warm restart."""
    from repro.serve.loadgen import LoadRequest

    target = setting.app()
    try:
        target.load([LoadRequest(u, conditional=False) for u in urls + urls],
                    1)
        target.app.save_cache()
    finally:
        target.stop()


def run(root: Path, work: Path, seed: int, seconds: float, trace: bool,
        name: str) -> dict:
    from repro.serve.rebuild import ServerState

    setting = Setting(name, root, work, seed)
    urls = [task.url for task in
            ServerState.from_content_dir(setting.content).plan]
    problems: list[str] = []
    if name == "fleet":
        _fill_cache(setting, urls)
    samples, server_rss = _measure_setup(
        setting, 1 if trace else SETUP_REPS[name], urls)

    target = setting.app()
    try:
        result = _drive(target, Traffic(setting, urls), 1, seconds)
        # The reference is built after the measured windows, so it is
        # not in their peak RSS.
        state = ServerState.from_content_dir(setting.content)
        _check_outputs(target, setting, state, problems)
    finally:
        target.stop()
    if result["failed"]:
        problems.append(f"{result['failed']} request(s) failed: "
                        f"{result['statuses']}")
    figures, beyond = measure.median_window(result["windows"],
                                            TAIL_PERCENTILE[name])
    metrics = dict(figures, setup_s=measure.median_sample(samples),
                   rss_mb=server_rss or result["rss_mb"])
    notes = [f"{name}: {result['requests']} requests from 1 caller in "
             f"process in {result['elapsed']:.2f} s; "
             + measure.describe_windows(result["windows"])
             + f"; tail_ms is p{TAIL_PERCENTILE[name]:g} of their pooled "
             f"latencies, with {beyond} samples beyond it; setup "
             + measure.describe_samples(samples)]
    layers = None
    if trace:
        layers = _app_metrics(result)
        layers.update(_transport_metrics(setting, urls, seconds, problems))
        tracer = spans.Tracer(work / "spans")
        spans.install(tracer)
        traced_target = setting.app()
        setup = spans.summarize(tracer.take())   # the warm start
        try:
            traced = _drive(traced_target, Traffic(setting, urls), 1, seconds,
                            tracer=tracer)
        finally:
            traced_target.stop()
        tracer.dump(traced["spans"])
        names = spans.summarize(spans.load(work / "spans"))
        layers.update(_span_metrics(names, traced["requests"], setup))
        traced_rate = measure.median_window(
            traced["windows"], TAIL_PERCENTILE[name])[0]["throughput_per_s"]
        layers["trace.overhead_pct"] = (
            metrics["throughput_per_s"] / traced_rate - 1.0) * 100.0
        notes.append(f"{name}: tracing overhead "
                     f"{layers['trace.overhead_pct']:.1f}% "
                     f"({metrics['throughput_per_s']:.1f} -> "
                     f"{traced_rate:.1f} requests/s)")
    return {"attempted": result["requests"], "failed": result["failed"],
            "problems": problems, "metrics": metrics, "layers": layers,
            "notes": notes}
