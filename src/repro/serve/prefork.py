"""Pre-fork multi-process serving: escape the GIL.

The ``--workers N`` thread pool caps render-heavy throughput at roughly
one core, because every render holds the GIL.  This module provides
``--worker-model process``: a parent *supervisor* binds the listening
socket exactly once and forks N worker processes that all ``accept()``
on the shared socket, each running its own full
:class:`~repro.serve.app.ServeApp` (private page cache, metrics
registry, rebuild pipeline, circuit breaker) — N cores of rendering with
zero cross-process locking on the request path.

Three coordination planes make the fleet behave like one server:

1. **Metrics** — every worker exposes a unix *control socket*
   (``worker-<i>.sock`` in the runtime directory).  ``/api/metrics``
   answered by any worker collects each peer's raw
   :meth:`~repro.serve.metrics.MetricsRegistry.export` (bucket counts,
   not percentiles) over those sockets and merges them with
   :func:`~repro.serve.metrics.merge_exports`, so the reported
   fleet-wide percentiles come from the union of observations, plus a
   ``fleet.per_worker`` breakdown.
2. **Generation** — a successful rebuild in any worker publishes the new
   corpus signature to the :class:`GenerationBoard` (an atomic JSON file
   in the runtime directory) and *pokes* every peer's control socket;
   each poked worker re-scans and swaps its own generation, so one edit
   propagates to the whole fleet without a restart.  Stale serving
   (``Warning: 110``) and the rebuild circuit breaker stay *per
   process* — one worker's sick pipeline never marks a healthy peer
   stale.
3. **Lifecycle** — the supervisor polls its children, reaps crashes, and
   respawns with per-slot exponential backoff; a graceful stop sends
   ``shutdown`` over the control sockets so each worker stops accepting,
   drains its in-flight requests (bounded), spills its cache, and exits.
   ``/readyz`` answers 503 until *every* expected worker is up and warm.

A fourth plane rides the same sockets when the multi-tenant edge is
enabled (``tenants=``): each worker's :class:`~repro.serve.tenancy.TenantGate`
gossips its per-(worker, epoch) window counts to its peers via the
``tenancy`` command, max-merged on absorb, so N workers enforce ~one
fleet-wide rate limit instead of N× the quota — and a respawned worker
inherits its predecessor's counts from the survivors' gossip.

The control protocol is one JSON line per connection::

    {"cmd": "ready" | "metrics" | "tenancy" | "poke" | "shutdown"}

``ready`` is also the liveness and generation probe (its reply carries
``worker``, ``pid``, ``generation`` and ``stale``).  Every fan-out goes
through :meth:`FleetLinks.call_peers`.

Pure stdlib.  Requires ``fork`` (POSIX); the CLI refuses the mode
elsewhere.  In process mode each worker's sweep plane runs its points
inline (``sweep_workers`` is clamped to 1): the process fleet *is* the
parallelism, and daemonic workers cannot spawn pool children.
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import signal
import socket
import tempfile
import threading
import time
from pathlib import Path

from repro.ioutil import atomic_write_bytes
from repro.serve.metrics import merge_exports

__all__ = ["PreforkServer", "FleetLinks", "GenerationBoard", "ControlServer",
           "control_call", "worker_socket_path", "run_prefork"]

log = logging.getLogger("repro.serve.prefork")

_MANIFEST_NAME = "fleet.json"
_GENERATION_NAME = "generation.json"

#: Default deadline for one control-socket round trip.  Peers that do
#: not answer within it are reported as not responding, never waited on.
CONTROL_TIMEOUT_S = 1.0

#: A worker alive longer than this has its crash-backoff counter reset.
_STABLE_AFTER_S = 5.0


def worker_socket_path(runtime_dir: str | Path, index: int) -> Path:
    """The control-socket path for worker ``index`` (naming convention)."""
    return Path(runtime_dir) / f"worker-{index}.sock"


def control_call(sock_path: str | Path, cmd: str,
                 timeout_s: float = CONTROL_TIMEOUT_S, **fields) -> dict | None:
    """One control request against a worker socket.

    Returns the decoded response, or ``None`` on *any* failure — a dead,
    draining, or not-yet-started peer is a fact to report, not an error
    to raise.
    """
    request = dict(fields, cmd=cmd)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            client.settimeout(timeout_s)
            client.connect(str(sock_path))
            client.sendall(json.dumps(request).encode("utf-8") + b"\n")
            chunks = []
            while True:
                data = client.recv(65536)
                if not data:
                    break
                chunks.append(data)
                if b"\n" in data:
                    break
        payload = b"".join(chunks)
        return json.loads(payload) if payload.strip() else None
    except (OSError, ValueError):
        return None


class ControlServer:
    """Per-worker unix-socket command server (one JSON line per connection).

    Runs on its own daemon thread inside the worker process, so control
    queries (readiness, metrics export, pokes) never compete with HTTP
    request handling for a worker thread.
    """

    def __init__(self, path: str | Path, handlers: dict, name: str = "control"):
        self.path = Path(path)
        self.handlers = handlers
        self.path.unlink(missing_ok=True)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(str(self.path))
        self._sock.listen(16)
        self._sock.settimeout(0.2)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, name=name,
                                        daemon=True)

    def start(self) -> None:
        self._thread.start()

    def stop(self, timeout_s: float = 2.0) -> None:
        self._stop.set()
        self._thread.join(timeout=timeout_s)
        try:
            self._sock.close()
        finally:
            self.path.unlink(missing_ok=True)

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return                      # socket closed under us: done
            try:
                self._handle(conn)
            except Exception:               # noqa: BLE001 - keep serving
                log.exception("control request failed")
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _handle(self, conn: socket.socket) -> None:
        conn.settimeout(CONTROL_TIMEOUT_S)
        data = b""
        while b"\n" not in data and len(data) < (1 << 20):
            chunk = conn.recv(65536)
            if not chunk:
                break
            data += chunk
        try:
            request = json.loads(data.decode("utf-8"))
        except ValueError:
            request = {}
        cmd = request.get("cmd") if isinstance(request, dict) else None
        handler = self.handlers.get(cmd)
        if handler is None:
            response = {"error": f"unknown control command {cmd!r}"}
        else:
            try:
                response = handler(request)
            except Exception as exc:        # noqa: BLE001 - report, don't die
                response = {"error": f"{type(exc).__name__}: {exc}"}
        conn.sendall(json.dumps(response, default=str).encode("utf-8") + b"\n")


class GenerationBoard:
    """The cross-process generation record: an atomic JSON file.

    A rebuild's *publish* is two-channel: this durable file (a late
    joiner — e.g. a respawned worker — can read what the fleet converged
    on) plus transient control-socket pokes (the live workers re-scan
    now instead of at their next poll).  Reads are tolerant: a torn or
    garbage file means "nothing published", never an exception.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def publish(self, generation: str, worker: int | None = None) -> bool:
        """Record ``generation``; returns False when already current."""
        current = self.read()
        if current is not None and current.get("generation") == generation:
            return False
        payload = {"generation": generation, "worker": worker,
                   "published_at": time.time()}
        try:
            atomic_write_bytes(
                self.path,
                json.dumps(payload, sort_keys=True).encode("utf-8"))
        except OSError as exc:
            log.warning("generation publish failed: %s", exc)
        return True

    def read(self) -> dict | None:
        try:
            payload = json.loads(self.path.read_bytes())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None


class FleetLinks:
    """One process's view of its fleet: peers, board, aggregation.

    Attached to a worker's :class:`~repro.serve.app.ServeApp` as
    ``app.fleet``; its presence is what switches ``/api/metrics`` and
    ``/readyz`` into fleet-wide mode.  The supervisor holds one with
    ``index=None``: it is no worker, so every worker is its peer.
    """

    def __init__(self, runtime_dir: str | Path, index: int | None,
                 workers: int, timeout_s: float = CONTROL_TIMEOUT_S):
        self.runtime_dir = Path(runtime_dir)
        self.index = index
        self.workers = workers
        self.timeout_s = timeout_s
        self.board = GenerationBoard(self.runtime_dir / _GENERATION_NAME)

    def peers(self) -> list[tuple[int, Path]]:
        return [(i, worker_socket_path(self.runtime_dir, i))
                for i in range(self.workers) if i != self.index]

    def call_peers(self, cmd: str) -> dict[int, dict]:
        """Send ``cmd`` to every peer; ``{index: reply}`` for those that
        answered (a dead or slow peer is simply absent)."""
        replies = {}
        for idx, path in self.peers():
            reply = control_call(path, cmd, timeout_s=self.timeout_s)
            if reply is not None:
                replies[idx] = reply
        return replies

    # -- generation plane --------------------------------------------------

    def publish_generation(self, generation: str) -> int:
        """Publish a new generation; returns the number of peers poked.

        When the board already records ``generation`` some other worker
        published first — skip the pokes, damping the (finite) poke
        echo: a poked peer's own rebuild republishes, but by then the
        board is current and the echo stops.
        """
        if not self.board.publish(generation, worker=self.index):
            return 0
        return len(self.call_peers("poke"))

    # -- metrics plane -----------------------------------------------------

    def report(self, app) -> dict:
        """This worker's ``metrics`` reply: raw export + per-process extras."""
        return {"worker": self.index, "pid": os.getpid(),
                "export": app.metrics.export(),
                "extra": app.metrics_extras()}

    def collect_metrics(self, local: dict | None = None) -> list[dict]:
        reports = [local] if local else []
        reports.extend(report for report in self.call_peers("metrics").values()
                       if "export" in report)
        return reports

    def metrics_payload(self, app=None) -> dict:
        """Fleet-wide ``/api/metrics``: merged registries + breakdown.

        ``app`` is this worker's own app, reported in-process rather
        than over its own socket; the supervisor passes none.
        """
        reports = self.collect_metrics(
            self.report(app) if app is not None else None)
        per_worker: dict[str, dict] = {}
        for report in sorted(reports, key=lambda r: r.get("worker", -1)):
            export = report.get("export") or {}
            counters = export.get("counters") or {}
            entry = {
                "pid": report.get("pid"),
                "requests": sum(int(route.get("requests", 0)) for route
                                in (export.get("routes") or {}).values()),
                "cache_hits": int(counters.get("cache_hits", 0)),
                "cache_misses": int(counters.get("cache_misses", 0)),
            }
            entry.update(report.get("extra") or {})
            per_worker[str(report.get("worker"))] = entry
        merged = merge_exports(r["export"] for r in reports).snapshot()
        merged["fleet"] = {
            "worker_model": "process",
            "workers": self.workers,
            "responding": len(reports),
            "answered_by": self.index,
            "per_worker": per_worker,
        }
        return merged

    # -- readiness plane ---------------------------------------------------

    def fleet_status(self, local_ready: bool) -> tuple[bool, dict]:
        """Whether every expected worker is up and warm, plus the detail."""
        statuses = {str(self.index): {"ready": bool(local_ready),
                                      "pid": os.getpid(),
                                      "responding": True}}
        replies = self.call_peers("ready")
        for idx, _path in self.peers():
            reply = replies.get(idx)
            statuses[str(idx)] = {
                "ready": bool(reply and reply.get("ready")),
                "pid": reply.get("pid") if reply else None,
                "responding": reply is not None,
            }
        ready = all(s["ready"] for s in statuses.values())
        return ready, {"workers": self.workers, "per_worker": statuses}


# -- the worker process ------------------------------------------------------


def _worker_main(index: int, listen_socket: socket.socket,
                 runtime_dir: str, workers: int, threads_per_worker: int,
                 queue_limit: int | None, drain_timeout_s: float,
                 quiet: bool, app_kwargs: dict,
                 tenancy_sync_interval_s: float = 0.25) -> None:
    """Entry point of one forked worker (runs in the child process)."""
    from repro.serve.app import _QuietHandler, create_app
    from repro.serve.tenancy import TenancySync
    from repro.serve.workers import PooledWSGIServer, WorkerPool
    from wsgiref.simple_server import WSGIRequestHandler

    kwargs = dict(app_kwargs)
    # Daemonic workers cannot spawn pool children, and the fleet is the
    # parallelism anyway: sweep points run inline inside each worker.
    kwargs["sweep_workers"] = 1
    # Decorrelate per-worker fault RNGs so an injected-fault fleet does
    # not fail in lockstep (still deterministic per worker).
    if kwargs.get("fault_spec"):
        kwargs["fault_seed"] = int(kwargs.get("fault_seed", 0)) + index

    app = create_app(**kwargs)
    app.fleet = FleetLinks(runtime_dir, index, workers)
    # Peers' pokes wake the rebuild thread, so it runs even with
    # watch=False (it then sleeps until poked).
    app.background.start()

    tenancy_sync = None
    if app.tenancy is not None:
        # Claim this process's slot in the window CRDT, then gossip: the
        # sync thread pulls every peer's view over the control sockets
        # and max-merges it in, so the fleet converges on ~one shared
        # limit.  Fetch failures are counted and skipped — a dead peer
        # never blocks admission.
        app.tenancy.set_worker(index)

        def fetch_tenancy_views() -> list[dict]:
            return [reply["view"]
                    for reply in app.fleet.call_peers("tenancy").values()
                    if isinstance(reply.get("view"), dict)]

        tenancy_sync = TenancySync(app.tenancy, fetch_tenancy_views,
                                   interval_s=tenancy_sync_interval_s).start()

    pool = WorkerPool(threads_per_worker, name=f"prefork-{index}-thread",
                      max_queue=queue_limit)
    listen_socket.setblocking(False)   # accept races resolve as EAGAIN,
    # which the socketserver no-block path treats as "someone else won"
    handler = _QuietHandler if quiet else WSGIRequestHandler
    server = PooledWSGIServer(listen_socket.getsockname()[:2], handler, pool,
                              drain_timeout_s=drain_timeout_s,
                              listen_socket=listen_socket)
    server.set_app(app)
    app.worker_pool = pool

    stopping = threading.Event()

    def request_shutdown(*_args) -> None:
        if stopping.is_set():
            return
        stopping.set()
        # serve_forever must keep spinning for shutdown() to complete, so
        # the blocking call happens off the signal/control path.
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, request_shutdown)
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # parent owns Ctrl-C

    control = ControlServer(
        worker_socket_path(runtime_dir, index),
        handlers={
            "ready": lambda _r: dict(app.local_readiness(), worker=index,
                                     pid=os.getpid()),
            "metrics": lambda _r: app.fleet.report(app),
            "poke": lambda _r: (app.background.poke(), {"ok": True})[1],
            "tenancy": lambda _r: {
                "worker": index, "pid": os.getpid(),
                "view": (app.tenancy.view()
                         if app.tenancy is not None else {}),
            },
            "shutdown": lambda _r: (request_shutdown(), {"ok": True})[1],
        },
        name=f"prefork-{index}-control",
    )
    control.start()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        if tenancy_sync is not None:
            tenancy_sync.stop()
        control.stop()
        server.server_close()               # stops accepting, drains, joins
        app.close()
        try:
            app.save_cache()
        except Exception:                   # noqa: BLE001 - spill is optional
            log.exception("cache spill on shutdown failed")


# -- the supervisor ----------------------------------------------------------


class PreforkServer:
    """Parent supervisor: bind once, fork N accepting workers, keep N alive.

    The parent never builds a :class:`ServeApp` and never touches a
    request — it binds the TCP socket, writes the fleet manifest, forks
    the workers (``fork`` start method: the listening socket is inherited,
    nothing is pickled), and then only supervises: reap crashed workers,
    respawn them with per-slot exponential backoff, and on ``stop()``
    ask every worker to drain gracefully before escalating.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        runtime_dir: str | Path | None = None,
        threads_per_worker: int = 2,
        queue_limit: int | None = None,
        drain_timeout_s: float = 5.0,
        respawn: bool = True,
        respawn_backoff_s: float = 0.1,
        respawn_backoff_max_s: float = 5.0,
        monitor_interval_s: float = 0.05,
        quiet: bool = True,
        tenancy_sync_interval_s: float = 0.25,
        **app_kwargs,
    ):
        if workers < 1:
            raise ValueError("worker count must be >= 1")
        if threads_per_worker < 1:
            raise ValueError("threads_per_worker must be >= 1")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:           # pragma: no cover - non-POSIX
            raise RuntimeError(
                "worker_model='process' needs the fork start method "
                "(POSIX only); use the thread worker model here") from exc
        self.workers = workers
        self.threads_per_worker = threads_per_worker
        self.queue_limit = queue_limit
        self.drain_timeout_s = drain_timeout_s
        self.respawn = respawn
        self.respawn_backoff_s = respawn_backoff_s
        self.respawn_backoff_max_s = respawn_backoff_max_s
        self.monitor_interval_s = monitor_interval_s
        self.quiet = quiet
        self.tenancy_sync_interval_s = tenancy_sync_interval_s
        self.app_kwargs = dict(app_kwargs)

        self._owns_runtime_dir = runtime_dir is None
        self.runtime_dir = (Path(runtime_dir) if runtime_dir is not None
                            else Path(tempfile.mkdtemp(prefix="pdc-prefork-")))
        self.runtime_dir.mkdir(parents=True, exist_ok=True)
        self.fleet = FleetLinks(self.runtime_dir, None, workers)
        self.board = self.fleet.board

        self.listen_socket = socket.create_server((host, port), backlog=128)
        self.host, self.port = self.listen_socket.getsockname()[:2]

        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._procs: list = [None] * workers
        self._spawned_at: list[float] = [0.0] * workers
        self._crashes: list[int] = [0] * workers
        self._respawn_at: list[float] = [0.0] * workers
        self._deaths = 0
        self._respawns = 0
        self._monitor: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "PreforkServer":
        self._write_manifest()
        for index in range(self.workers):
            self._spawn(index)
        monitor = threading.Thread(target=self._monitor_loop,
                                   name="prefork-monitor", daemon=True)
        with self._lock:
            self._monitor = monitor
        monitor.start()
        return self

    def _write_manifest(self) -> None:
        manifest = {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "parent_pid": os.getpid(),
            "sockets": [str(worker_socket_path(self.runtime_dir, i))
                        for i in range(self.workers)],
        }
        atomic_write_bytes(
            self.runtime_dir / _MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8"))

    def _spawn(self, index: int) -> None:
        proc = self._ctx.Process(
            target=_worker_main,
            args=(index, self.listen_socket, str(self.runtime_dir),
                  self.workers, self.threads_per_worker, self.queue_limit,
                  self.drain_timeout_s, self.quiet, self.app_kwargs,
                  self.tenancy_sync_interval_s),
            name=f"prefork-worker-{index}",
            daemon=True,
        )
        proc.start()
        with self._lock:
            self._procs[index] = proc
            self._spawned_at[index] = time.monotonic()

    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.monitor_interval_s):
            now = time.monotonic()
            for index in range(self.workers):
                with self._lock:
                    proc = self._procs[index]
                    spawned_at = self._spawned_at[index]
                    respawn_at = self._respawn_at[index]
                if proc is not None and proc.is_alive():
                    if (self._crashes[index]
                            and now - spawned_at > _STABLE_AFTER_S):
                        with self._lock:
                            self._crashes[index] = 0
                    continue
                if proc is not None:        # just found dead: reap + schedule
                    proc.join(timeout=0)
                    with self._lock:
                        self._procs[index] = None
                        self._deaths += 1
                        self._crashes[index] += 1
                        backoff = min(
                            self.respawn_backoff_s
                            * (2 ** (self._crashes[index] - 1)),
                            self.respawn_backoff_max_s)
                        self._respawn_at[index] = now + backoff
                    log.warning("worker %d died (pid %s); respawn in %.2fs",
                                index, proc.pid, backoff)
                    continue
                if not self.respawn or self._stop.is_set():
                    continue
                if now >= respawn_at:
                    self._spawn(index)
                    with self._lock:
                        self._respawns += 1

    def stop(self, graceful: bool = True, timeout_s: float = 10.0) -> None:
        """Stop the fleet: graceful drain first, then escalate."""
        self._stop.set()
        with self._lock:
            monitor = self._monitor
        if monitor is not None:
            monitor.join(timeout=2.0)
        with self._lock:
            procs = [(i, p) for i, p in enumerate(self._procs)
                     if p is not None]
        if graceful:
            self.fleet.call_peers("shutdown")
        deadline = time.monotonic() + timeout_s
        for _index, proc in procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
        for index, proc in procs:
            if proc.is_alive():
                log.warning("worker %d did not drain; terminating", index)
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():             # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=1.0)
        try:
            self.listen_socket.close()
        except OSError:
            pass
        for index in range(self.workers):
            worker_socket_path(self.runtime_dir, index).unlink(missing_ok=True)
        if self._owns_runtime_dir:
            import shutil

            shutil.rmtree(self.runtime_dir, ignore_errors=True)

    def __enter__(self) -> "PreforkServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- supervision API (ops + tests) -------------------------------------

    def worker_pids(self) -> list[int | None]:
        with self._lock:
            return [p.pid if p is not None else None for p in self._procs]

    def alive_workers(self) -> int:
        with self._lock:
            return sum(1 for p in self._procs
                       if p is not None and p.is_alive())

    def control(self, index: int, cmd: str, **fields) -> dict | None:
        return control_call(worker_socket_path(self.runtime_dir, index),
                            cmd, **fields)

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> bool:
        """Forcibly kill one worker (crash-injection for tests/drills)."""
        with self._lock:
            proc = self._procs[index]
        if proc is None or proc.pid is None or not proc.is_alive():
            return False
        try:
            os.kill(proc.pid, sig)
        except ProcessLookupError:
            return False
        return True

    def wait_ready(self, timeout_s: float = 60.0,
                   poll_s: float = 0.1) -> bool:
        """Block until every worker answers ``ready`` on its socket."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            replies = self.fleet.call_peers("ready")
            if (len(replies) == self.workers
                    and all(r.get("ready") for r in replies.values())):
                return True
            time.sleep(poll_s)
        return False

    def stats(self) -> dict:
        with self._lock:
            return {
                "workers": self.workers,
                "alive": sum(1 for p in self._procs
                             if p is not None and p.is_alive()),
                "deaths": self._deaths,
                "respawns": self._respawns,
                "crash_backoff": list(self._crashes),
            }


def run_prefork(host: str = "127.0.0.1", port: int = 8000,
                workers: int = 2, queue_limit: int | None = None,
                threads_per_worker: int = 2, quiet: bool = False,
                **app_kwargs) -> int:
    """Blocking CLI entry point for ``serve --worker-model process``."""
    if int(app_kwargs.pop("sweep_workers", 1) or 1) > 1:
        print("note: --sweep-workers > 1 is ignored in process mode "
              "(sweep points run inline inside each worker)")
    server = PreforkServer(host=host, port=port, workers=workers,
                           queue_limit=queue_limit,
                           threads_per_worker=threads_per_worker,
                           quiet=quiet, **app_kwargs)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    server.start()
    print(f"pre-fork serving on http://{server.host}:{server.port} with "
          f"{workers} worker process(es) x {threads_per_worker} thread(s) "
          f"(Ctrl-C to stop)")
    print(f"  runtime dir: {server.runtime_dir} (control sockets, "
          f"fleet manifest, generation board)")
    if server.wait_ready(timeout_s=120.0):
        print(f"  fleet ready: {server.alive_workers()}/{workers} workers warm")
    else:
        print("  warning: fleet not fully ready yet; /readyz stays 503 "
              "until every worker is warm")
    try:
        stop.wait()
    except KeyboardInterrupt:
        print("\nshutting down fleet.")
    finally:
        server.stop(graceful=True)
    return 0
