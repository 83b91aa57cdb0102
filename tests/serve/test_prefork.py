"""Pre-fork process fleet: lifecycle, metrics aggregation, generation swap.

Covers the three coordination planes of ``--worker-model process``:

* **lifecycle** — all workers warm before ``/readyz`` goes true, a killed
  worker is detected and respawned with backoff, graceful stop drains;
* **metrics** — ``/api/metrics`` answered by any worker merges every
  peer's raw export: the fleet totals equal the sum of the per-worker
  breakdown (the aggregation-correctness invariant);
* **generation** — an edit rebuilt in one worker propagates to every
  process via the generation board + control-socket pokes, without a
  restart.

These tests fork real processes and talk over real sockets; they are the
closest thing in the suite to running the production topology.
"""

from __future__ import annotations

import json
import shutil
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.activities.catalog import corpus_dir
from repro.serve.metrics import MetricsRegistry, merge_exports
from repro.serve.prefork import (
    GenerationBoard,
    PreforkServer,
    control_call,
    worker_socket_path,
)

WORKERS = 2


def http_get(base: str, path: str, timeout: float = 30.0):
    try:
        with urllib.request.urlopen(base + path, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def wait_until(predicate, timeout_s: float = 30.0, interval_s: float = 0.05,
               message: str = "condition never became true"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError(message)


@pytest.fixture(scope="module")
def fleet():
    """A module-wide 2-process fleet over the packaged corpus."""
    server = PreforkServer(port=0, workers=WORKERS, watch=False, quiet=True)
    server.start()
    assert server.wait_ready(timeout_s=60.0), "fleet never became ready"
    yield server
    server.stop()


class TestFleetServing:
    def test_requests_are_served_by_multiple_processes(self, fleet):
        for _ in range(40):
            status, _body = http_get(fleet.base_url, "/")
            assert status == 200
        reports = fleet.fleet.collect_metrics()
        assert len(reports) == WORKERS
        served = [r for r in reports
                  if sum(route["requests"]
                         for route in r["export"]["routes"].values())]
        # The shared-socket accept distributes load: with 40 requests and
        # 2 workers, both ended up doing work.
        assert len(served) == WORKERS

    def test_readyz_reports_fleet_and_is_true(self, fleet):
        status, body = http_get(fleet.base_url, "/readyz")
        assert status == 200
        payload = json.loads(body)
        assert payload["ready"] is True
        assert payload["fleet"]["workers"] == WORKERS
        assert len(payload["fleet"]["per_worker"]) == WORKERS
        assert all(s["ready"] for s in payload["fleet"]["per_worker"].values())

    def test_metrics_aggregation_sums_per_worker_counters(self, fleet):
        """The correctness invariant: fleet totals == Σ per-worker."""
        for _ in range(20):
            http_get(fleet.base_url, "/")
        status, body = http_get(fleet.base_url, "/api/metrics")
        assert status == 200
        payload = json.loads(body)
        per_worker = payload["fleet"]["per_worker"]
        assert len(per_worker) == WORKERS
        assert payload["total_requests"] == sum(
            w["requests"] for w in per_worker.values())
        assert payload["cache"]["hits"] == sum(
            w["cache_hits"] for w in per_worker.values())
        assert payload["cache"]["misses"] == sum(
            w["cache_misses"] for w in per_worker.values())
        assert payload["fleet"]["worker_model"] == "process"
        assert payload["fleet"]["responding"] == WORKERS

    def test_supervisor_side_aggregation_matches_shape(self, fleet):
        merged = fleet.fleet.metrics_payload()
        assert merged["fleet"]["responding"] == WORKERS
        assert merged["total_requests"] == sum(
            w["requests"] for w in merged["fleet"]["per_worker"].values())

    def test_control_ready_answers_with_pid(self, fleet):
        pids = fleet.worker_pids()
        for index in range(WORKERS):
            reply = fleet.control(index, "ready")
            assert reply["ready"] is True
            assert reply["worker"] == index
            assert reply["pid"] == pids[index]

    def test_unknown_control_command_is_an_error_not_a_crash(self, fleet):
        # ping and generation were folded into ready.
        for cmd in ("frobnicate", "ping", "generation"):
            assert "error" in fleet.control(0, cmd)
        assert fleet.control(0, "ready")["ready"] is True


class TestLifecycle:
    def test_crash_is_detected_respawned_and_readyz_flips(self, tmp_path):
        server = PreforkServer(port=0, workers=2, watch=False, quiet=True,
                               respawn_backoff_s=1.0,
                               monitor_interval_s=0.02)
        server.start()
        try:
            assert server.wait_ready(timeout_s=60.0)
            before = server.worker_pids()

            assert server.kill_worker(0)
            # The survivor notices its peer is gone: fleet readiness drops
            # before the (1s-backoff) respawn can land.
            wait_until(lambda: http_get(server.base_url, "/readyz")[0] == 503,
                       timeout_s=10.0,
                       message="/readyz never went false after a kill")
            # ...but the survivor keeps serving traffic the whole time.
            assert http_get(server.base_url, "/healthz")[0] == 200

            wait_until(lambda: server.alive_workers() == 2, timeout_s=30.0,
                       message="worker never respawned")
            assert server.wait_ready(timeout_s=60.0), \
                "fleet never became ready after respawn"
            after = server.worker_pids()
            assert after[0] is not None and after[0] != before[0]
            assert after[1] == before[1]
            stats = server.stats()
            assert stats["deaths"] >= 1
            assert stats["respawns"] >= 1
            assert http_get(server.base_url, "/readyz")[0] == 200
        finally:
            server.stop()

    def test_graceful_stop_drains_and_exits_cleanly(self):
        server = PreforkServer(port=0, workers=2, watch=False, quiet=True)
        server.start()
        assert server.wait_ready(timeout_s=60.0)
        assert http_get(server.base_url, "/")[0] == 200
        base = server.base_url
        server.stop(graceful=True)
        assert server.alive_workers() == 0
        with pytest.raises(OSError):
            urllib.request.urlopen(base + "/", timeout=2.0)

    def test_single_worker_fleet_is_valid(self):
        server = PreforkServer(port=0, workers=1, watch=False, quiet=True)
        server.start()
        try:
            assert server.wait_ready(timeout_s=60.0)
            status, body = http_get(server.base_url, "/readyz")
            assert status == 200
            assert json.loads(body)["fleet"]["workers"] == 1
        finally:
            server.stop()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            PreforkServer(workers=0)


class TestGenerationCoordination:
    def test_edit_in_one_worker_swaps_every_process(self, tmp_path):
        # Poke worker 0: its rebuild must publish the generation to the
        # board and poke worker 1 into re-scanning.
        self._assert_poke_swaps_every_process(tmp_path, poked=0)

    def test_poke_wakes_the_background_rebuild_thread(self, tmp_path):
        # Requests never wake the rebuild thread: an edited corpus stays
        # unrebuilt across a request until worker 1 is poked, and the swap
        # then propagates back to worker 0.
        self._assert_poke_swaps_every_process(tmp_path, poked=1,
                                              request_first=True)

    @staticmethod
    def _assert_poke_swaps_every_process(tmp_path, poked,
                                         request_first=False):
        # With watch off nothing polls: only the control-socket pokes (the
        # test's to the poked worker, then that worker's to its peer)
        # wake each worker's rebuild thread.
        content = tmp_path / "content"
        shutil.copytree(corpus_dir(), content)
        server = PreforkServer(port=0, workers=2, content_dir=str(content),
                               watch=False, quiet=True)
        server.start()
        try:
            assert server.wait_ready(timeout_s=60.0)
            initial = {i: server.control(i, "ready")["generation"]
                       for i in range(2)}
            assert initial[0] == initial[1]

            page = content / "gardeners.md"
            page.write_text(page.read_text(encoding="utf-8")
                            + "\nPrefork swap test.\n", encoding="utf-8")
            if request_first:
                for _ in range(4):
                    assert http_get(server.base_url, "/")[0] == 200
                time.sleep(0.3)
                assert [server.control(i, "ready")["generation"]
                        for i in range(2)] == [initial[0], initial[1]]
            assert server.control(poked, "poke")["ok"] is True

            def converged():
                gens = [(server.control(i, "ready") or {}).get("generation")
                        for i in range(2)]
                return (gens[0] is not None and gens[0] != initial[0]
                        and gens[0] == gens[1])

            wait_until(converged, timeout_s=30.0,
                       message="generation never propagated to the peer")
            board = server.board.read()
            assert board is not None
            assert board["generation"] == \
                server.control(1 - poked, "ready")["generation"]
        finally:
            server.stop()

    def test_board_publish_is_idempotent_and_tolerant(self, tmp_path):
        board = GenerationBoard(tmp_path / "generation.json")
        assert board.read() is None
        assert board.publish("gen-a", worker=0) is True
        assert board.publish("gen-a", worker=1) is False   # already current
        assert board.publish("gen-b", worker=1) is True
        assert board.read()["generation"] == "gen-b"
        # Garbage on disk means "nothing published", never an exception.
        (tmp_path / "generation.json").write_bytes(b"\x00not json")
        assert board.read() is None

    def test_control_call_to_missing_socket_is_none(self, tmp_path):
        assert control_call(worker_socket_path(tmp_path, 9), "ready",
                            timeout_s=0.2) is None


class _FakePeer:
    """A unix-socket peer with a scripted (mis)behavior for one accept."""

    def __init__(self, tmp_path, behavior):
        self.path = tmp_path / "fake.sock"
        self._behavior = behavior
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.bind(str(self.path))
        self._sock.listen(1)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _addr = self._sock.accept()
            with conn:
                conn.settimeout(5.0)
                conn.recv(65536)             # drain the request line
                self._behavior(conn)
        except OSError:
            pass

    def close(self):
        try:
            self._sock.close()
        finally:
            self._thread.join(timeout=5.0)


class TestControlCallDegradation:
    """Every peer failure mode degrades to None — never an exception."""

    def _call(self, tmp_path, behavior, timeout_s: float = 1.0):
        peer = _FakePeer(tmp_path, behavior)
        try:
            return control_call(peer.path, "ready", timeout_s=timeout_s)
        finally:
            peer.close()

    def test_well_behaved_peer_round_trips(self, tmp_path):
        result = self._call(
            tmp_path, lambda conn: conn.sendall(b'{"ok": true}\n'))
        assert result == {"ok": True}

    def test_peer_gone_mid_read_is_none(self, tmp_path):
        # Partial JSON, then the peer dies: no newline ever arrives.
        assert self._call(
            tmp_path, lambda conn: conn.sendall(b'{"par')) is None

    def test_garbage_line_is_none(self, tmp_path):
        assert self._call(
            tmp_path, lambda conn: conn.sendall(b"not json\n")) is None

    def test_non_utf8_payload_is_none(self, tmp_path):
        assert self._call(
            tmp_path, lambda conn: conn.sendall(b"\xff\xfe\xfd\n")) is None

    def test_oversized_response_is_none(self, tmp_path):
        blob = b"x" * (2 * 1024 * 1024) + b"\n"
        assert self._call(
            tmp_path, lambda conn: conn.sendall(blob), timeout_s=10.0) is None

    def test_never_responding_peer_times_out_to_none(self, tmp_path):
        peer = _FakePeer(tmp_path, lambda conn: time.sleep(1.5))
        try:
            started = time.monotonic()
            assert control_call(peer.path, "ready", timeout_s=0.3) is None
            assert time.monotonic() - started < 1.4
        finally:
            peer.close()


class TestMergeSemantics:
    """merge_exports is the metrics plane's foundation: prove it directly."""

    def test_merged_counts_equal_sums(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for _ in range(3):
            a.record_request("/x", 200, 0.010, cache_status="hit")
        for _ in range(5):
            b.record_request("/x", 200, 0.100, cache_status="miss")
        b.record_request("/y", 503, 0.001)
        merged = merge_exports([a.export(), b.export()]).snapshot()
        assert merged["total_requests"] == 9
        assert merged["cache"]["hits"] == 3
        assert merged["cache"]["misses"] == 5
        assert merged["routes"]["/x"]["requests"] == 8
        assert merged["routes"]["/y"]["statuses"]["503"] == 1

    def test_merged_percentiles_span_both_workers(self):
        fast, slow = MetricsRegistry(), MetricsRegistry()
        for _ in range(50):
            fast.record_request("/x", 200, 0.001)
        for _ in range(50):
            slow.record_request("/x", 200, 0.5)
        merged = merge_exports([fast.export(), slow.export()]).snapshot()
        latency = merged["routes"]["/x"]["latency"]
        # Neither worker alone has this distribution: the median sits at
        # the fast mode, the p99 at the slow one.
        assert latency["p50_ms"] <= 10.0
        assert latency["p99_ms"] >= 100.0

    def test_empty_and_none_exports_are_skipped(self):
        registry = MetricsRegistry()
        registry.record_request("/x", 200, 0.01)
        merged = merge_exports([registry.export(), None, {}]).snapshot()
        assert merged["total_requests"] == 1
