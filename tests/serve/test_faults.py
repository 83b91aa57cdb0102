"""Chaos tests: fault injection, the circuit breaker, deadlines, shedding.

Covers the failure-hardened serving pipeline end to end:

* the fault-injection primitives themselves (spec grammar, determinism,
  corruption/partial-write mangling),
* the shared :class:`RetryPolicy` schedule,
* the resilience primitives (:class:`CircuitBreaker`, :class:`Deadline`,
  :class:`LoadShedder`) under injectable clocks,
* the degradation ladder at the app level: rebuild failure -> stale
  serving -> breaker recovery, deadline expiry mid-render, shedding
  under bursts, and the acceptance chaos run (30% rebuild faults + 5%
  cache-read faults, zero unhandled 5xx).
"""

from __future__ import annotations

import shutil
import threading
import time

import pytest

from repro.activities.catalog import corpus_dir
from repro.serve import create_app, run_load, run_load_concurrent
from repro.serve.faults import (
    FaultPlan,
    FaultRule,
    InjectedFault,
    parse_fault_spec,
)
from repro.serve.loadgen import LoadGenerator, call_app
from repro.serve.rebuild import BackgroundRebuilder, RebuildManager
from repro.serve.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    MAX_RETRY_AFTER_S,
    LoadShedder,
    bounded_retry_after,
)
from repro.serve.retrypolicy import RetryError, RetryPolicy, is_transient
from repro.serve.workers import PoolSaturated, WorkerPool


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def content(tmp_path):
    """A private copy of the packaged corpus, safe to edit and break."""
    target = tmp_path / "content"
    shutil.copytree(corpus_dir(), target)
    return target


def edit(content, name: str = "gardeners.md", suffix: str = "\nEdited.\n"):
    page = content / name
    page.write_text(page.read_text(encoding="utf-8") + suffix,
                    encoding="utf-8")


# -- fault plan ------------------------------------------------------------


class TestFaultSpec:
    def test_parse_full_grammar(self):
        plan = parse_fault_spec(
            "rebuild:error@0.3,cache-read:latency@0.1:ms=20,"
            "persist-write:partial@1.0:limit=2", seed=7)
        assert plan.seed == 7
        assert [r.op for r in plan.rules] == ["rebuild", "cache-read",
                                              "persist-write"]
        assert plan.rules[1].latency_s == pytest.approx(0.02)
        assert plan.rules[2].limit == 2

    @pytest.mark.parametrize("spec", [
        "rebuild@0.3",                  # missing kind
        "rebuild:error",                # missing rate
        "rebuild:error@lots",           # non-numeric rate
        "rebuild:error@0.3:limit",      # option without value
        "rebuild:error@0.3:wat=1",      # unknown option
        "teleport:error@0.5",           # unknown op
        "rebuild:explode@0.5",          # unknown kind
        "rebuild:error@1.5",            # rate out of range
    ])
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_fault_spec(spec)

    def test_empty_clauses_skipped(self):
        plan = parse_fault_spec("rebuild:error@1.0,,")
        assert len(plan.rules) == 1


class TestFaultPlan:
    def test_rate_one_always_fires(self):
        plan = FaultPlan([FaultRule("render", "error", 1.0)])
        for _ in range(5):
            with pytest.raises(InjectedFault):
                plan.maybe_fail("render")
        assert plan.total_injected == 5

    def test_rate_zero_never_fires(self):
        plan = FaultPlan([FaultRule("render", "error", 0.0)])
        for _ in range(20):
            plan.maybe_fail("render")
        assert plan.total_injected == 0

    def test_other_ops_unaffected(self):
        plan = FaultPlan([FaultRule("rebuild", "error", 1.0)])
        plan.maybe_fail("render")           # different op: clean

    def test_deterministic_under_seed(self):
        def decisions(seed):
            plan = FaultPlan([FaultRule("render", "error", 0.4)], seed=seed)
            out = []
            for _ in range(50):
                try:
                    plan.maybe_fail("render")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        assert decisions(3) == decisions(3)
        assert decisions(3) != decisions(4)

    def test_limit_stops_injection(self):
        plan = FaultPlan([FaultRule("rebuild", "error", 1.0, limit=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.maybe_fail("rebuild")
        plan.maybe_fail("rebuild")          # limit reached: faults clear
        assert plan.total_injected == 2

    def test_disable_clears_everything(self):
        plan = FaultPlan([FaultRule("render", "error", 1.0)])
        assert plan.active
        plan.disable()
        assert not plan.active
        plan.maybe_fail("render")
        plan.enable()
        with pytest.raises(InjectedFault):
            plan.maybe_fail("render")

    def test_latency_uses_injected_sleep(self):
        slept = []
        plan = FaultPlan([FaultRule("render", "latency", 1.0, latency_s=0.25)],
                         sleep=slept.append)
        plan.maybe_fail("render")
        assert slept == [0.25]

    def test_mangle_read_corrupts_first_byte(self):
        plan = FaultPlan([FaultRule("cache-read", "corrupt", 1.0)])
        assert plan.mangle_read("cache-read", b"hello") != b"hello"
        plan2 = FaultPlan([])
        assert plan2.mangle_read("cache-read", b"hello") == b"hello"

    def test_mangle_write_truncates(self):
        plan = FaultPlan([FaultRule("persist-write", "partial", 1.0)])
        data = b"0123456789"
        assert plan.mangle_write("persist-write", data) == data[:5]

    def test_stats_shape(self):
        plan = FaultPlan([FaultRule("render", "error", 1.0)], seed=9)
        with pytest.raises(InjectedFault):
            plan.maybe_fail("render")
        stats = plan.stats()
        assert stats["seed"] == 9
        assert stats["injected"] == {"render:error": 1}
        # maybe_fail draws twice: once for latency rules, once for error.
        assert stats["checked"]["render"] == 2


# -- retry policy ----------------------------------------------------------


class TestRetryPolicy:
    def test_first_try_success_never_sleeps(self):
        slept = []
        policy = RetryPolicy(retries=3)
        assert policy.call(lambda: 42, sleep=slept.append) == 42
        assert slept == []

    def test_transient_failures_retried_to_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        assert RetryPolicy(retries=2).call(flaky, sleep=None) == "ok"
        assert len(calls) == 3

    def test_exhaustion_raises_retry_error(self):
        def always():
            raise OSError("down")

        with pytest.raises(RetryError) as excinfo:
            RetryPolicy(retries=2).call(always, sleep=None)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value.last, OSError)

    def test_permanent_error_propagates_immediately(self):
        calls = []

        def missing():
            calls.append(1)
            raise FileNotFoundError("gone")

        with pytest.raises(FileNotFoundError):
            RetryPolicy(retries=5).call(missing, sleep=None)
        assert len(calls) == 1

    def test_is_transient_split(self):
        assert is_transient(OSError("io"))
        assert is_transient(InjectedFault("chaos"))
        assert not is_transient(FileNotFoundError())
        assert not is_transient(PermissionError())
        assert not is_transient(ValueError())

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(retries=4, base_delay_s=0.1, multiplier=2.0,
                             max_delay_s=0.3, jitter=0.0)
        assert list(policy.delays()) == pytest.approx([0.1, 0.2, 0.3, 0.3])

    def test_schedule_first_attempt_is_free(self):
        schedule = list(RetryPolicy(retries=1, base_delay_s=0.5,
                                    jitter=0.0).schedule())
        assert schedule == [(1, 0.0), (2, 0.5)]

    def test_on_retry_hook_sees_each_failure(self):
        seen = []

        def failing():
            raise OSError("x")

        with pytest.raises(RetryError):
            RetryPolicy(retries=2).call(
                failing, sleep=None,
                on_retry=lambda attempt, exc: seen.append(attempt))
        assert seen == [1, 2, 3]


# -- circuit breaker -------------------------------------------------------


class TestCircuitBreaker:
    def make(self, **kwargs):
        clock = FakeClock()
        kwargs.setdefault("failure_threshold", 3)
        kwargs.setdefault("reset_timeout_s", 1.0)
        kwargs.setdefault("jitter", 0.0)
        return CircuitBreaker(clock=clock, **kwargs), clock

    def test_trips_after_threshold(self):
        breaker, _ = self.make()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_the_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_admits_one_trial(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock.advance(1.01)
        assert breaker.allow()              # the half-open trial
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()          # concurrent callers refused

    def test_trial_success_closes_and_resets_backoff(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.01)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.stats()["current_timeout_s"] == pytest.approx(1.0)

    def test_trial_failure_doubles_the_backoff(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(1.01)
        assert breaker.allow()
        breaker.record_failure()            # half-open probe failed
        assert breaker.state == OPEN
        clock.advance(1.5)                  # old timeout would have elapsed
        assert not breaker.allow()          # ...but it doubled to 2s
        clock.advance(0.6)
        assert breaker.allow()

    def test_backoff_caps_at_max(self):
        breaker, clock = self.make(max_timeout_s=4.0)
        for _ in range(3):
            breaker.record_failure()
        for _ in range(5):                  # repeated failed probes
            clock.advance(100.0)
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.stats()["current_timeout_s"] == pytest.approx(4.0)

    def test_jitter_spreads_retry_times(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0,
                                 jitter=0.5, seed=11, clock=clock)
        breaker.record_failure()
        retry_in = breaker.stats()["retry_in_s"]
        assert 1.0 <= retry_in <= 1.5

    def test_stats_shape(self):
        breaker, _ = self.make()
        breaker.record_failure()
        stats = breaker.stats()
        assert stats["state"] == CLOSED
        assert stats["consecutive_failures"] == 1
        assert stats["failures"] == 1
        assert stats["trips"] == 0


# -- deadline --------------------------------------------------------------


class TestDeadline:
    def test_within_budget_passes(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        clock.advance(0.05)
        deadline.check("render")
        assert not deadline.expired
        assert deadline.remaining_s() == pytest.approx(0.05)

    def test_over_budget_raises_with_stage(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        clock.advance(0.25)
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("render-start")
        assert excinfo.value.stage == "render-start"
        assert excinfo.value.elapsed_s == pytest.approx(0.25)
        assert deadline.expired

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError):
            Deadline(0.0)


# -- load shedder ----------------------------------------------------------


class TestLoadShedder:
    def test_sheds_past_watermark(self):
        shedder = LoadShedder(max_inflight=2)
        assert shedder.try_acquire()
        assert shedder.try_acquire()
        assert not shedder.try_acquire()
        assert shedder.stats()["shed"] == 1
        shedder.release()
        assert shedder.try_acquire()

    def test_shed_rate(self):
        shedder = LoadShedder(max_inflight=1)
        shedder.try_acquire()
        shedder.try_acquire()               # shed
        assert shedder.shed_rate() == pytest.approx(0.5)
        stats = shedder.stats()
        assert stats["admitted"] == 1
        assert stats["shed"] == 1
        assert stats["inflight"] == 1

    def test_release_floors_at_zero(self):
        shedder = LoadShedder(max_inflight=1)
        shedder.release()
        assert shedder.try_acquire()


# -- worker pool saturation ------------------------------------------------


class TestPoolSaturation:
    def test_bounded_queue_raises_pool_saturated(self):
        gate = threading.Event()
        pool = WorkerPool(1, max_queue=1)
        try:
            pool.submit(gate.wait)          # occupies the single worker
            deadline = time.monotonic() + 2.0
            while pool.stats()["busy"] < 1:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            pool.submit(lambda: None)       # sits in the queue
            with pytest.raises(PoolSaturated):
                pool.submit(lambda: None)   # queue at watermark
            assert pool.stats()["shed"] == 1
        finally:
            gate.set()
            pool.shutdown()

    def test_unbounded_queue_never_sheds(self):
        pool = WorkerPool(1)
        try:
            for _ in range(64):
                pool.submit(lambda: None)
            assert pool.drain(timeout_s=5.0)
            assert pool.stats()["shed"] == 0
        finally:
            pool.shutdown()


# -- background rebuilder + breaker ---------------------------------------


class TestBackgroundRebuilder:
    def make(self, content, faults=None, breaker=None):
        manager = RebuildManager(content, faults=faults)
        rebuilder = BackgroundRebuilder(manager, breaker=breaker,
                                        debounce_s=0.0, poll_interval_s=None)
        return manager, rebuilder

    def test_run_once_noop_without_changes(self, content):
        _, rebuilder = self.make(content)
        assert rebuilder.run_once() is None
        assert not rebuilder.stale

    def test_run_once_picks_up_edits(self, content):
        manager, rebuilder = self.make(content)
        edit(content)
        result = rebuilder.run_once()
        assert result is not None and result.ok
        assert "/activities/gardeners/" in result.dirty_urls

    def test_thread_rebuilds_on_poke(self, content):
        # The pre-fork control socket's ``poke`` verb lands here: a burst
        # of pokes sleeps one debounce window, then rebuilds once.
        manager = RebuildManager(content)
        results, sleeps = [], []

        def sleep(seconds):
            sleeps.append(seconds)
            time.sleep(seconds)

        rebuilder = BackgroundRebuilder(manager, debounce_s=0.1,
                                        poll_interval_s=None,
                                        on_result=results.append, sleep=sleep)
        rebuilder.start()
        try:
            edit(content)
            for _ in range(5):
                rebuilder.poke()
            deadline = time.monotonic() + 5.0
            while not results:
                assert time.monotonic() < deadline, "rebuild never happened"
                time.sleep(0.005)
            time.sleep(0.2)
            assert len(results) == 1 and results[0].ok
            assert sleeps == [0.1]
            assert rebuilder.stats()["attempts"] == 1
        finally:
            rebuilder.stop()
        assert not rebuilder.running

    def test_failures_trip_breaker_and_skip_attempts(self, content):
        faults = FaultPlan([FaultRule("rebuild", "error", 1.0)])
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=1.0,
                                 jitter=0.0, clock=clock)
        manager, rebuilder = self.make(content, faults=faults, breaker=breaker)
        edit(content)

        result = rebuilder.run_once()
        assert result is not None and not result.ok
        assert manager.last_error is not None
        assert rebuilder.stale
        assert breaker.state == CLOSED

        rebuilder.run_once()                # second failure: trips
        assert breaker.state == OPEN
        assert rebuilder.run_once() is None  # open: attempt skipped
        assert rebuilder.stats()["skipped_while_open"] == 1

        # Faults clear; after the backoff the half-open probe heals.
        faults.disable()
        clock.advance(1.01)
        probe = rebuilder.run_once()
        assert probe is not None and probe.ok
        assert breaker.state == CLOSED
        assert manager.last_error is None
        assert not rebuilder.stale

    def test_old_generation_survives_failed_rebuilds(self, content):
        faults = FaultPlan([FaultRule("rebuild", "error", 1.0)])
        manager, rebuilder = self.make(content, faults=faults)
        before = manager.state
        edit(content)
        rebuilder.run_once()
        assert manager.state is before      # still serving the old catalog

    def test_noop_scan_heals_half_open_breaker(self, content):
        # Rebuild failed, the offending edit was reverted, the breaker
        # half-opens: the probe finds nothing to rebuild (fingerprint was
        # restored on failure, then the revert matched it again) — that
        # must close the breaker, not wedge it half-open forever.
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout_s=1.0,
                                 jitter=0.0, clock=clock)
        faults = FaultPlan([FaultRule("rebuild", "error", 1.0, limit=1)])
        manager, rebuilder = self.make(content, faults=faults, breaker=breaker)
        page = content / "gardeners.md"
        original = page.read_text(encoding="utf-8")
        stat = page.stat()
        edit(content)
        rebuilder.run_once()
        assert breaker.state == OPEN
        page.write_text(original, encoding="utf-8")
        import os
        os.utime(page, ns=(stat.st_mtime_ns, stat.st_mtime_ns))
        clock.advance(1.01)
        assert rebuilder.run_once() is None  # nothing changed
        assert breaker.state == CLOSED


# -- the degradation ladder, app level ------------------------------------


class TestStaleServing:
    def test_rebuild_failure_serves_stale_then_recovers(self, content):
        faults = FaultPlan([FaultRule("rebuild", "error", 1.0)])
        app = create_app(content_dir=content, watch=False,
                         breaker_threshold=2, breaker_reset_s=0.05,
                         faults=faults)
        try:
            fresh = call_app(app, "/")
            assert fresh.status == 200
            assert "X-Stale" not in fresh.headers

            edit(content)
            app.background.run_once()       # fails; old generation pinned
            stale = call_app(app, "/")
            assert stale.status == 200      # never fail closed
            assert stale.headers["X-Stale"] == "1"
            assert "110" in stale.headers["Warning"]

            app.background.run_once()       # second failure trips the breaker
            assert app.background.breaker.state == OPEN
            ready = call_app(app, "/readyz")
            assert ready.status == 503
            assert ready.headers["Retry-After"] == "1"
            # Liveness is unaffected: the process still answers.
            assert call_app(app, "/healthz").status == 200

            faults.disable()
            deadline = time.monotonic() + 5.0
            while not app.background.breaker.closed:
                assert time.monotonic() < deadline, "breaker never closed"
                time.sleep(0.02)
                app.background.run_once()
            recovered = call_app(app, "/")
            assert recovered.status == 200
            assert "X-Stale" not in recovered.headers
            assert call_app(app, "/readyz").status == 200
            assert app.metrics.snapshot()["resilience"]["stale_served"] >= 1
        finally:
            app.close()

    def test_stale_marker_carries_into_304(self, content):
        faults = FaultPlan([FaultRule("rebuild", "error", 1.0)])
        app = create_app(content_dir=content, watch=False, faults=faults)
        try:
            etag = call_app(app, "/").headers["ETag"]
            edit(content)
            app.background.run_once()
            response = call_app(app, "/", headers={"If-None-Match": etag})
            assert response.status == 304
            assert response.headers["X-Stale"] == "1"
        finally:
            app.close()


class TestDeadlines:
    def test_slow_render_expires_the_budget(self, content):
        faults = FaultPlan(
            [FaultRule("render", "latency", 1.0, latency_s=0.05)])
        app = create_app(content_dir=content, watch=False, faults=faults,
                         request_timeout_ms=10)
        response = call_app(app, "/")
        assert response.status == 503
        assert response.headers["Retry-After"] == "1"
        assert app.metrics.snapshot()["resilience"]["deadline_expired"] == 1

        # The over-budget render was not wasted: its body landed in the
        # cache, so the retry the 503 asked for is an instant hit.
        faults.disable()
        retry = call_app(app, "/")
        assert retry.status == 200
        assert retry.headers["X-Cache"] == "hit"

    def test_fast_requests_unaffected_by_budget(self, content):
        app = create_app(content_dir=content, watch=False,
                         request_timeout_ms=5000)
        assert call_app(app, "/").status == 200
        assert call_app(app, "/api/activities").status == 200


class TestDegradedRenders:
    def test_failing_render_degrades_to_503_not_500(self, content):
        faults = FaultPlan([FaultRule("render", "error", 1.0)])
        app = create_app(content_dir=content, watch=False, faults=faults)
        response = call_app(app, "/")
        assert response.status == 503
        assert response.headers["Retry-After"] == "1"
        assert app.metrics.snapshot()["resilience"]["degraded"] == 1

    def test_transient_render_fault_absorbed_by_retry(self, content):
        faults = FaultPlan([FaultRule("render", "error", 1.0, limit=1)])
        app = create_app(content_dir=content, watch=False, faults=faults)
        # One injected failure, one retry: the client never notices.
        assert call_app(app, "/").status == 200
        assert faults.total_injected == 1


class TestSafetyNet:
    def test_unhandled_error_leaves_its_traceback_in_wsgi_errors(
            self, content, monkeypatch):
        app = create_app(content_dir=content, watch=False)

        def boom(*args, **kwargs):
            raise RuntimeError("dispatch exploded")

        monkeypatch.setattr(app, "_dispatch", boom)
        streams = []

        def recording(environ, start_response):
            streams.append(environ["wsgi.errors"])
            return app(environ, start_response)

        response = call_app(recording, "/")
        assert response.status == 500
        assert b"dispatch exploded" not in response.body
        trace = streams[0].getvalue()
        assert "Traceback" in trace
        assert "RuntimeError: dispatch exploded" in trace


class TestRetryAfterBounds:
    """Deadline and degraded 503s price Retry-After like the shed path."""

    FAULTS = {
        "deadline": (FaultRule("render", "latency", 1.0, latency_s=0.05),
                     10, "deadline_expired"),
        "degraded": (FaultRule("render", "error", 1.0), None, "degraded"),
    }

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    @pytest.mark.parametrize("base_s", [None, 0.01, 5.0, 3600.0])
    def test_hint_is_a_bounded_integer(self, content, kind, base_s):
        rule, timeout_ms, counter = self.FAULTS[kind]
        app = create_app(content_dir=content, watch=False,
                         faults=FaultPlan([rule]),
                         request_timeout_ms=timeout_ms,
                         max_inflight=4 if base_s is not None else None)
        if base_s is not None:
            app.shedder.retry_after_s = base_s
        response = call_app(app, "/")
        assert response.status == 503
        assert app.metrics.snapshot()["resilience"][counter] == 1
        hint = int(response.headers["Retry-After"])
        assert 1 <= hint <= MAX_RETRY_AFTER_S
        if base_s is not None:
            assert hint == bounded_retry_after(base_s)


class TestShedding:
    def test_shed_past_the_watermark(self, content):
        app = create_app(content_dir=content, watch=False, max_inflight=1)
        assert app.shedder.try_acquire()     # steal the only slot
        try:
            response = call_app(app, "/")
            assert response.status == 503
            assert response.headers["Retry-After"] == "1"
        finally:
            app.shedder.release()
        assert app.metrics.snapshot()["resilience"]["shed"] == 1
        assert call_app(app, "/").status == 200

    def test_burst_sheds_but_never_500s(self, content):
        faults = FaultPlan(
            [FaultRule("render", "latency", 1.0, latency_s=0.005)])
        app = create_app(content_dir=content, watch=False, max_inflight=1,
                         cache_enabled=False, faults=faults)
        paths = LoadGenerator.for_app(app, seed=5).sample(80)
        report = run_load_concurrent(app, paths, clients=4, revalidate=False)
        assert report.requests == 80
        assert report.unhandled_errors == 0
        assert report.shed > 0              # the burst actually shed
        assert set(report.statuses) <= {200, 503}
        assert report.shed_rate == pytest.approx(
            report.shed / report.requests)


class TestOpsEndpoints:
    def test_healthz_is_liveness_only(self, content):
        app = create_app(content_dir=content, watch=False)
        response = call_app(app, "/healthz")
        assert response.status == 200
        assert b'"ok"' in response.body

    def test_readyz_payload_when_healthy(self, content):
        app = create_app(content_dir=content, watch=False, max_inflight=8)
        try:
            response = call_app(app, "/readyz")
            assert response.status == 200
            body = response.body.decode("utf-8")
            assert '"ready": true' in body
            assert '"breaker": "closed"' in body
        finally:
            app.close()

    def test_metrics_expose_the_resilience_counters(self, content):
        faults = FaultPlan([FaultRule("render", "error", 1.0, limit=1)])
        app = create_app(content_dir=content, watch=False, faults=faults,
                         max_inflight=4)
        try:
            call_app(app, "/")
            import json as json_mod
            payload = json_mod.loads(call_app(app, "/api/metrics").body)
            resilience = payload["resilience"]
            assert resilience["faults"]["total_injected"] == 1
            assert resilience["load_shedder"]["max_inflight"] == 4
            assert resilience["rebuild_thread"]["breaker"]["state"] == "closed"
            assert resilience["stale"] is False
        finally:
            app.close()


# -- acceptance: the chaos run ---------------------------------------------


class TestChaosAcceptance:
    def test_chaos_run_has_zero_unhandled_errors(self, content, tmp_path):
        """The ISSUE acceptance bar: 30% rebuild faults + 5% cache-read
        faults, concurrent edits, zero unhandled 5xx, breaker recovery."""
        faults = parse_fault_spec(
            "rebuild:error@0.3,cache-read:error@0.05", seed=13)
        app = create_app(content_dir=content, cache_dir=tmp_path / "cache",
                         watch=False,
                         breaker_threshold=2, breaker_reset_s=0.02,
                         faults=faults)
        try:
            stream = LoadGenerator.for_app(app, seed=13, api_ratio=0.2)
            report = run_load(app, stream.sample_requests(60))
            for round_no in range(6):
                edit(content, suffix=f"\nChaos round {round_no}.\n")
                app.background.run_once()
                report.merge(run_load(app, stream.sample_requests(40)))

            assert report.unhandled_errors == 0
            assert all(status in (200, 304, 503)
                       for status in report.statuses)
            assert faults.total_injected > 0   # chaos actually happened

            # Once the faults clear, the breaker must close again.
            faults.disable()
            edit(content, suffix="\nAll clear.\n")
            deadline = time.monotonic() + 5.0
            while not app.background.breaker.closed:
                assert time.monotonic() < deadline, "breaker never closed"
                time.sleep(0.02)
                app.background.run_once()
            assert call_app(app, "/readyz").status == 200
            assert call_app(app, "/").status == 200
        finally:
            app.close()

    def test_p99_under_concurrent_edits_stays_in_budget(self, content):
        """No request latency includes a catalog re-scan: with the
        background pipeline, p99 under concurrent edits stays within a
        budget far below one rebuild's cost."""
        app = create_app(content_dir=content, watch=True,
                         watch_interval_s=0.01, debounce_s=0.0)
        try:
            run_load(app, LoadGenerator.for_app(app, seed=2).sample(30),
                     revalidate=False)       # warm the cache

            stop = threading.Event()

            def editor():
                round_no = 0
                while not stop.is_set():
                    edit(content, suffix=f"\nEdit {round_no}.\n")
                    round_no += 1
                    time.sleep(0.01)

            thread = threading.Thread(target=editor)
            thread.start()
            try:
                paths = LoadGenerator.for_app(app, seed=3).sample(300)
                report = run_load_concurrent(app, paths, clients=4,
                                             revalidate=False)
            finally:
                stop.set()
                thread.join()
            assert report.unhandled_errors == 0
            # One full catalog rebuild costs tens of ms; request latency
            # must never include one.  Generous CI budget, still far
            # below the rebuild cost the inline path would pay.
            assert report.latency_percentile_ms(99) < 250.0
        finally:
            app.close()


class TestChaosAcceptanceLive:
    """The same chaos bar over real sockets, for both worker models.

    The pre-fork acceptance criterion: the chaos suite passes *unchanged*
    with ``--worker-model process`` — injected rebuild faults plus a
    concurrent edit loop must never surface an unhandled 5xx, in either
    topology.
    """

    @pytest.mark.parametrize("worker_model", ["thread", "process"])
    def test_chaos_over_http_zero_unhandled_errors(self, worker_model,
                                                   content, tmp_path):
        from repro.serve import create_app as make_app, create_server
        from repro.serve.loadgen import run_load_http
        from repro.serve.prefork import PreforkServer

        probe = make_app(content_dir=content, watch=False)
        urls = [t.url for t in probe.state.plan[:12]] + ["/api/activities"]
        probe.close()

        kwargs = dict(content_dir=str(content),
                      cache_dir=str(tmp_path / "cache"),
                      watch=True, watch_interval_s=0.05, debounce_s=0.0,
                      breaker_threshold=2, breaker_reset_s=0.05,
                      fault_spec="rebuild:error@0.3", fault_seed=13)
        if worker_model == "thread":
            server, app = create_server(port=0, quiet=True, workers=2,
                                        **kwargs)
            thread = threading.Thread(target=server.serve_forever,
                                      daemon=True)
            thread.start()
            base = f"http://127.0.0.1:{server.server_address[1]}"

            def stop():
                server.shutdown()
                thread.join(timeout=5.0)
                server.server_close()
                app.close()
        else:
            fleet = PreforkServer(port=0, workers=2, quiet=True, **kwargs)
            fleet.start()
            assert fleet.wait_ready(timeout_s=60.0), "fleet never ready"
            base = fleet.base_url
            stop = fleet.stop
        try:
            report = run_load_http(base, urls, clients=2)
            for round_no in range(4):
                edit(content, suffix=f"\nLive chaos round {round_no}.\n")
                time.sleep(0.1)        # let a watch poll land the rebuild
                report.merge(run_load_http(base, urls * 3, clients=2))

            assert report.unhandled_errors == 0
            assert report.transport_errors == 0
            assert set(report.statuses) <= {200, 304, 503}
            assert report.requests == len(urls) * 13
        finally:
            stop()
