"""Stall watchdog, lock-order graph, and instrumented-lock semantics."""

from __future__ import annotations

import threading
import time

from repro.sanitize.core import (
    InstrumentedCondition,
    InstrumentedLock,
    Sanitizer,
)


def _in_thread(fn) -> None:
    thread = threading.Thread(target=fn)
    thread.start()
    thread.join()


class TestWatchdog:
    def test_hold_past_budget_is_a_stall(self):
        san = Sanitizer(hold_budget_ms=10)
        lock = san.wrap(threading.Lock(), "slow.lock")
        with lock:
            time.sleep(0.03)
        counters = san.counters()
        assert counters["stalls"] == 1
        assert counters["locks"]["slow.lock"]["stalls"] == 1
        diags = [d for d in san.diagnostics()
                 if d.rule_id == "sanitize-lock-stall"]
        assert len(diags) == 1
        assert "slow.lock" in diags[0].message
        assert diags[0].file == __file__

    def test_stall_message_carries_no_duration(self):
        """Durations vary run to run; baselining keys on the message."""
        san = Sanitizer(hold_budget_ms=5)
        lock = san.wrap(threading.Lock(), "slow.lock")
        with lock:
            time.sleep(0.02)
        (diag,) = [d for d in san.diagnostics()
                   if d.rule_id == "sanitize-lock-stall"]
        assert not any(ch.isdigit() for ch in diag.message)

    def test_budget_none_exempts_the_site(self):
        san = Sanitizer(hold_budget_ms=5)
        lock = san.wrap(threading.Lock(), "rebuild.lock",
                        stall_budget_ms=None)
        with lock:
            time.sleep(0.02)
        assert san.counters()["stalls"] == 0
        assert not [d for d in san.diagnostics()
                    if d.rule_id == "sanitize-lock-stall"]

    def test_fast_holds_do_not_stall(self):
        san = Sanitizer(hold_budget_ms=250)
        lock = san.wrap(threading.Lock(), "fast.lock")
        for _ in range(50):
            with lock:
                pass
        counters = san.counters()["locks"]["fast.lock"]
        assert counters["stalls"] == 0
        assert counters["acquires"] == 50
        assert counters["hold"]["count"] == 50

    def test_condition_wait_is_not_a_stall(self):
        """The lock is *released* during wait(); a timed-out wait far
        past the budget must not read as a hold."""
        san = Sanitizer(hold_budget_ms=10)
        cond = san.wrap(threading.Condition(), "bg.cond")
        assert isinstance(cond, InstrumentedCondition)
        with cond:
            cond.wait(timeout=0.05)
        assert san.counters()["stalls"] == 0

    def test_condition_notify_wakes_waiter(self):
        san = Sanitizer()
        cond = san.wrap(threading.Condition(), "bg.cond")
        ready = threading.Event()
        woke = []

        def waiter():
            with cond:
                ready.set()
                woke.append(cond.wait(timeout=2.0))

        thread = threading.Thread(target=waiter)
        thread.start()
        ready.wait(2.0)
        time.sleep(0.01)              # let the waiter enter wait()
        with cond:
            cond.notify_all()
        thread.join(2.0)
        assert woke == [True]


class TestLockSemantics:
    def test_nonblocking_acquire_contract(self):
        san = Sanitizer()
        lock = san.wrap(threading.Lock(), "L")
        assert lock.acquire(blocking=False) is True
        _in_thread(lambda: (lock.acquire(blocking=False),))
        assert san.counters()["locks"]["L"]["contended"] >= 1
        lock.release()
        assert not lock.locked()

    def test_rlock_reentry_counts_one_hold(self):
        san = Sanitizer()
        lock = san.wrap(threading.RLock(), "R")
        assert isinstance(lock, InstrumentedLock)
        with lock:
            with lock:
                pass
        counters = san.counters()["locks"]["R"]
        assert counters["acquires"] == 2
        assert counters["hold"]["count"] == 1

    def test_cross_thread_release_does_not_crash(self):
        """A bare Lock used as a signal: acquired here, released there."""
        san = Sanitizer()
        lock = san.wrap(threading.Lock(), "signal")
        lock.acquire()
        _in_thread(lock.release)
        assert not lock.locked()

    def test_double_wrap_is_identity(self):
        san = Sanitizer()
        lock = san.wrap(threading.Lock(), "L")
        assert san.wrap(lock, "L") is lock


class TestLockOrder:
    def test_consistent_order_records_edges_no_cycle(self):
        san = Sanitizer()
        lock_a = san.wrap(threading.Lock(), "A")
        lock_b = san.wrap(threading.Lock(), "B")
        with lock_a:
            with lock_b:
                pass
        counters = san.counters()
        assert counters["order_edges"] == 1
        assert counters["order_cycles"] == 0

    def test_inversion_reports_runtime_cycle(self):
        san = Sanitizer()
        lock_a = san.wrap(threading.Lock(), "A")
        lock_b = san.wrap(threading.Lock(), "B")
        with lock_a:
            with lock_b:
                pass

        def reversed_order():
            with lock_b:
                with lock_a:
                    pass

        _in_thread(reversed_order)
        (diag,) = [d for d in san.diagnostics()
                   if d.rule_id == "sanitize-lock-order"]
        assert "runtime lock-order inversion among A, B" in diag.message
        assert "A held while taking B" in diag.message
        assert "B held while taking A" in diag.message


class TestLockHistograms:
    """``counters()`` wait/hold summaries from the shared histogram."""

    def test_wait_and_hold_summaries_after_known_observations(self):
        san = Sanitizer()
        san.wrap(threading.Lock(), "wait.site", stall_budget_ms=None)
        san.wrap(threading.Lock(), "hold.site", stall_budget_ms=None)
        wait_site, hold_site = san.sites["wait.site"], san.sites["hold.site"]
        for wait_s in [0.0003] * 10 + [0.0015] * 10:
            san._note_acquired(wait_site, wait_s)
            san._note_released(wait_site)
        for hold_s in (0.004, 0.006, 0.02):
            san._record_hold(hold_site, hold_s)

        locks = san.counters()["locks"]
        wait = locks["wait.site"]["wait"]
        assert wait["count"] == 20
        assert wait["mean_ms"] == 0.9
        assert wait["max_ms"] == 1.5
        # Rank 19 of 20 falls in the (1 ms, 2.5 ms] bucket.
        assert 1.0 < wait["p95_ms"] <= 2.5
        hold = locks["hold.site"]["hold"]
        assert set(hold) == {"count", "mean_ms", "p95_ms", "max_ms"}
        assert (hold["count"], hold["mean_ms"], hold["max_ms"]) == \
            (3, 10.0, 20.0)
        # Rank 2.85 of 3 falls in the (10 ms, 25 ms] bucket, capped by max.
        assert 10.0 < hold["p95_ms"] <= 20.0
