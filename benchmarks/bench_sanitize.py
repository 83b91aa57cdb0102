"""EXPERIMENT S-SAN -- what the concurrency sanitizer costs at runtime.

Bounds the two costs nothing else measures:

* uncontended acquire/release of an :class:`InstrumentedLock` vs a raw
  ``threading.Lock`` (the serve hot path: every cache hit takes
  ``PageCache._lock`` once),
* the inactive-facade fast path: ``register_lock`` with no sanitizer
  active must stay a constant-time no-op.

The acceptance check bounds the *relative* overhead generously (50x)
rather than asserting wall-clock numbers: the sanitizer is a debugging
mode, its contract is "usable under test load", not "free".
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import sanitize
from repro.sanitize.core import Sanitizer

ROUNDS = 5_000

#: The sanitizer may cost up to this factor over bare stdlib on the
#: uncontended paths.  Deliberately loose: shared-runner noise must not
#: flake CI; real regressions (an accidental O(n) scan per acquire)
#: overshoot this by orders of magnitude.
MAX_OVERHEAD = 50.0


def _time(fn) -> float:
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def _spin_lock(lock, rounds: int = ROUNDS):
    def run():
        for _ in range(rounds):
            with lock:
                pass
    return run


def test_lock_overhead_bounded():
    """The acceptance check: instrumentation stays within its envelope."""
    san = Sanitizer()
    bare = threading.Lock()
    instrumented = san.wrap(threading.Lock(), "bench.lock")
    _spin_lock(bare, 100)()               # warm both paths
    _spin_lock(instrumented, 100)()
    bare_s = _time(_spin_lock(bare))
    instrumented_s = _time(_spin_lock(instrumented))
    overhead = instrumented_s / max(bare_s, 1e-9)
    print()
    print(f"sanitize: bare lock {bare_s*1e3:,.1f} ms, instrumented "
          f"{instrumented_s*1e3:,.1f} ms ({overhead:.1f}x, "
          f"{ROUNDS:,} round trips)")
    assert overhead < MAX_OVERHEAD
    assert san.counters()["locks"]["bench.lock"]["acquires"] >= ROUNDS


def test_inactive_facade_is_free():
    """With no sanitizer active the register hook must stay a no-op."""
    if sanitize.current() is not None:
        pytest.skip("session sanitized")

    class Holder:
        def __init__(self):
            self._lock = threading.Lock()
            sanitize.register_lock(self, "_lock", "Holder._lock")

    def construct():
        for _ in range(ROUNDS):
            Holder()

    construct()                           # warm
    inactive_s = _time(construct)
    # Sub-microsecond per construction on any hardware this runs on;
    # bound at 50us each to stay unflakeable.
    assert inactive_s / ROUNDS < 50e-6
    holder = Holder()
    assert isinstance(holder._lock, type(threading.Lock()))
