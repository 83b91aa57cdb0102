"""Resilience primitives: circuit breaker, request deadlines, load shedding.

The degradation ladder the serving layer follows under failure, from
least to most degraded:

1. **Serve fresh** — the normal path.
2. **Serve stale** — rebuilds are failing (or the breaker is open): keep
   answering from the last good generation, marked with a
   ``Warning: 110`` header.  Never fail closed to users because the
   *content pipeline* is sick.
3. **Shed** — the process itself is saturated: answer ``503`` with
   ``Retry-After`` *cheaply* rather than queueing unboundedly and
   timing everyone out.

:class:`CircuitBreaker` guards the rebuild pipeline (state machine
CLOSED → OPEN → HALF_OPEN with exponential backoff + seeded jitter);
:class:`Deadline` is the per-request time budget checked at render
boundaries (cooperative — a thread cannot be preempted, so the budget is
enforced at the points where slow work starts and ends); and
:class:`LoadShedder` is the bounded-concurrency watermark.

All three take injectable clocks/RNG seeds, so chaos tests replay
deterministically.
"""

from __future__ import annotations

import random
import threading
import time

__all__ = ["CircuitBreaker", "Deadline", "DeadlineExceeded",
           "LoadShedder", "bounded_retry_after",
           "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Never tell a client to back off longer than this many seconds.
MAX_RETRY_AFTER_S = 60


def bounded_retry_after(seconds: float, max_s: float = MAX_RETRY_AFTER_S) -> int:
    """Clamp a computed back-off hint to a bounded positive integer.

    Every refusal path — shedder 503s, queue-saturation 503s, and the
    tenancy edge's 429s — formats ``Retry-After`` through this helper so
    clients always see an integer in ``[1, max_s]``: never zero (which
    some clients treat as "retry immediately, in a tight loop") and
    never an hour-long lockout from a transient pressure spike.
    """
    return int(min(max(1, round(seconds)), max_s))


class CircuitBreaker:
    """Trip after N consecutive failures; half-open with backoff + jitter.

    * **closed** — operations proceed; consecutive failures are counted.
    * **open** — operations are refused until the current backoff
      elapses.  Each re-trip doubles the backoff (capped), with a seeded
      jitter fraction so a fleet of breakers does not retry in lockstep.
    * **half-open** — exactly one trial operation is admitted; success
      closes the breaker (and resets the backoff), failure re-opens it.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout_s: float = 1.0,
        max_timeout_s: float = 30.0,
        multiplier: float = 2.0,
        jitter: float = 0.2,
        seed: int = 0,
        clock=time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout_s <= 0:
            raise ValueError("reset_timeout_s must be > 0")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")
        self.failure_threshold = failure_threshold
        self.reset_timeout_s = reset_timeout_s
        self.max_timeout_s = max_timeout_s
        self.multiplier = multiplier
        self.jitter = jitter
        self._clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._current_timeout_s = reset_timeout_s
        self._retry_at: float | None = None
        self._trips = 0
        self._successes = 0
        self._failures = 0

    # -- state machine -------------------------------------------------------

    def allow(self) -> bool:
        """Whether the caller may attempt the guarded operation now.

        In the open state, the first call after the backoff elapses is
        admitted as the half-open trial; concurrent callers are refused
        until that trial reports back.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                now = self._clock()
                if self._retry_at is not None and now >= self._retry_at:
                    self._state = HALF_OPEN
                    return True
                return False
            return False                 # HALF_OPEN: trial already in flight

    def record_success(self) -> None:
        with self._lock:
            self._successes += 1
            self._consecutive_failures = 0
            if self._state != CLOSED:
                self._current_timeout_s = self.reset_timeout_s
            self._state = CLOSED
            self._retry_at = None

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._trip_locked(backoff=True)
            elif self._state == CLOSED \
                    and self._consecutive_failures >= self.failure_threshold:
                self._trip_locked(backoff=False)

    def _trip_locked(self, backoff: bool) -> None:
        if backoff:
            self._current_timeout_s = min(
                self._current_timeout_s * self.multiplier, self.max_timeout_s)
        timeout = self._current_timeout_s
        if self.jitter:
            timeout += self._rng.uniform(0.0, timeout * self.jitter)
        self._state = OPEN
        self._retry_at = self._clock() + timeout
        self._trips += 1

    # -- observability -------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def closed(self) -> bool:
        return self.state == CLOSED

    def stats(self) -> dict:
        with self._lock:
            retry_in = None
            if self._retry_at is not None:
                retry_in = max(0.0, self._retry_at - self._clock())
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "trips": self._trips,
                "successes": self._successes,
                "failures": self._failures,
                "current_timeout_s": round(self._current_timeout_s, 4),
                "retry_in_s": round(retry_in, 4) if retry_in is not None else None,
            }


class DeadlineExceeded(Exception):
    """A request exhausted its time budget; ``stage`` names where."""

    def __init__(self, stage: str, budget_s: float, elapsed_s: float):
        super().__init__(f"deadline exceeded at {stage}: "
                         f"{elapsed_s * 1e3:.1f} ms > {budget_s * 1e3:.1f} ms budget")
        self.stage = stage
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s


class Deadline:
    """A per-request time budget, checked cooperatively at stage edges.

    Threads cannot be preempted mid-render, so the budget is enforced at
    the boundaries where slow work starts and finishes: a render that
    overruns is detected the moment it returns, and subsequent stages
    (for the same request) refuse to start.
    """

    __slots__ = ("budget_s", "_started", "_clock")

    def __init__(self, budget_s: float, clock=time.perf_counter):
        if budget_s <= 0:
            raise ValueError("deadline budget must be > 0")
        self.budget_s = budget_s
        self._clock = clock
        self._started = clock()

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._started

    def remaining_s(self) -> float:
        return self.budget_s - self.elapsed_s

    @property
    def expired(self) -> bool:
        return self.remaining_s() <= 0

    def check(self, stage: str) -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        elapsed = self.elapsed_s
        if elapsed >= self.budget_s:
            raise DeadlineExceeded(stage, self.budget_s, elapsed)


class LoadShedder:
    """Bounded admission: past the watermark, requests are shed cheaply.

    ``try_acquire`` admits a request while fewer than ``max_inflight``
    are active, else counts a shed; the caller answers the shed request
    with ``503`` + ``Retry-After`` without doing any rendering work —
    the whole point is that refusing is orders of magnitude cheaper than
    serving, so the server stays responsive under bursts instead of
    queueing into timeout territory.
    """

    def __init__(self, max_inflight: int, retry_after_s: float = 1.0):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.max_inflight = max_inflight
        self.retry_after_s = retry_after_s
        self._lock = threading.Lock()
        self._inflight = 0
        self._admitted = 0
        self._shed = 0
        self._shed_streak = 0       # consecutive sheds since the last admit

    def try_acquire(self) -> bool:
        with self._lock:
            if self._inflight >= self.max_inflight:
                self._shed += 1
                self._shed_streak += 1
                return False
            self._inflight += 1
            self._admitted += 1
            self._shed_streak = 0
            return True

    def release(self) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - 1)

    def retry_after(self) -> int:
        """Back-off hint, in whole seconds, derived from current pressure.

        Inflight saturation alone is binary (``_inflight`` never exceeds
        the watermark), so sustained overload shows up as the *streak* of
        consecutive sheds: the hint grows by one base interval per
        ``4 × max_inflight`` uninterrupted sheds, bounded by
        :func:`bounded_retry_after` — light brushes against the
        watermark still say "1", a hammered server tells clients to back
        off progressively longer.
        """
        with self._lock:
            pressure = self._shed_streak / (4.0 * self.max_inflight)
        return bounded_retry_after(self.retry_after_s * (1.0 + pressure))

    def shed_rate(self) -> float:
        with self._lock:
            seen = self._admitted + self._shed
            return self._shed / seen if seen else 0.0

    def stats(self) -> dict:
        with self._lock:
            seen = self._admitted + self._shed
            return {
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "admitted": self._admitted,
                "shed": self._shed,
                "shed_rate": round(self._shed / seen, 4) if seen else 0.0,
                "retry_after_s": self.retry_after_s,
            }
