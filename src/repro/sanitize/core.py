"""The sanitizer collector: instrumented locks, locksets, watchdog.

Three cooperating pieces live here:

* :class:`InstrumentedLock` / :class:`InstrumentedCondition` — thin
  wrappers installed at registered lock sites.  Every successful
  acquire pushes the site onto the acquiring thread's lockset and
  records held-before edges against whatever that thread already
  holds; every release pops it and feeds the hold-time histogram.
* :class:`Sanitizer` — the process-wide collector: per-site wait/hold
  histograms (:class:`repro.histogram.LatencyHistogram`), the global
  lock-order graph, the stall watchdog, and the Eraser race table
  (:mod:`repro.sanitize.lockset`).
* ``diagnostics()`` — renders everything observed as ordinary lint
  :class:`~repro.lint.diagnostics.Diagnostic` rows so the existing
  suppression / severity-override / baseline / reporter machinery
  applies unchanged.

Internal-lock discipline: the sanitizer's own mutex (``_mu``) is only
ever taken *while* user locks may be held, never the other way around
— no user lock is acquired under ``_mu`` — so instrumentation cannot
introduce a deadlock that the uninstrumented program lacked.

Diagnostic messages deliberately exclude durations, thread ids, and
counts: baseline entries key on ``(rule, file, message)`` and the
seeded-race acceptance test requires byte-identical reports across
runs.  Measured values travel in :meth:`Sanitizer.counters` instead.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.histogram import LatencyHistogram
from repro.lint.diagnostics import Diagnostic, Severity, make, rule
from repro.lint.lockgraph import _strongly_connected
from repro.sanitize import DEFAULT_BUDGET
from repro.sanitize.lockset import RaceTable, SharedProxy, caller_site

rule("sanitize-data-race", "sanitize", Severity.ERROR,
     "write to a shared field with an empty candidate lockset")
rule("sanitize-lock-stall", "sanitize", Severity.WARNING,
     "lock held past its stall budget (blocking work under lock)")
rule("sanitize-lock-order", "sanitize", Severity.WARNING,
     "runtime lock-order inversion (locks acquired in both orders)")
rule("sanitize-crossref", "sanitize", Severity.INFO,
     "static concurrency finding confirmed/unobserved at runtime")

#: Waits shorter than this don't count as contention (scheduler noise).
_CONTENTION_FLOOR_S = 1e-3

#: Lock wait/hold bucket bounds, seconds: 1-2.5-5 steps from 1 µs to 50 s.
_LOCK_BUCKETS_S = tuple(mantissa * 10.0 ** exponent
                       for exponent in range(-6, 2)
                       for mantissa in (1.0, 2.5, 5.0))


def _snapshot_ms(hist: LatencyHistogram) -> dict[str, float]:
    return {
        "count": hist.count,
        "mean_ms": round(hist.mean_s * 1e3, 3),
        "p95_ms": round(hist.percentile(95) * 1e3, 3),
        "max_ms": round(hist.max_s * 1e3, 3),
    }


@dataclass
class LockSite:
    """Aggregated observations for one named lock site."""

    name: str
    budget_s: float | None                  # None: stall-watchdog exempt
    acquires: int = 0
    contended: int = 0
    stalls: int = 0
    wait_hist: LatencyHistogram = field(
        default_factory=lambda: LatencyHistogram(_LOCK_BUCKETS_S))
    hold_hist: LatencyHistogram = field(
        default_factory=lambda: LatencyHistogram(_LOCK_BUCKETS_S))
    #: Worst over-budget hold: (hold_s, release-site file, line).
    worst_stall: tuple[float, str, int] | None = None


class _Held:
    """One entry in a thread's lockset (depth counts RLock re-entry)."""

    __slots__ = ("site", "depth", "t0")

    def __init__(self, site: LockSite, t0: float) -> None:
        self.site = site
        self.depth = 1
        self.t0 = t0


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.held: list[_Held] = []


class InstrumentedLock:
    """Wrapper over ``threading.Lock``/``RLock`` at a registered site."""

    __slots__ = ("_inner", "_site", "_san")

    def __init__(self, inner: Any, site: LockSite, san: "Sanitizer") -> None:
        self._inner = inner
        self._site = site
        self._san = san

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        t0 = perf_counter()
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._san._note_acquired(self._site, perf_counter() - t0)
        else:
            self._san._note_failed_acquire(self._site)
        return got

    def release(self) -> None:
        self._inner.release()
        self._san._note_released(self._site)

    def __enter__(self) -> "InstrumentedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.release()
        return False

    def locked(self) -> bool:
        return self._inner.locked()


class InstrumentedCondition:
    """Wrapper over ``threading.Condition`` at a registered site.

    ``wait()`` releases the underlying lock, so the bookkeeping entry
    is popped for the duration of the wait and re-pushed afterwards —
    otherwise every ``Condition.wait(timeout=...)`` loop would read as
    a stall and poison the lock-order graph.
    """

    __slots__ = ("_inner", "_site", "_san")

    def __init__(self, inner: Any, site: LockSite, san: "Sanitizer") -> None:
        self._inner = inner
        self._site = site
        self._san = san

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        t0 = perf_counter()
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._san._note_acquired(self._site, perf_counter() - t0)
        else:
            self._san._note_failed_acquire(self._site)
        return got

    def release(self) -> None:
        self._inner.release()
        self._san._note_released(self._site)

    def __enter__(self) -> "InstrumentedCondition":
        self.acquire()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.release()
        return False

    def wait(self, timeout: float | None = None) -> bool:
        depth = self._san._note_wait_begin(self._site)
        try:
            return self._inner.wait(timeout)
        finally:
            self._san._note_wait_end(self._site, depth)

    def wait_for(self, predicate: Any, timeout: float | None = None) -> Any:
        depth = self._san._note_wait_begin(self._site)
        try:
            return self._inner.wait_for(predicate, timeout)
        finally:
            self._san._note_wait_end(self._site, depth)

    def notify(self, n: int = 1) -> None:
        self._inner.notify(n)

    def notify_all(self) -> None:
        self._inner.notify_all()


class Sanitizer:
    """Process-wide concurrency observer.

    ``hold_budget_ms`` is the default stall budget applied to every
    registered lock site; individual sites can override or opt out via
    ``register_lock(..., stall_budget_ms=...)``.
    """

    def __init__(self, hold_budget_ms: float = 250.0) -> None:
        self.hold_budget_s = hold_budget_ms / 1e3
        self._mu = threading.Lock()
        self._threads = _ThreadState()
        self.sites: dict[str, LockSite] = {}
        #: (held-site, taken-site) -> first-observed acquiring file/line.
        self.order_edges: dict[tuple[str, str], tuple[str, int]] = {}
        self.races = RaceTable(self)

    # -- registration ---------------------------------------------------

    def _site(self, name: str, stall_budget_ms: Any) -> LockSite:
        if stall_budget_ms is DEFAULT_BUDGET:
            budget_s: float | None = self.hold_budget_s
        elif stall_budget_ms is None:
            budget_s = None
        else:
            budget_s = float(stall_budget_ms) / 1e3
        with self._mu:
            site = self.sites.get(name)
            if site is None:
                site = LockSite(name, budget_s)
                self.sites[name] = site
            return site

    def wrap(self, lock: Any, name: str,
             stall_budget_ms: Any = DEFAULT_BUDGET) -> Any:
        if isinstance(lock, (InstrumentedLock, InstrumentedCondition)):
            return lock
        site = self._site(name, stall_budget_ms)
        if hasattr(lock, "notify") and hasattr(lock, "wait"):
            return InstrumentedCondition(lock, site, self)
        return InstrumentedLock(lock, site, self)

    def instrument_attr(self, owner: Any, attr: str, name: str,
                        stall_budget_ms: Any = DEFAULT_BUDGET) -> None:
        lock = getattr(owner, attr)
        wrapped = self.wrap(lock, name, stall_budget_ms)
        if wrapped is not lock:
            setattr(owner, attr, wrapped)

    def share(self, obj: Any, name: str) -> SharedProxy:
        return SharedProxy(obj, name, self)

    # -- lockset bookkeeping (called from instrumented wrappers) --------

    def _note_acquired(self, site: LockSite, wait_s: float) -> None:
        held = self._threads.held
        for entry in held:
            if entry.site is site:          # RLock re-entry
                entry.depth += 1
                with self._mu:
                    site.acquires += 1
                    site.wait_hist.observe(wait_s)
                return
        new_edges: list[tuple[str, str]] = []
        with self._mu:
            site.acquires += 1
            site.wait_hist.observe(wait_s)
            if wait_s >= _CONTENTION_FLOOR_S:
                site.contended += 1
            for entry in held:
                key = (entry.site.name, site.name)
                if key not in self.order_edges:
                    new_edges.append(key)
        if new_edges:                       # rare: capture frames off-mutex
            where = caller_site()
            with self._mu:
                for key in new_edges:
                    self.order_edges.setdefault(key, where)
        held.append(_Held(site, perf_counter()))

    def _note_failed_acquire(self, site: LockSite) -> None:
        with self._mu:
            site.contended += 1

    def _note_released(self, site: LockSite) -> None:
        held = self._threads.held
        for index in range(len(held) - 1, -1, -1):
            entry = held[index]
            if entry.site is site:
                entry.depth -= 1
                if entry.depth == 0:
                    del held[index]
                    self._record_hold(site, perf_counter() - entry.t0)
                return
        # Released by a thread that never acquired it (legal for a bare
        # Lock used as a signal) — nothing to time.

    def _record_hold(self, site: LockSite, hold_s: float) -> None:
        over = site.budget_s is not None and hold_s > site.budget_s
        where = caller_site() if over else None
        with self._mu:
            site.hold_hist.observe(hold_s)
            if over:
                site.stalls += 1
                if site.worst_stall is None or hold_s > site.worst_stall[0]:
                    site.worst_stall = (hold_s, where[0], where[1])

    def _note_wait_begin(self, site: LockSite) -> int:
        held = self._threads.held
        for index in range(len(held) - 1, -1, -1):
            entry = held[index]
            if entry.site is site:
                del held[index]
                self._record_hold(site, perf_counter() - entry.t0)
                return entry.depth
        return 1

    def _note_wait_end(self, site: LockSite, depth: int) -> None:
        entry = _Held(site, perf_counter())
        entry.depth = depth
        self._threads.held.append(entry)
        with self._mu:
            site.acquires += 1

    def held_names(self) -> frozenset[str]:
        """Lock sites held by the calling thread (for the race table)."""
        return frozenset(entry.site.name for entry in self._threads.held)

    # -- reporting ------------------------------------------------------

    def counters(self) -> dict[str, Any]:
        """JSON-safe snapshot for ``/api/metrics`` and the CLI."""
        with self._mu:
            locks = {
                name: {
                    "acquires": site.acquires,
                    "contended": site.contended,
                    "stalls": site.stalls,
                    "stall_budget_ms": (
                        None if site.budget_s is None
                        else round(site.budget_s * 1e3, 3)),
                    "wait": _snapshot_ms(site.wait_hist),
                    "hold": _snapshot_ms(site.hold_hist),
                }
                for name, site in sorted(self.sites.items())
            }
            return {
                "races": self.races.race_count(),
                "stalls": sum(site.stalls for site in self.sites.values()),
                "order_edges": len(self.order_edges),
                "order_cycles": len(self._cycles_locked()),
                "shared_fields": self.races.field_count(),
                "locks": locks,
            }

    def _cycles_locked(self) -> list[list[str]]:
        nodes = ({a for a, _ in self.order_edges}
                 | {b for _, b in self.order_edges})
        edges = {pair: "" for pair in self.order_edges}
        return _strongly_connected(nodes, edges)

    def diagnostics(self) -> list[Diagnostic]:
        """Everything observed, as ordinary lint diagnostics."""
        out = list(self.races.diagnostics())
        with self._mu:
            sites = list(self.sites.values())
            edges = dict(self.order_edges)
            cycles = self._cycles_locked()
        for site in sites:
            if site.stalls and site.worst_stall is not None:
                _hold_s, file, line = site.worst_stall
                out.append(make(
                    "sanitize-lock-stall", file, line, 1,
                    f"lock {site.name} held past its stall budget "
                    f"(watchdog: blocking work while holding it?)"))
        for component in cycles:
            members = set(component)
            intra = sorted(
                (pair, where) for pair, where in edges.items()
                if pair[0] in members and pair[1] in members)
            detail = ", ".join(
                f"{a} held while taking {b} "
                f"[{Path(file).name}:{line}]"
                for (a, b), (file, line) in intra)
            file, line = min(where for _pair, where in intra)
            out.append(make(
                "sanitize-lock-order", file, line, 1,
                f"runtime lock-order inversion among "
                f"{', '.join(component)}: {detail}"))
        return out
