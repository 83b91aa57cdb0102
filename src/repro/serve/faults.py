"""Deterministic fault injection for the serving layer (chaos harness).

Every failure path in ``repro.serve`` — rebuild errors, cache-read
I/O errors and corruption, torn persist writes, slow or failing renders —
is exercised by *injected* faults rather than hoped-for ones.  A
:class:`FaultPlan` is a seeded set of :class:`FaultRule`\\ s; instrumented
call sites ask the plan whether this particular operation fails, and the
plan answers deterministically from its own RNG, so a chaos test or a
``--fault-spec`` run replays identically under the same seed.

Operations (the instrumented sites)::

    rebuild        building the next server generation (RebuildManager)
    cache-read     reading persisted cache state (CacheStore, ResultStore)
    persist-write  spilling cache state to disk (CacheStore)
    render         rendering a response body (ServeApp)
    sweep-run      dispatching one sweep point to a worker (SweepManager)
    sweep-persist  writing a sweep result record to disk (ResultStore)
    rate-limit     deciding tenant admission at the edge (TenantGate)

Kinds::

    error     raise :class:`InjectedFault` (an ``OSError``)
    latency   sleep ``ms`` before the operation proceeds
    corrupt   flip bytes in data read from disk (checksums must catch it)
    partial   truncate data written to disk (a torn write)

Spec grammar (the ``--fault-spec`` flag), comma-separated clauses::

    <op>:<kind>@<rate>[:key=value ...]
    e.g.  rebuild:error@0.3,cache-read:error@0.05,render:latency@0.1:ms=20
    e.g.  rebuild:error@1.0:limit=4        # first four rebuilds fail, then clear

Thread-safe; the decision (RNG draw + counters) happens under the plan's
mutex, the side effect (sleeping, raising) outside it.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

__all__ = ["FaultRule", "FaultPlan", "InjectedFault",
           "OPS", "KINDS", "parse_fault_spec"]

OPS = ("rebuild", "cache-read", "persist-write", "render",
       "sweep-run", "sweep-persist", "rate-limit")
KINDS = ("error", "latency", "corrupt", "partial")


class InjectedFault(OSError):
    """An artificially injected I/O failure (distinguishable in logs)."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: with probability ``rate``, op suffers ``kind``."""

    op: str
    kind: str
    rate: float
    latency_s: float = 0.0           # for kind == "latency"
    limit: int | None = None         # stop injecting after this many hits

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"unknown fault op {self.op!r} (expected one of {OPS})")
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(expected one of {KINDS})")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("fault rate must be within [0, 1]")
        if self.latency_s < 0:
            raise ValueError("latency must be >= 0")
        if self.limit is not None and self.limit < 0:
            raise ValueError("limit must be >= 0")


def parse_fault_spec(spec: str, seed: int = 0,
                     sleep=time.sleep) -> "FaultPlan":
    """Parse a ``--fault-spec`` string into a :class:`FaultPlan`."""
    rules = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        head, _, rate_tail = clause.partition("@")
        if not _ or ":" not in head:
            raise ValueError(
                f"bad fault clause {clause!r} (expected op:kind@rate[...])")
        op, _, kind = head.partition(":")
        parts = rate_tail.split(":")
        try:
            rate = float(parts[0])
        except ValueError:
            raise ValueError(f"bad fault rate in {clause!r}") from None
        latency_s = 0.0
        limit = None
        for extra in parts[1:]:
            key, sep, value = extra.partition("=")
            if not sep:
                raise ValueError(f"bad fault option {extra!r} in {clause!r} "
                                 f"(expected key=value)")
            if key == "ms":
                latency_s = float(value) / 1e3
            elif key == "s":
                latency_s = float(value)
            elif key == "limit":
                limit = int(value)
            else:
                raise ValueError(f"unknown fault option {key!r} in {clause!r}")
        rules.append(FaultRule(op.strip(), kind.strip(), rate,
                               latency_s=latency_s, limit=limit))
    return FaultPlan(rules, seed=seed, sleep=sleep)


class FaultPlan:
    """A seeded, thread-safe collection of fault rules plus counters."""

    def __init__(self, rules=(), seed: int = 0, sleep=time.sleep):
        self.rules = tuple(rules)
        self.seed = seed
        self._sleep = sleep
        self._lock = threading.Lock()
        self._rng = random.Random(seed)
        self._enabled = True
        self._injected: dict[tuple[str, str], int] = {}
        self._checked: dict[str, int] = {}

    @classmethod
    def parse(cls, spec: str, seed: int = 0, sleep=time.sleep) -> "FaultPlan":
        return parse_fault_spec(spec, seed=seed, sleep=sleep)

    # -- control (test API) --------------------------------------------------

    def disable(self) -> None:
        """Clear all faults: every subsequent check passes."""
        with self._lock:
            self._enabled = False

    def enable(self) -> None:
        with self._lock:
            self._enabled = True

    @property
    def active(self) -> bool:
        with self._lock:
            return self._enabled and bool(self.rules)

    # -- decisions -----------------------------------------------------------

    def _draw(self, op: str, kinds: tuple[str, ...]) -> FaultRule | None:
        """Decide (under the mutex) which rule, if any, fires for ``op``."""
        with self._lock:
            self._checked[op] = self._checked.get(op, 0) + 1
            if not self._enabled:
                return None
            for rule in self.rules:
                if rule.op != op or rule.kind not in kinds:
                    continue
                key = (rule.op, rule.kind)
                if rule.limit is not None \
                        and self._injected.get(key, 0) >= rule.limit:
                    continue
                if self._rng.random() < rule.rate:
                    self._injected[key] = self._injected.get(key, 0) + 1
                    return rule
            return None

    def maybe_fail(self, op: str) -> None:
        """Inject latency and/or raise for ``op`` per the plan.

        Latency rules sleep (outside the mutex); error rules raise
        :class:`InjectedFault`.  Both can fire on one call — a slow
        *and* failing operation is a realistic failure mode.
        """
        latency = self._draw(op, ("latency",))
        if latency is not None and latency.latency_s > 0:
            self._sleep(latency.latency_s)
        error = self._draw(op, ("error",))
        if error is not None:
            raise InjectedFault(f"injected {op} fault")

    def mangle_read(self, op: str, data: bytes) -> bytes:
        """Apply a ``corrupt`` rule to bytes read from disk."""
        rule = self._draw(op, ("corrupt",))
        if rule is None or not data:
            return data
        return bytes([data[0] ^ 0xFF]) + data[1:]

    def mangle_write(self, op: str, data: bytes) -> bytes:
        """Apply a ``partial`` rule to bytes about to be written."""
        rule = self._draw(op, ("partial",))
        if rule is None or len(data) < 2:
            return data
        return data[: len(data) // 2]

    # -- observability -------------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": self._enabled,
                "rules": len(self.rules),
                "seed": self.seed,
                "checked": dict(sorted(self._checked.items())),
                "injected": {
                    f"{op}:{kind}": count
                    for (op, kind), count in sorted(self._injected.items())
                },
                "total_injected": sum(self._injected.values()),
            }

    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self._injected.values())
