"""Fixed-bucket latency histogram: the one latency type in the repo.

The serving layer's per-route and per-tenant metrics
(:mod:`repro.serve.metrics`) and the runtime sanitizer's per-lock
wait/hold timing (:mod:`repro.sanitize.core`) both record into it.  It
imports nothing from ``repro``, so either package can load it at import
time without a cycle.

The design is the classic Prometheus-style cumulative-bucket one:
log-spaced upper bounds, an overflow bucket, and percentiles estimated
by linear interpolation inside the bucket that crosses the requested
rank.  Exact values are intentionally not retained (bounded memory under
sustained load).  :meth:`LatencyHistogram.export` is a raw, JSON-safe
dump of the bucket counts that :meth:`LatencyHistogram.merge_export`
folds back losslessly, so merged percentiles are percentiles of the
union of observations.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["LatencyHistogram", "DEFAULT_BUCKETS_S"]

#: Log-spaced latency bucket upper bounds, in seconds (100 µs .. 10 s).
DEFAULT_BUCKETS_S: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class LatencyHistogram:
    """Fixed-bucket latency histogram with interpolated percentiles.

    Not internally synchronized: the owner serializes writes under its
    own mutex.
    """

    __slots__ = ("bounds", "counts", "count", "sum_s", "min_s", "max_s")

    def __init__(self, buckets_s: tuple[float, ...] = DEFAULT_BUCKETS_S):
        self.bounds = tuple(sorted(buckets_s))
        self.counts = [0] * (len(self.bounds) + 1)   # +1 overflow bucket
        self.count = 0
        self.sum_s = 0.0
        self.min_s = float("inf")
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        if seconds < 0.0:
            seconds = 0.0
        # The first bound >= seconds, so a value on a bound lands in it.
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum_s += seconds
        if seconds < self.min_s:
            self.min_s = seconds
        if seconds > self.max_s:
            self.max_s = seconds

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0 < p <= 100) in seconds.

        Linear interpolation within the crossing bucket; the overflow
        bucket reports the observed maximum.
        """
        if not self.count:
            return 0.0
        rank = p / 100.0 * self.count
        cumulative = 0
        lower = 0.0
        for i, bound in enumerate(self.bounds):
            bucket = self.counts[i]
            if cumulative + bucket >= rank:
                if bucket == 0:
                    return bound
                frac = (rank - cumulative) / bucket
                return min(lower + frac * (bound - lower), self.max_s)
            cumulative += bucket
            lower = bound
        return self.max_s

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "mean_ms": round(self.mean_s * 1e3, 4),
            "min_ms": round(self.min_s * 1e3, 4) if self.count else 0.0,
            "max_ms": round(self.max_s * 1e3, 4),
            "p50_ms": round(self.percentile(50) * 1e3, 4),
            "p95_ms": round(self.percentile(95) * 1e3, 4),
            "p99_ms": round(self.percentile(99) * 1e3, 4),
            "p999_ms": round(self.percentile(99.9) * 1e3, 4),
        }

    def export(self) -> dict:
        """Raw, mergeable dump (bucket counts, not percentiles)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum_s": self.sum_s,
            "min_s": self.min_s if self.count else None,
            "max_s": self.max_s,
        }

    def merge_export(self, export: dict) -> None:
        """Fold another histogram's raw export into this one.

        Bucket-wise, so both sides must share bounds; every merged export
        comes from processes forked from one image, so a mismatch is a
        bug and raises :class:`ValueError`.
        """
        count = int(export.get("count", 0))
        if not count:
            return
        counts = export.get("counts", ())
        if (tuple(export.get("bounds", ())) != self.bounds
                or len(counts) != len(self.counts)):
            raise ValueError("cannot merge a histogram export with "
                             "different bucket bounds")
        for i, n in enumerate(counts):
            self.counts[i] += int(n)
        self.count += count
        self.sum_s += float(export.get("sum_s", 0.0))
        min_s = export.get("min_s")
        if min_s is not None:
            self.min_s = min(self.min_s, float(min_s))
        self.max_s = max(self.max_s, float(export.get("max_s", 0.0)))
