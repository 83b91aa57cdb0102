"""Content-addressed in-memory page cache: LRU with second-miss admission
for query-string keys.

Every cached body is addressed by the strong ETag derived from its bytes
(sha256), so conditional requests (``If-None-Match``) can be answered with
``304 Not Modified`` without touching the renderer, and two caches holding
the same bytes always agree on the validator.  Eviction is LRU over a
capacity in entries; invalidation is per-path (the incremental rebuilder
evicts exactly the URLs whose render-plan signature changed).

Admission: a miss fill (``put(..., gated=True)``) of a key holding a
``?`` (``/api/search?q=…``) is stored only on that key's second miss.
The first is refused and remembered in a FIFO of at most ``capacity``
keys.  Query keys are unbounded user input and most searches are never
repeated, so storing each one would evict pages, whose keys are a
finite, known set and are always admitted at once.  A refused response
is served exactly as an admitted one; it is just not kept.

Two cache shapes share one interface:

* :class:`PageCache` — a single LRU map under one mutex.  Fine for a
  single-threaded server, but every concurrent GET serializes on that
  mutex.
* :class:`ShardedPageCache` — lock striping: N independent
  :class:`PageCache` shards, a request path hashing (crc32) to exactly
  one shard, so concurrent GETs for different pages proceed in parallel.

Both record *lock wait time* — how long callers spent blocked on a cache
mutex that another thread held — which is the direct measure of cache
contention that ``/api/metrics`` exposes per shard.
"""

from __future__ import annotations

import hashlib
import threading
import time
import zlib
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro import sanitize

__all__ = ["CacheEntry", "PageCache", "ShardedPageCache", "checksum",
           "make_etag"]


def make_etag(body: bytes) -> str:
    """Strong ETag for a response body (content-addressed, quoted)."""
    return '"' + hashlib.sha256(body).hexdigest()[:24] + '"'


def checksum(data: bytes) -> str:
    """Unquoted content hash (same digest family as :func:`make_etag`).

    Used to verify payloads that are not HTTP bodies on the way back from
    disk (the sweep plane's result records, :mod:`repro.sweep.store`).
    """
    return hashlib.sha256(data).hexdigest()[:24]


def shard_for(path: str, shards: int) -> int:
    """Stable shard index for a request path (crc32, process-independent)."""
    return zlib.crc32(path.encode("utf-8")) % shards


@dataclass(frozen=True)
class CacheEntry:
    """One cached response: body bytes plus derived metadata."""

    path: str
    body: bytes
    content_type: str
    etag: str

    @property
    def size(self) -> int:
        return len(self.body)


class PageCache:
    """Thread-safe LRU cache mapping request paths to rendered responses."""

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        sanitize.register_lock(self, "_lock", "PageCache._lock")
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        # Query keys refused once by a gated put, oldest first.
        self._refused: OrderedDict[str, None] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.lock_wait_s = 0.0

    @contextmanager
    def _locked(self):
        """Acquire the mutex, accumulating time spent waiting for it.

        The fast path (uncontended lock) is a single non-blocking acquire;
        only a contended acquire pays for two clock reads.
        """
        if not self._lock.acquire(blocking=False):
            started = time.perf_counter()
            self._lock.acquire()
            self.lock_wait_s += time.perf_counter() - started
        try:
            yield
        finally:
            self._lock.release()

    def __len__(self) -> int:
        with self._locked():
            return len(self._entries)

    def __contains__(self, path: str) -> bool:
        with self._locked():
            return path in self._entries

    def get(self, path: str) -> CacheEntry | None:
        """Look up ``path``, promoting it to most-recently-used on a hit."""
        with self._locked():
            entry = self._entries.get(path)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(path)
            self.hits += 1
            return entry

    def put(self, path: str, body: bytes,
            content_type: str = "text/html; charset=utf-8", *,
            gated: bool = False) -> CacheEntry:
        """Insert (or refresh) ``path``, evicting the LRU entry if full.

        With ``gated`` (the fill after a miss), a key holding a ``?`` is
        only remembered on its first fill and stored on its second.  The
        returned entry carries the body's ETag either way.
        """
        entry = CacheEntry(path=path, body=body, content_type=content_type,
                           etag=make_etag(body))
        with self._locked():
            if gated and "?" in path and path not in self._refused:
                self._refused[path] = None
                if len(self._refused) > self.capacity:
                    self._refused.popitem(last=False)
                return entry
            self._refused.pop(path, None)
            if path in self._entries:
                self._entries.move_to_end(path)
            self._entries[path] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def invalidate(self, paths: Iterable[str]) -> int:
        """Drop the given paths (and any query-string variants of them)."""
        dropped = 0
        with self._locked():
            for path in paths:
                victims = [
                    key for key in self._entries
                    if key == path or key.startswith(path + "?")
                ]
                for key in victims:
                    del self._entries[key]
                    dropped += 1
            self.invalidations += dropped
        return dropped

    def clear(self) -> None:
        with self._locked():
            self.invalidations += len(self._entries)
            self._entries.clear()

    def entries(self) -> list[CacheEntry]:
        """Snapshot of the live entries, LRU first (for persistence)."""
        with self._locked():
            return list(self._entries.values())

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        with self._locked():
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "bytes": sum(e.size for e in self._entries.values()),
                "hits": self.hits,
                "misses": self.misses,
                "hit_ratio": round(self.hit_ratio, 4),
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "lock_wait_ms": round(self.lock_wait_s * 1e3, 4),
            }


class ShardedPageCache:
    """Lock-striped page cache: N independent LRU shards keyed by path hash.

    Same interface as :class:`PageCache`; a lookup touches exactly one
    shard's mutex, so worker threads serving different pages never
    contend.  Invalidation broadcasts to every shard because a path's
    query-string variants (``/api/search?q=…``) hash to different shards
    than the bare path.
    """

    def __init__(self, capacity: int = 512, shards: int = 8):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        per_shard = max(1, -(-capacity // shards))      # ceil division
        self.capacity = per_shard * shards
        self._shards: tuple[PageCache, ...] = tuple(
            PageCache(per_shard) for _ in range(shards)
        )

    @property
    def shards(self) -> int:
        return len(self._shards)

    def _shard(self, path: str) -> PageCache:
        return self._shards[shard_for(path, len(self._shards))]

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, path: str) -> bool:
        return path in self._shard(path)

    def get(self, path: str) -> CacheEntry | None:
        return self._shard(path).get(path)

    def put(self, path: str, body: bytes,
            content_type: str = "text/html; charset=utf-8", *,
            gated: bool = False) -> CacheEntry:
        return self._shard(path).put(path, body, content_type, gated=gated)

    def invalidate(self, paths: Iterable[str]) -> int:
        paths = list(paths)
        return sum(shard.invalidate(paths) for shard in self._shards)

    def clear(self) -> None:
        for shard in self._shards:
            shard.clear()

    def entries(self) -> list[CacheEntry]:
        return [entry for shard in self._shards for entry in shard.entries()]

    def _totals(self) -> Iterator[tuple[int, int, int, int, float]]:
        for shard in self._shards:
            yield (shard.hits, shard.misses, shard.evictions,
                   shard.invalidations, shard.lock_wait_s)

    @property
    def hits(self) -> int:
        return sum(t[0] for t in self._totals())

    @property
    def misses(self) -> int:
        return sum(t[1] for t in self._totals())

    @property
    def evictions(self) -> int:
        return sum(t[2] for t in self._totals())

    @property
    def invalidations(self) -> int:
        return sum(t[3] for t in self._totals())

    @property
    def lock_wait_s(self) -> float:
        return sum(t[4] for t in self._totals())

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        shard_stats = [shard.stats() for shard in self._shards]
        return {
            "entries": sum(s["entries"] for s in shard_stats),
            "capacity": self.capacity,
            "bytes": sum(s["bytes"] for s in shard_stats),
            "hits": sum(s["hits"] for s in shard_stats),
            "misses": sum(s["misses"] for s in shard_stats),
            "hit_ratio": round(self.hit_ratio, 4),
            "evictions": sum(s["evictions"] for s in shard_stats),
            "invalidations": sum(s["invalidations"] for s in shard_stats),
            "lock_wait_ms": round(sum(s["lock_wait_ms"] for s in shard_stats), 4),
            "shard_count": len(self._shards),
            "shards": shard_stats,
        }
