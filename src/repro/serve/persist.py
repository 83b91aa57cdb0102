"""On-disk spill/restore for the page cache (warm starts).

A fresh server process used to cold-start at hit-ratio 0 and pay one
render per page before the cache did anything.  :class:`CacheStore` fixes
that: it spills cache entries (body + ETag + content type) to a cache
directory together with the *render-plan signature* each body was rendered
under, and on boot reloads every entry whose signature still matches the
current plan.  Invalidation therefore reuses the exact mechanism the
incremental rebuilder already trusts — if any input of a page changed, its
signature changed, and the stale spill is silently dropped.

The page cache is the only thing this module persists.  The search index
is rebuilt from the catalog on every start: the cold build costs about
what loading a persisted copy did, so a second copy on disk would buy
nothing.

Layout under ``cache_dir``::

    cache-index.json          path -> {etag, content_type, signature, blob}
    blobs/<sha>.body          content-addressed bodies (deduplicated)

Failure model — this module is *tolerant by construction*:

* every write is atomic (tmp + fsync + rename via :mod:`repro.ioutil`),
  so a crash mid-save never leaves a torn file where a reader finds it;
* transient write errors are retried under a
  :class:`~repro.serve.retrypolicy.RetryPolicy`; a persistently failing
  entry is *skipped* (logged, counted) — persistence is an optimization,
  never worth failing a save over;
* every load path treats garbage the same way: a truncated or corrupt
  index, or a missing or tampered blob (ETag recomputed from bytes),
  means "start cold" for what it covers, logged at WARNING, never raised.

A :class:`~repro.serve.faults.FaultPlan` can be attached to exercise all
of the above deterministically (ops ``persist-write`` / ``cache-read``).
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Callable

from repro.ioutil import atomic_write_bytes
from repro.serve.cache import make_etag
from repro.serve.retrypolicy import RetryError, RetryPolicy

__all__ = ["CacheStore"]

log = logging.getLogger("repro.serve.persist")

#: ``signature_for`` callback: maps a cache key (request path, possibly with
#: a query string) to the signature its body was rendered under, or ``None``
#: when the key must not be persisted (e.g. volatile routes).
SignatureFn = Callable[[str], "str | None"]

_INDEX_NAME = "cache-index.json"
_BLOB_DIR = "blobs"


class CacheStore:
    """Persist page-cache entries keyed by render-plan signature."""

    def __init__(self, cache_dir: str | Path, faults=None,
                 retry: RetryPolicy | None = None):
        self.root = Path(cache_dir)
        self.blob_dir = self.root / _BLOB_DIR
        self.blob_dir.mkdir(parents=True, exist_ok=True)
        self.index_path = self.root / _INDEX_NAME
        self.faults = faults
        self.retry = retry if retry is not None else RetryPolicy(retries=1)
        self.skipped_saves = 0
        self.load_errors = 0

    # -- instrumented I/O (fault hooks + retry) ----------------------------

    def _persist_bytes(self, path: Path, data: bytes) -> None:
        """Atomically write ``data`` with fault hooks and transient retry."""
        def attempt() -> None:
            payload = data
            if self.faults is not None:
                self.faults.maybe_fail("persist-write")
                payload = self.faults.mangle_write("persist-write", payload)
            atomic_write_bytes(path, payload)
        self.retry.call(attempt, sleep=None)

    def _read_bytes(self, path: Path) -> bytes:
        def attempt() -> bytes:
            if self.faults is not None:
                self.faults.maybe_fail("cache-read")
            data = path.read_bytes()
            if self.faults is not None:
                data = self.faults.mangle_read("cache-read", data)
            return data
        return self.retry.call(attempt, sleep=None)

    # -- saving ------------------------------------------------------------

    def save(self, cache, signature_for: SignatureFn) -> int:
        """Spill every persistable entry of ``cache``; return the count.

        ``cache`` is any object with an ``entries()`` snapshot method
        (:class:`~repro.serve.cache.PageCache` or
        :class:`~repro.serve.cache.ShardedPageCache`).  An entry whose
        blob cannot be written even after retries is skipped and counted,
        not raised — a failed spill costs a cold render later, nothing
        more.
        """
        index: dict[str, dict] = {}
        for entry in cache.entries():
            signature = signature_for(entry.path)
            if signature is None:
                continue
            blob = self._blob_name(entry.etag)
            blob_path = self.blob_dir / blob
            try:
                if not blob_path.exists():
                    self._persist_bytes(blob_path, entry.body)
            except (OSError, RetryError) as exc:
                self.skipped_saves += 1
                log.warning("skipping spill of %s: %s", entry.path, exc)
                continue
            index[entry.path] = {
                "etag": entry.etag,
                "content_type": entry.content_type,
                "signature": signature,
                "blob": blob,
            }
        try:
            self._write_index(index)
        except (OSError, RetryError) as exc:
            self.skipped_saves += 1
            log.warning("cache index not written: %s", exc)
            return 0                      # old index stays; skip GC under it
        self._collect_garbage(index)
        return len(index)

    def _write_index(self, index: dict) -> None:
        body = json.dumps(index, indent=2, sort_keys=True).encode("utf-8")
        self._persist_bytes(self.index_path, body)

    def _collect_garbage(self, index: dict) -> int:
        """Delete blobs no live index entry references.

        The cache directory may be shared by a pre-fork worker fleet, so
        besides the index this process just wrote, the index currently on
        disk (possibly a peer's, written a moment later) is honored too —
        GC must never delete a blob a concurrent spill still references.
        A blob both miss is only a cold render on the next warm start.
        """
        referenced = {meta["blob"] for meta in index.values()}
        for meta in self.load_index().values():
            if isinstance(meta, dict) and meta.get("blob"):
                referenced.add(str(meta["blob"]))
        removed = 0
        for blob_path in self.blob_dir.glob("*.body"):
            if blob_path.name not in referenced:
                try:
                    blob_path.unlink(missing_ok=True)
                except OSError:
                    continue              # a lingering blob is only disk
                removed += 1
        return removed

    # -- loading -----------------------------------------------------------

    def load_index(self) -> dict[str, dict]:
        """The persisted index, or ``{}`` when absent/corrupt (cold start)."""
        try:
            raw = json.loads(self._read_bytes(self.index_path))
        except FileNotFoundError:
            return {}
        except (OSError, RetryError, ValueError) as exc:
            self.load_errors += 1
            log.warning("cache index unreadable, starting cold: %s", exc)
            return {}
        if not isinstance(raw, dict):
            self.load_errors += 1
            log.warning("cache index malformed, starting cold")
            return {}
        return raw

    def warm_load(self, cache, signature_for: SignatureFn) -> int:
        """Preload ``cache`` with every entry whose signature still holds.

        Returns the number of entries restored.  Entries whose signature
        no longer matches the current render plan (the content changed
        while the server was down), whose blob is missing, or whose bytes
        no longer hash to the recorded ETag are skipped.
        """
        warmed = 0
        for path, meta in sorted(self.load_index().items()):
            try:
                expected = signature_for(path)
                if expected is None or expected != meta["signature"]:
                    continue
                body = self._read_bytes(self.blob_dir / str(meta["blob"]))
                if make_etag(body) != meta["etag"]:
                    continue                      # tampered / torn blob
                cache.put(path, body, str(meta["content_type"]))
                warmed += 1
            except (OSError, RetryError, KeyError, TypeError):
                self.load_errors += 1
                continue
        return warmed

    def _blob_name(self, etag: str) -> str:
        return etag.strip('"') + ".body"

    def stats(self) -> dict:
        return {
            "skipped_saves": self.skipped_saves,
            "load_errors": self.load_errors,
        }
