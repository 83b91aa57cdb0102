"""Incremental rebuild support for the serving layer.

:class:`ServerState` is one immutable-ish generation of everything the
server needs: the parsed catalog, the renderable :class:`~repro.sitegen.site.Site`,
the search index, and the render plan keyed by URL.  :class:`RebuildManager`
watches the content directory (cheap mtime/size fingerprint) and, when a
source file changes, builds the *next* generation and diffs the two
render plans' signatures — the result names every URL whose rendered
bytes changed, which is what the page cache evicts.  Unchanged pages keep
their signatures, so a subsequent ``site.build(out, incremental=True)``
(the static-export path) re-renders only the dirty files.

Incremental pieces carried across generations, so a refresh costs what
the edit touches rather than what the corpus holds:

* parsed activities — :meth:`~repro.activities.catalog.Catalog.from_directory`
  reparses only the files whose ``(name, mtime_ns, size)`` fingerprint
  moved and reuses the live generation's :class:`Activity` for the rest,
* pages — :meth:`~repro.activities.catalog.Catalog.site` reuses the live
  generation's :class:`~repro.sitegen.site.Page` for every reused
  activity (neither is ever mutated, so sharing them is safe),
* taxonomy terms — the new ``Site`` is the
  :meth:`~repro.sitegen.site.Site.successor` of the live one: only the
  terms a changed page declares, before or after the edit, are rebuilt,
  and every other :class:`~repro.sitegen.taxonomy.Term` is shared (and,
  like a page, never mutated again),
* plan signatures — memoized on the shared pages and terms (a term's is
  the digest of its ordered members); a view's signature hashes the
  digests of the terms it reads, and the view itself is built only when
  a request first renders it,
* build signatures (so a static export after a refresh re-renders only
  dirty files),
* the search index — patched via
  :meth:`~repro.sitegen.search.SearchIndex.patched_from_catalog` for just
  the changed source documents; the new index shares every posting set
  and copies only those the changed documents touch.

The page cache then evicts the dirty URLs in one walk over its keys
(:func:`~repro.serve.cache.cover`).  Every generation equals the one a
build from scratch makes of the same files, and a URL whose signature
did not move renders the same bytes in both generations.

Refreshing is safe under the multi-worker server: the refresh mutex
ensures exactly one rebuild of a given edit while requests keep serving
the old generation, and the swap itself is a single attribute assignment.

A broken edit (e.g. a half-saved Markdown file) never takes the server
down: the rebuild fails closed, the previous generation keeps serving, and
the error is reported in the rebuild result and ``/api/metrics``.  The
fingerprint is *not* advanced on failure, so the next check retries the
build — which is what lets a circuit breaker's half-open probe heal.

:class:`BackgroundRebuilder` is the one way a served generation is
refreshed, and it keeps the whole refresh off the request path: a
dedicated thread polls the content directory once per watch interval,
and requests never wake it.  Its only pokes come from
pre-fork peers that swapped generations (O(1): set a flag, notify); it
debounces a burst of those into one rebuild, and optionally consults a
:class:`~repro.serve.resilience.CircuitBreaker` so a persistently
failing pipeline backs off instead of burning CPU re-parsing a broken
corpus on every poll.
"""

from __future__ import annotations

import functools
import hashlib
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import sanitize
from repro.activities.catalog import Catalog, corpus_dir, scan_content
from repro.sitegen.search import SearchIndex
from repro.sitegen.site import RenderTask, Site

__all__ = ["ServerState", "RebuildManager", "RebuildResult",
           "BackgroundRebuilder"]


class ServerState:
    """One generation of the served corpus: catalog + site + plan + search."""

    def __init__(self, catalog: Catalog, search: SearchIndex | None = None,
                 previous: "ServerState | None" = None):
        self.catalog = catalog
        self.site: Site = catalog.site(
            previous=previous.catalog if previous else None)
        self.search = search if search is not None else SearchIndex.from_catalog(catalog)
        self.plan: list[RenderTask] = self.site.render_plan()
        self.plan_by_url: dict[str, RenderTask] = {t.url: t for t in self.plan}
        self._corpus_signature: str | None = None

    @classmethod
    def from_content_dir(cls, content_dir: str | Path) -> "ServerState":
        return cls(Catalog.from_directory(content_dir))

    @functools.cached_property
    def signatures(self) -> dict[str, str]:
        """URL -> render-plan signature for this generation.

        Built once: a refresh diffs the live generation's map, which its
        own refresh already built, against the new one's.  Read only.
        """
        return {task.url: task.signature for task in self.plan}

    @property
    def corpus_signature(self) -> str:
        """One signature over the whole generation (changes iff any page does).

        Responses derived from the full corpus (``/api/activities``,
        coverage tables, search results) are persisted under this value:
        any content change invalidates them all, which is exactly the
        bulk-invalidate the serving layer already applies on rebuild.
        """
        if self._corpus_signature is None:
            digest = hashlib.sha256()
            for task in self.plan:
                digest.update(task.url.encode("utf-8"))
                digest.update(task.signature.encode("utf-8"))
            self._corpus_signature = digest.hexdigest()[:20]
        return self._corpus_signature


@dataclass
class RebuildResult:
    """Outcome of one refresh check that found changed content."""

    changed_sources: list[str] = field(default_factory=list)
    dirty_urls: list[str] = field(default_factory=list)
    search_patched: int = 0                # documents re-tokenized (not 38)
    duration_s: float = 0.0
    error: str | None = None
    #: Corpus signature of the generation this rebuild swapped in — what
    #: cross-process coordination publishes, captured at swap time so a
    #: later swap racing the publish cannot misreport it.
    generation: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class RebuildManager:
    """Watches a content directory and swaps in new server generations."""

    def __init__(self, content_dir: str | Path | None = None, faults=None):
        self.content_dir = Path(content_dir) if content_dir else corpus_dir()
        self.faults = faults
        self._refresh_lock = threading.Lock()
        # Held across a full rebuild by design: exempt from the stall
        # watchdog (its only contenders are concurrent refresh() calls).
        sanitize.register_lock(self, "_refresh_lock",
                               "RebuildManager._refresh_lock",
                               stall_budget_ms=None)
        catalog = Catalog.from_directory(self.content_dir)
        # The catalog's own stat-before-read scan is the fingerprint.
        self._fingerprint = {name: fingerprint for name, (fingerprint, _)
                             in catalog._sources.items()}
        self.state = ServerState(catalog)
        self.last_error: str | None = None

    def refresh(self) -> RebuildResult | None:
        """Rescan the content dir; rebuild and diff if anything changed.

        Returns ``None`` when nothing changed, otherwise a
        :class:`RebuildResult`.  On a failed rebuild (unparseable content)
        the old generation stays live and ``result.error`` is set.
        Concurrent calls serialize: whichever runs second finds the
        fingerprint already advanced and returns ``None``.
        """
        with self._refresh_lock:
            fingerprint = scan_content(self.content_dir)
            if fingerprint == self._fingerprint:
                return None
            started = time.monotonic()
            changed = sorted(
                set(fingerprint.items()) ^ set(self._fingerprint.items())
            )
            result = RebuildResult(
                changed_sources=sorted({name for name, _ in changed})
            )
            # Activity document names are source-file stems; patching only
            # these in the search index skips re-tokenizing the rest.
            dirty_names = {Path(name).stem for name in result.changed_sources}
            try:
                if self.faults is not None:
                    self.faults.maybe_fail("rebuild")
                catalog = Catalog.from_directory(self.content_dir,
                                                 previous=self.state.catalog,
                                                 scan=fingerprint)
                search = self.state.search.patched_from_catalog(
                    catalog, dirty_names)
                new_state = ServerState(catalog, search=search,
                                        previous=self.state)
            except Exception as exc:   # keep serving the old generation;
                # the fingerprint is deliberately NOT advanced, so the next
                # check retries the build instead of waiting for another edit
                result.error = f"{type(exc).__name__}: {exc}"
                self.last_error = result.error
                result.duration_s = time.monotonic() - started
                return result
            self._fingerprint = fingerprint
            result.search_patched = len(dirty_names)

            old_sigs = self.state.signatures
            new_sigs = new_state.signatures
            result.dirty_urls = sorted(
                url
                for url in set(old_sigs) | set(new_sigs)
                if old_sigs.get(url) != new_sigs.get(url)
            )
            self.state = new_state
            self.last_error = None
            result.generation = new_state.corpus_signature
            result.duration_s = time.monotonic() - started
            return result


class BackgroundRebuilder:
    """Runs rebuilds on a dedicated thread so requests never pay for one.

    The thread runs ``manager.refresh()`` every ``poll_interval_s``
    (pass ``None`` to rebuild only when poked); requests never wake it,
    so a busy server scans no more often than an idle one.
    :meth:`poke` — O(1): set a flag, notify — is for the pre-fork
    control socket, whose peers poke after swapping a generation: the
    thread wakes, sleeps ``debounce_s`` to coalesce a burst of pokes
    into one rebuild, and refreshes.  An owner that starts no thread
    (nothing polls it and no peer pokes it) refreshes with
    :meth:`run_once`.

    When a :class:`~repro.serve.resilience.CircuitBreaker` is attached,
    each rebuild outcome feeds it: consecutive failures trip it open and
    attempts are skipped (the last good generation keeps serving, marked
    stale) until the breaker half-opens and a probe rebuild succeeds.
    """

    def __init__(
        self,
        manager: RebuildManager,
        breaker=None,
        debounce_s: float = 0.05,
        poll_interval_s: float | None = 0.5,
        on_result: Callable[[RebuildResult], None] | None = None,
        sleep=time.sleep,
    ):
        self.manager = manager
        self.breaker = breaker
        self.debounce_s = debounce_s
        self.poll_interval_s = poll_interval_s
        self.on_result = on_result
        self._sleep = sleep
        self._cond = threading.Condition()
        sanitize.register_lock(self, "_cond", "BackgroundRebuilder._cond")
        self._thread: threading.Thread | None = None
        self._pending = False
        self._stopping = False
        self._attempts = 0
        self._skipped_open = 0
        self._last_result: RebuildResult | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        with self._cond:
            if self._thread is not None:
                return
            self._stopping = False
            thread = threading.Thread(
                target=self._run, name="serve-rebuild", daemon=True)
            self._thread = thread
        thread.start()

    def stop(self, timeout_s: float = 2.0) -> None:
        with self._cond:
            thread = self._thread
            if thread is None:
                return
            self._stopping = True
            self._thread = None
            self._cond.notify_all()
        thread.join(timeout=timeout_s)

    @property
    def running(self) -> bool:
        with self._cond:
            return self._thread is not None

    def poke(self) -> None:
        """Request a rebuild check; returns immediately (never blocks)."""
        with self._cond:
            self._pending = True
            self._cond.notify_all()

    # -- the rebuild thread --------------------------------------------------

    def _run(self) -> None:
        while True:
            with self._cond:
                if not self._pending and not self._stopping:
                    self._cond.wait(timeout=self.poll_interval_s)
                if self._stopping:
                    return
                poked = self._pending
                self._pending = False
            if poked and self.debounce_s > 0:
                self._sleep(self.debounce_s)
                with self._cond:
                    self._pending = False    # coalesce pokes during debounce
            self._attempt()

    def run_once(self) -> RebuildResult | None:
        """One synchronous attempt (deterministic path for tests)."""
        return self._attempt()

    def _attempt(self) -> RebuildResult | None:
        breaker = self.breaker
        if breaker is not None and not breaker.allow():
            with self._cond:
                self._skipped_open += 1
            return None
        try:
            result = self.manager.refresh()
        except Exception as exc:  # noqa: BLE001 - a scan failure is a failure
            result = RebuildResult(error=f"{type(exc).__name__}: {exc}")
        with self._cond:
            self._attempts += 1
            if result is not None:
                self._last_result = result
        if result is None:
            # A no-op scan is a healthy pipeline: close a half-open
            # breaker that has nothing left to rebuild — without resetting
            # the failure count while the breaker is closed.
            if breaker is not None and not breaker.closed:
                breaker.record_success()
            return None
        if breaker is not None:
            if result.ok:
                breaker.record_success()
            else:
                breaker.record_failure()
        if result.ok and self.on_result is not None:
            self.on_result(result)
        return result

    # -- observability -------------------------------------------------------

    @property
    def stale(self) -> bool:
        """Whether responses should be marked stale (pipeline unhealthy)."""
        if self.manager.last_error is not None:
            return True
        breaker = self.breaker
        return breaker is not None and not breaker.closed

    def stats(self) -> dict:
        with self._cond:
            last = self._last_result
            out = {
                "running": self._thread is not None,
                "pending": self._pending,
                "attempts": self._attempts,
                "skipped_while_open": self._skipped_open,
                "debounce_s": self.debounce_s,
                "last_error": self.manager.last_error,
            }
        out["stale"] = self.stale
        if last is not None:
            out["last_duration_s"] = round(last.duration_s, 4)
        if self.breaker is not None:
            out["breaker"] = self.breaker.stats()
        return out
