"""Page cache tests: LRU, ETags, invalidation, stats, lock striping,
second-miss admission of query-string keys."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.serve.cache import PageCache, ShardedPageCache, make_etag, shard_for
from repro.serve.persist import CacheStore


class TestEtag:
    def test_content_addressed(self):
        assert make_etag(b"hello") == make_etag(b"hello")
        assert make_etag(b"hello") != make_etag(b"other")

    def test_strong_quoted(self):
        etag = make_etag(b"x")
        assert etag.startswith('"') and etag.endswith('"')


class TestPageCache:
    def test_miss_then_hit(self):
        cache = PageCache(capacity=4)
        assert cache.get("/a/") is None
        entry = cache.put("/a/", b"body")
        got = cache.get("/a/")
        assert got is entry
        assert got.etag == make_etag(b"body")
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PageCache(capacity=2)
        cache.put("/a/", b"a")
        cache.put("/b/", b"b")
        cache.get("/a/")               # promote /a/; /b/ is now LRU
        cache.put("/c/", b"c")
        assert "/a/" in cache and "/c/" in cache
        assert "/b/" not in cache
        assert cache.evictions == 1

    def test_put_refreshes_existing(self):
        cache = PageCache(capacity=2)
        cache.put("/a/", b"v1")
        cache.put("/a/", b"v2")
        assert len(cache) == 1
        assert cache.get("/a/").body == b"v2"

    def test_invalidate_exact_and_query_variants(self):
        cache = PageCache(capacity=8)
        cache.put("/api/search?q=a", b"1")
        cache.put("/api/search?q=b", b"2")
        cache.put("/api/gaps", b"3")
        dropped = cache.invalidate(["/api/search"])
        assert dropped == 2
        assert "/api/gaps" in cache
        assert cache.invalidations == 2

    def test_clear(self):
        cache = PageCache(capacity=4)
        cache.put("/a/", b"a")
        cache.clear()
        assert len(cache) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PageCache(capacity=0)

    def test_stats(self):
        cache = PageCache(capacity=4)
        cache.put("/a/", b"abc")
        cache.get("/a/")
        cache.get("/b/")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 3
        assert stats["hit_ratio"] == 0.5


class TestShardedPageCache:
    def test_same_interface_as_page_cache(self):
        cache = ShardedPageCache(capacity=16, shards=4)
        assert cache.get("/a/") is None
        entry = cache.put("/a/", b"body")
        assert cache.get("/a/") is entry
        assert "/a/" in cache
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_ratio == 0.5

    def test_paths_stripe_across_shards(self):
        cache = ShardedPageCache(capacity=64, shards=8)
        paths = [f"/activities/page-{i}/" for i in range(40)]
        for path in paths:
            cache.put(path, path.encode())
        occupied = {shard_for(path, 8) for path in paths}
        assert len(occupied) > 1            # not all hashing to one shard
        stats = cache.stats()
        assert stats["entries"] == 40
        assert len(stats["shards"]) == 8
        assert sum(s["entries"] for s in stats["shards"]) == 40

    def test_shard_routing_is_stable(self):
        cache = ShardedPageCache(capacity=16, shards=4)
        assert cache._shard("/a/") is cache._shard("/a/")

    def test_invalidate_reaches_query_variants_on_other_shards(self):
        cache = ShardedPageCache(capacity=64, shards=8)
        cache.put("/api/search?q=a", b"1")
        cache.put("/api/search?q=b", b"2")
        cache.put("/api/gaps", b"3")
        assert cache.invalidate(["/api/search"]) == 2
        assert "/api/gaps" in cache
        assert cache.invalidations == 2

    def test_clear_and_entries_cover_all_shards(self):
        cache = ShardedPageCache(capacity=32, shards=4)
        for i in range(10):
            cache.put(f"/p{i}/", b"x")
        assert len(cache.entries()) == 10
        cache.clear()
        assert len(cache) == 0

    def test_capacity_split_rounds_up(self):
        cache = ShardedPageCache(capacity=10, shards=4)
        assert cache.capacity == 12         # 3 per shard, never starved

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedPageCache(capacity=0)
        with pytest.raises(ValueError):
            ShardedPageCache(capacity=8, shards=0)

    def test_single_shard_degenerates_to_page_cache_behavior(self):
        cache = ShardedPageCache(capacity=2, shards=1)
        cache.put("/a/", b"a")
        cache.put("/b/", b"b")
        cache.get("/a/")
        cache.put("/c/", b"c")
        assert "/a/" in cache and "/c/" in cache and "/b/" not in cache

    def test_concurrent_readers_and_writers(self):
        """8 threads hammer disjoint and shared keys; totals stay coherent."""
        cache = ShardedPageCache(capacity=128, shards=8)
        errors = []

        def worker(i):
            try:
                for k in range(200):
                    path = f"/p{(i * 7 + k) % 32}/"
                    if cache.get(path) is None:
                        cache.put(path, path.encode())
            except Exception as exc:      # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not errors
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 200
        assert stats["entries"] <= 32
        assert stats["lock_wait_ms"] >= 0.0

    def test_lock_wait_instrumented_under_contention(self):
        """A held shard lock shows up as nonzero lock wait for the blocked
        thread (deterministic: we hold the mutex directly)."""
        cache = PageCache(capacity=4)
        cache.put("/a/", b"a")
        cache._lock.acquire()
        blocked = threading.Thread(target=cache.get, args=("/a/",))
        blocked.start()
        # give the reader time to hit the contended slow path
        import time as _time

        _time.sleep(0.05)
        cache._lock.release()
        blocked.join(timeout=5)
        assert cache.lock_wait_s > 0.0
        assert cache.stats()["lock_wait_ms"] > 0.0


# -- admission ---------------------------------------------------------------


@pytest.fixture(params=["single", "sharded"])
def gated_cache(request):
    """A cache of each shape with 4 entries per shard."""
    if request.param == "single":
        return PageCache(capacity=4)
    return ShardedPageCache(capacity=16, shards=4)


def _shard_of(cache, key):
    return cache._shard(key) if isinstance(cache, ShardedPageCache) else cache


def _shard_mates(cache, key, n):
    """``n`` query keys other than ``key`` that land in ``key``'s shard."""
    shard = _shard_of(cache, key)
    mates = (f"/api/search?q=other{i}" for i in range(10_000))
    picked = [k for k in mates if k != key and _shard_of(cache, k) is shard]
    return picked[:n]


class TestAdmission:
    """Query keys are stored on their second miss fill; other keys and
    unconditional puts are stored at once."""

    KEY = "/api/search?q=cards&limit=10"

    def test_query_key_refused_once_then_stored(self, gated_cache):
        cache = gated_cache
        assert cache.get(self.KEY) is None
        first = cache.put(self.KEY, b"hits", "application/json", gated=True)
        assert self.KEY not in cache
        assert first.etag == make_etag(b"hits")
        assert cache.get(self.KEY) is None
        second = cache.put(self.KEY, b"hits", "application/json", gated=True)
        assert self.KEY in cache
        assert second.etag == first.etag
        assert cache.get(self.KEY) is second

    @pytest.mark.parametrize("key", ["/activities/gardeners/", "/",
                                     "/api/activities", "/api/gaps",
                                     "/api/coverage/cs2013"])
    def test_key_without_query_stored_at_once(self, gated_cache, key):
        gated_cache.put(key, b"page", gated=True)
        assert key in gated_cache

    def test_refused_memory_holds_capacity_keys(self, gated_cache):
        cache = gated_cache
        capacity = _shard_of(cache, self.KEY).capacity
        cache.put(self.KEY, b"x", gated=True)
        for key in _shard_mates(cache, self.KEY, capacity - 1):
            cache.put(key, b"y", gated=True)
        cache.put(self.KEY, b"x", gated=True)       # still remembered
        assert self.KEY in cache

    def test_refused_memory_forgets_oldest_beyond_capacity(self, gated_cache):
        cache = gated_cache
        capacity = _shard_of(cache, self.KEY).capacity
        cache.put(self.KEY, b"x", gated=True)
        for key in _shard_mates(cache, self.KEY, capacity + 1):
            cache.put(key, b"y", gated=True)
        cache.put(self.KEY, b"x", gated=True)       # forgotten: refused again
        assert self.KEY not in cache
        assert len(_shard_of(cache, self.KEY)._refused) <= capacity
        cache.put(self.KEY, b"x", gated=True)
        assert self.KEY in cache

    def test_put_is_unconditional(self, gated_cache):
        gated_cache.put(self.KEY, b"hits")
        assert self.KEY in gated_cache

    def test_warm_load_is_unconditional(self, gated_cache, tmp_path):
        source = PageCache(capacity=8)
        source.put(self.KEY, b"hits", "application/json")
        source.put("/a/", b"alpha")
        store = CacheStore(tmp_path)
        assert store.save(source, lambda path: "sig") == 2
        assert store.warm_load(gated_cache, lambda path: "sig") == 2
        assert gated_cache.get(self.KEY).body == b"hits"

    def test_invalidate_drops_admitted_query_variants(self, gated_cache):
        cache = gated_cache
        for key in ("/api/search?q=a", "/api/search?q=b"):
            cache.put(key, b"1", gated=True)
            cache.put(key, b"1", gated=True)
            assert key in cache
        cache.put("/api/gaps", b"3", gated=True)
        assert cache.invalidate(["/api/search"]) == 2
        assert "/api/search?q=a" not in cache
        assert "/api/gaps" in cache

    def test_concurrent_gated_fills_lose_no_refusal(self):
        """Threads (more than cores) refuse then admit disjoint query
        keys under a tiny switch interval: a lost update to a shard's
        refused-key memory would leave a key out after its second fill."""
        cache = ShardedPageCache(capacity=2048, shards=8)
        keys = [[f"/api/search?q=t{t}k{k}" for k in range(50)]
                for t in range(6)]
        errors = []

        def worker(mine):
            try:
                for _ in range(2):
                    for key in mine:
                        cache.put(key, key.encode(), gated=True)
            except Exception as exc:      # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(mine,))
                       for mine in keys]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert all(key in cache for mine in keys for key in mine)
        assert all(not shard._refused for shard in cache._shards)


# -- invalidation ------------------------------------------------------------


def _parent_rule(key, paths):
    """The rule before ``/`` subpaths were covered: a path drops itself
    and its ``?`` variants."""
    return any(key == p or key.startswith(p + "?") for p in paths)


def _subpath(key, paths):
    """What the one-pass rule adds: ``/`` subpaths of a path that does
    not end in ``/`` (``/api/coverage`` -> ``/api/coverage/cs2013``)."""
    return any(not p.endswith("/") and key.startswith(p + "/") for p in paths)


@pytest.fixture(params=["single", "sharded"])
def any_cache(request):
    if request.param == "single":
        return PageCache(capacity=64)
    return ShardedPageCache(capacity=64, shards=4)


class TestInvalidate:
    """One walk over the keys drops each path, its ``?`` variants and,
    for a path not ending in ``/``, its ``/`` subpaths; for both cache
    shapes."""

    KEYS = ("/a/", "/a/?x=1", "/ab/", "/ab/?x=1", "/a", "/a?y", "/a/b/",
            "/api/coverage", "/api/coverage/cs2013", "/api/coverage/tcpp",
            "/api/coverageX", "/api/search?q=a", "/api/search?q=a/b",
            "/api/searches", "/", "/?utm=1", "//x")

    def fill(self, cache):
        for key in self.KEYS:
            cache.put(key, key.encode())
        assert len(cache) == len(self.KEYS)

    def kept(self, cache):
        return {key for key in self.KEYS if key in cache}

    def test_bare_key_query_variants_and_subpaths(self, any_cache):
        self.fill(any_cache)
        assert any_cache.invalidate(["/api/coverage", "/api/search"]) == 5
        assert self.kept(any_cache) == set(self.KEYS) - {
            "/api/coverage", "/api/coverage/cs2013", "/api/coverage/tcpp",
            "/api/search?q=a", "/api/search?q=a/b"}

    def test_sibling_prefix_is_not_over_matched(self, any_cache):
        self.fill(any_cache)
        assert any_cache.invalidate(["/a/"]) == 2
        assert "/ab/" in any_cache and "/ab/?x=1" in any_cache
        assert "/a/b/" in any_cache          # a page URL has no subpaths
        assert "/a" in any_cache and "/a?y" in any_cache
        assert "/" in any_cache

    def test_slashless_path_drops_its_subpaths_not_its_siblings(self,
                                                                any_cache):
        self.fill(any_cache)
        assert any_cache.invalidate(["/a"]) == 5
        assert self.kept(any_cache) == set(self.KEYS) - {
            "/a", "/a?y", "/a/", "/a/?x=1", "/a/b/"}

    def test_root_drops_only_itself_and_its_variants(self, any_cache):
        self.fill(any_cache)
        assert any_cache.invalidate(["/"]) == 2
        assert self.kept(any_cache) == set(self.KEYS) - {"/", "/?utm=1"}

    @pytest.mark.parametrize("paths", [
        ["/a/", "/ab/"], ["/a", "/a/"], ["/a/", "/a/", "/a/"], [],
        ["/missing/"], ["/api/search", "/api/search?q=a"],
        ["/a/b/", "/", "/ab/", "/api/searches"],
        ["/api/coverage", "/a/"]])
    def test_drops_the_parent_rule_plus_subpaths(self, any_cache, paths):
        """The drops, the return value and the ``invalidations`` delta
        are the parent rule's plus the ``/`` subpaths of slash-less
        paths: each dropped key counts once, however many paths cover
        it.  For page URLs alone (all end in ``/``) that is exactly the
        parent rule."""
        self.fill(any_cache)
        expected = {key for key in self.KEYS if _parent_rule(key, paths)
                    or _subpath(key, paths)}
        before = any_cache.invalidations
        assert any_cache.invalidate(paths) == len(expected)
        assert any_cache.invalidations - before == len(expected)
        assert self.kept(any_cache) == set(self.KEYS) - expected
        if all(p.endswith("/") for p in paths):
            assert expected == {key for key in self.KEYS
                                if _parent_rule(key, paths)}

    def test_accepts_any_iterable_once(self, any_cache):
        self.fill(any_cache)
        assert any_cache.invalidate(iter(["/a/", "/ab/"])) == 4
        assert any_cache.invalidations == 4
