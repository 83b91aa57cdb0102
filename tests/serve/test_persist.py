"""CacheStore tests: spill/warm-load round trips, signature invalidation,
corruption handling, blob garbage collection, and the search index staying
out of the cache directory."""

from __future__ import annotations

import json

import pytest

from repro.serve import create_app, run_load
from repro.serve.cache import PageCache, ShardedPageCache, make_etag
from repro.serve.loadgen import LoadGenerator, call_app
from repro.serve.persist import CacheStore


def constant_signature(path):
    return "sig-v1"


class TestRoundTrip:
    @pytest.mark.parametrize("cache_cls", [PageCache, ShardedPageCache])
    def test_save_then_load_restores_entries(self, tmp_path, cache_cls):
        store = CacheStore(tmp_path)
        cache = cache_cls(capacity=16)
        cache.put("/a/", b"alpha")
        cache.put("/b/", b"beta", content_type="application/json")
        assert store.save(cache, constant_signature) == 2

        fresh = cache_cls(capacity=16)
        assert store.warm_load(fresh, constant_signature) == 2
        entry = fresh.get("/b/")
        assert entry.body == b"beta"
        assert entry.content_type == "application/json"
        assert entry.etag == make_etag(b"beta")

    def test_changed_signature_drops_entry(self, tmp_path):
        store = CacheStore(tmp_path)
        cache = PageCache(capacity=8)
        cache.put("/a/", b"alpha")
        cache.put("/b/", b"beta")
        store.save(cache, constant_signature)

        def moved_on(path):
            return "sig-v2" if path == "/a/" else "sig-v1"

        fresh = PageCache(capacity=8)
        assert store.warm_load(fresh, moved_on) == 1
        assert "/a/" not in fresh
        assert "/b/" in fresh

    def test_unpersistable_paths_skipped(self, tmp_path):
        store = CacheStore(tmp_path)
        cache = PageCache(capacity=8)
        cache.put("/a/", b"alpha")
        cache.put("/volatile/", b"now")
        saved = store.save(
            cache, lambda path: "sig" if path == "/a/" else None)
        assert saved == 1
        assert "/volatile/" not in store.load_index()


class TestResilience:
    def test_missing_dir_contents_load_empty(self, tmp_path):
        store = CacheStore(tmp_path / "never-saved")
        assert store.warm_load(PageCache(4), constant_signature) == 0

    def test_corrupt_index_ignored(self, tmp_path):
        store = CacheStore(tmp_path)
        store.index_path.write_text("{not json", encoding="utf-8")
        assert store.load_index() == {}
        assert store.warm_load(PageCache(4), constant_signature) == 0

    def test_tampered_blob_skipped(self, tmp_path):
        store = CacheStore(tmp_path)
        cache = PageCache(capacity=4)
        cache.put("/a/", b"alpha")
        store.save(cache, constant_signature)
        blob = next(store.blob_dir.glob("*.body"))
        blob.write_bytes(b"tampered bytes")

        fresh = PageCache(capacity=4)
        assert store.warm_load(fresh, constant_signature) == 0
        assert "/a/" not in fresh

    def test_index_written_atomically(self, tmp_path):
        store = CacheStore(tmp_path)
        cache = PageCache(capacity=4)
        cache.put("/a/", b"alpha")
        store.save(cache, constant_signature)
        assert not store.index_path.with_suffix(".tmp").exists()
        json.loads(store.index_path.read_text(encoding="utf-8"))

    def test_stale_blobs_garbage_collected(self, tmp_path):
        store = CacheStore(tmp_path)
        cache = PageCache(capacity=4)
        cache.put("/a/", b"version one")
        store.save(cache, constant_signature)
        cache.put("/a/", b"version two")
        store.save(cache, constant_signature)
        blobs = list(store.blob_dir.glob("*.body"))
        assert len(blobs) == 1
        assert blobs[0].read_bytes() == b"version two"


class TestSearchNotPersisted:
    """Only the page cache is persisted; the search index is always built."""

    QUERIES = ("cards", "parallel sorting", "deadlock", "sorting network")

    def _searches(self, app):
        return {q: [(h.name, h.score, h.matched_terms)
                    for h in app.state.search.search(q, limit=50)]
                for q in self.QUERIES}

    def test_save_cache_writes_no_search_file(self, tmp_path):
        cache_dir = tmp_path / "cache"
        app = create_app(watch=False, cache_dir=cache_dir)
        for _ in range(2):                       # second miss is admitted
            assert call_app(app, "/api/search?q=cards").status == 200
        assert app.save_cache() > 0
        assert sorted(p.name for p in cache_dir.iterdir()) == [
            "blobs", "cache-index.json", "sweeps"]

    @pytest.mark.parametrize("leftover", [
        json.dumps({"version": 1, "signature": "x", "checksum": "y",
                    "index": json.dumps({"docs": [{
                        "name": "gardeners", "title": "Gardeners",
                        "length": 1, "fields": {"title": {"cards": 1}}}]})}),
        "{torn",
    ], ids=["old-format", "garbage"])
    def test_leftover_search_file_is_ignored(self, tmp_path, leftover):
        cache_dir = tmp_path / "cache"
        first = create_app(watch=False, cache_dir=cache_dir)
        stream = LoadGenerator.for_app(first, seed=21).sample(120)
        run_load(first, stream, revalidate=False)
        assert first.save_cache() > 0
        stale = cache_dir / "search-postings.json"
        stale.write_text(leftover, encoding="utf-8")

        warm = create_app(watch=False, cache_dir=cache_dir)
        assert warm.warm_loaded > 0
        assert warm.store.load_errors == 0
        cold = create_app(watch=False)
        assert self._searches(warm) == self._searches(cold)
        for q in self.QUERIES:
            path = "/api/search?q=" + q.replace(" ", "+")
            assert call_app(warm, path).body == call_app(cold, path).body
        warm.save_cache()
        assert stale.read_text(encoding="utf-8") == leftover


class TestServeIntegration:
    def test_cold_app_has_zero_hit_ratio_warm_app_does_not(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = create_app(watch=False, cache_dir=cache_dir)
        assert cold.warm_loaded == 0
        stream = LoadGenerator.for_app(cold, seed=21).sample(120)
        run_load(cold, stream, revalidate=False)
        assert cold.save_cache() > 0

        warm = create_app(watch=False, cache_dir=cache_dir)
        assert warm.warm_loaded > 0
        report = run_load(warm, stream, revalidate=False)
        assert report.cache_hits == report.requests   # every request hot

    def test_content_edit_while_down_invalidates_spill(self, tmp_path):
        import shutil

        from repro.activities.catalog import corpus_dir

        content = tmp_path / "content"
        shutil.copytree(corpus_dir(), content)
        cache_dir = tmp_path / "cache"

        first = create_app(content_dir=content, watch=False,
                           cache_dir=cache_dir)
        run_load(first, ["/activities/gardeners/", "/senses/"],
                 revalidate=False)
        first.save_cache()

        page = content / "gardeners.md"
        page.write_text(page.read_text(encoding="utf-8") + "\nChanged.\n",
                        encoding="utf-8")

        second = create_app(content_dir=content, watch=False,
                            cache_dir=cache_dir)
        # the edited page is stale, the untouched listing page reloads
        assert "/activities/gardeners/" not in second.cache
        assert "/senses/" in second.cache


class TestOlderSpillFormat:
    """API bodies spilled as indented JSON, under the untagged corpus
    signature older versions gave them, are dropped at warm load; pages
    spilled beside them still reload."""

    def test_indented_api_entries_are_not_reloaded(self, tmp_path):
        from repro.serve.app import _is_cacheable_api

        cache_dir = tmp_path / "cache"
        first = create_app(watch=False, cache_dir=cache_dir)
        paths = ["/", "/senses/", "/api/activities", "/api/gaps",
                 "/api/coverage/tcpp"]
        run_load(first, paths, revalidate=False)

        old = PageCache(capacity=64)
        for entry in first.cache.entries():
            body = entry.body
            if _is_cacheable_api(entry.path):
                body = json.dumps(json.loads(body), indent=2,
                                  sort_keys=True).encode("utf-8")
            old.put(entry.path, body, entry.content_type)

        def older_signature(path):
            if _is_cacheable_api(path):
                return first.state.corpus_signature
            return first.cache_signature(path)

        assert CacheStore(cache_dir).save(old, older_signature) == len(paths)

        warm = create_app(watch=False, cache_dir=cache_dir)
        assert warm.warm_loaded == 2
        assert sorted(e.path for e in warm.cache.entries()) == ["/", "/senses/"]
        for path in paths[2:]:
            response = call_app(warm, path)
            assert response.headers["X-Cache"] == "miss"
            assert response.body == call_app(first, path).body
            assert b"\n" not in response.body
