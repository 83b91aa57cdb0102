"""ServeApp routing tests, driven in-process through the WSGI client."""

from __future__ import annotations

import json

import pytest

from repro.serve import create_app
from repro.serve.cache import shard_for
from repro.serve.loadgen import call_app


@pytest.fixture(scope="module")
def app():
    return create_app(watch=False)


def get_json(app, path, **kwargs):
    response = call_app(app, path, **kwargs)
    return response, json.loads(response.body)


class TestHtmlRoutes:
    def test_home(self, app):
        response = call_app(app, "/")
        assert response.status == 200
        assert "All Activities" in response.body.decode()
        assert response.etag

    def test_activity_page(self, app):
        response = call_app(app, "/activities/gardeners/")
        assert response.status == 200
        assert "<article>" in response.body.decode()

    def test_term_and_taxonomy_pages(self, app):
        assert call_app(app, "/senses/").status == 200
        assert call_app(app, "/senses/touch/").status == 200

    def test_view_page(self, app):
        response = call_app(app, "/views/cs2013/")
        assert response.status == 200
        assert "view" in response.body.decode()

    def test_missing_slash_redirects(self, app):
        response = call_app(app, "/activities/gardeners")
        assert response.status == 301
        assert response.headers["Location"] == "/activities/gardeners/"

    def test_unknown_page_404(self, app):
        assert call_app(app, "/activities/nope/").status == 404

    def test_post_rejected(self, app):
        assert call_app(app, "/", method="POST").status == 405

    def test_head_has_no_body(self, app):
        response = call_app(app, "/", method="HEAD")
        assert response.status == 200
        assert response.body == b""
        assert response.etag

    def test_cache_hit_and_304(self, app):
        first = call_app(app, "/activities/diningphilosophers/")
        again = call_app(app, "/activities/diningphilosophers/")
        assert again.headers["X-Cache"] == "hit"
        assert again.etag == first.etag
        revalidated = call_app(app, "/activities/diningphilosophers/",
                               headers={"If-None-Match": first.etag})
        assert revalidated.status == 304
        assert revalidated.body == b""
        assert revalidated.etag == first.etag


class TestApiRoutes:
    def test_activities(self, app):
        response, payload = get_json(app, "/api/activities")
        assert response.status == 200
        assert payload["count"] == 38
        byname = {a["name"]: a for a in payload["activities"]}
        assert byname["findsmallestcard"]["has_simulation"] is True
        assert byname["gardeners"]["url"] == "/activities/gardeners/"

    def test_search(self, app):
        response, payload = get_json(app, "/api/search?q=byzantine+generals")
        assert response.status == 200
        assert payload["hits"][0]["name"] == "byzantinegenerals"
        assert payload["hits"][0]["url"] == "/activities/byzantinegenerals/"

    def test_search_requires_query(self, app):
        response, payload = get_json(app, "/api/search")
        assert response.status == 400
        assert "q" in payload["error"]

    def test_search_limit_validated(self, app):
        assert call_app(app, "/api/search?q=cards&limit=zzz").status == 400

    def test_coverage_cs2013(self, app):
        response, payload = get_json(app, "/api/coverage/cs2013")
        assert response.status == 200
        rows = {r["term"]: r for r in payload["rows"]}
        # Table I headline: parallelism fundamentals 5/6 covered = 83.33%.
        assert any(abs(r["percent"] - 83.33) < 0.01 for r in rows.values())

    def test_coverage_tcpp(self, app):
        response, payload = get_json(app, "/api/coverage/tcpp")
        assert response.status == 200
        assert payload["standard"] == "tcpp"
        assert len(payload["rows"]) == 4

    def test_gaps(self, app):
        response, payload = get_json(app, "/api/gaps")
        assert response.status == 200
        assert payload["total_uncovered_outcomes"] == 32
        assert payload["total_uncovered_topics"] == 48

    def test_simulate(self, app):
        response, payload = get_json(
            app, "/api/simulate/findsmallestcard?n=8&seed=3")
        assert response.status == 200
        assert payload["all_checks_pass"] is True
        assert payload["classroom_size"] == 8

    def test_simulate_deterministic(self, app):
        _, a = get_json(app, "/api/simulate/findsmallestcard?n=8&seed=3")
        _, b = get_json(app, "/api/simulate/findsmallestcard?n=8&seed=3")
        assert a["metrics"] == b["metrics"]

    def test_simulate_unknown_404(self, app):
        response, payload = get_json(app, "/api/simulate/quantumsort")
        assert response.status == 404
        assert "available" in payload

    def test_simulate_bad_params(self, app):
        assert call_app(app, "/api/simulate/findsmallestcard?n=1").status == 400
        assert call_app(app, "/api/simulate/findsmallestcard?n=zzz").status == 400

    def test_unknown_api_404(self, app):
        assert call_app(app, "/api/bogus").status == 404

    def test_api_responses_cached_with_etags(self, app):
        first = call_app(app, "/api/gaps")
        again = call_app(app, "/api/gaps")
        assert again.headers["X-Cache"] == "hit"
        assert call_app(app, "/api/gaps",
                        headers={"If-None-Match": first.etag}).status == 304


class TestMetricsEndpoint:
    def test_reports_requests_and_cache(self):
        app = create_app(watch=False)
        call_app(app, "/")
        call_app(app, "/")
        _, payload = get_json(app, "/api/metrics")
        assert payload["total_requests"] >= 2
        assert payload["routes"]["page:home"]["requests"] == 2
        assert payload["cache"]["hits"] == 1
        latency = payload["routes"]["page:home"]["latency"]
        assert latency["count"] == 2
        assert latency["p50_ms"] <= latency["p99_ms"]
        assert payload["page_cache"]["entries"] >= 1

    def test_metrics_not_cached(self):
        app = create_app(watch=False)
        first = call_app(app, "/api/metrics")
        assert "X-Cache" not in first.headers


class TestCacheDisabled:
    def test_serves_with_etags_but_no_cache(self):
        app = create_app(watch=False, cache_enabled=False)
        first = call_app(app, "/")
        again = call_app(app, "/")
        assert "X-Cache" not in again.headers
        assert first.etag == again.etag          # content-addressed either way
        assert call_app(app, "/", headers={"If-None-Match": first.etag}).status == 304


class TestSearchAdmission:
    """One-off searches must not evict pages: a query-string key enters
    the cache only on its second miss, and a refused response is served
    exactly as an admitted one."""

    CACHE_SIZE = 64                      # 8 shards of 8 entries

    @pytest.fixture()
    def small_app(self):
        return create_app(watch=False, cache_size=self.CACHE_SIZE)

    def test_distinct_searches_leave_hot_pages_cached(self, small_app,
                                                      monkeypatch):
        app = small_app
        shards = app.cache.shards
        per_shard = app.cache.capacity // shards
        hot, load = [], {}
        for task in app.state.plan:        # at most half of every shard
            shard = shard_for(task.url, shards)
            if load.get(shard, 0) < per_shard // 2:
                load[shard] = load.get(shard, 0) + 1
                hot.append(task.url)
        for url in hot + hot:
            assert call_app(app, url).status == 200
        renders = []
        real = app._render_guarded
        monkeypatch.setattr(app, "_render_guarded",
                            lambda render: renders.append(1) or real(render))
        for i in range(3 * self.CACHE_SIZE):
            assert call_app(app, f"/api/search?q=cards+w{i}").status == 200
        assert len(renders) == 3 * self.CACHE_SIZE
        renders.clear()
        for url in hot:
            response = call_app(app, url)
            assert response.headers["X-Cache"] == "hit", url
        assert renders == []

    def test_refused_and_admitted_search_answer_alike(self, small_app):
        app = small_app
        url = "/api/search?q=parallel+sorting"
        refused = call_app(app, url)
        admitted = call_app(app, url)
        cached = call_app(app, url)
        assert [r.headers["X-Cache"] for r in (refused, admitted, cached)] \
            == ["miss", "miss", "hit"]
        for response in (admitted, cached):
            assert response.status == refused.status == 200
            assert response.body == refused.body
            assert response.etag == refused.etag
            assert response.headers["Content-Type"] == \
                refused.headers["Content-Type"]
        revalidated = call_app(app, url,
                               headers={"If-None-Match": refused.etag})
        assert revalidated.status == 304
        assert revalidated.etag == refused.etag

    def test_revalidation_on_refused_and_admitting_misses(self, small_app):
        app = small_app
        url = "/api/search?q=deadlock"
        first = call_app(app, url)
        second = call_app(app, url, headers={"If-None-Match": first.etag})
        third = call_app(app, url, headers={"If-None-Match": first.etag})
        assert first.headers["X-Cache"] == "miss" and first.status == 200
        assert second.headers["X-Cache"] == "miss" and second.status == 304
        assert third.headers["X-Cache"] == "hit" and third.status == 304
        assert first.etag == second.etag == third.etag
