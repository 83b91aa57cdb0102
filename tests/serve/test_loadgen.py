"""Load generator tests: determinism, zipf shape, runner behavior."""

from __future__ import annotations

import pytest

from repro.serve import create_app
from repro.serve.loadgen import LoadGenerator, call_app, run_load, zipf_weights


@pytest.fixture(scope="module")
def app():
    return create_app(watch=False)


class TestZipfWeights:
    def test_monotone_decreasing(self):
        weights = zipf_weights(10)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_exponent_sharpens(self):
        flat = zipf_weights(10, exponent=0.5)
        sharp = zipf_weights(10, exponent=2.0)
        assert sharp[9] / sharp[0] < flat[9] / flat[0]

    def test_empty(self):
        assert zipf_weights(0) == []


class TestLoadGenerator:
    def test_deterministic(self, app):
        gen1 = LoadGenerator.for_app(app, seed=7)
        gen2 = LoadGenerator.for_app(app, seed=7)
        assert gen1.sample(50) == gen2.sample(50)

    def test_seed_changes_stream(self, app):
        gen = LoadGenerator.for_app(app, seed=7)
        other = LoadGenerator.for_app(app, seed=8)
        assert gen.sample(50) != other.sample(50)

    def test_population_is_site_urls(self, app):
        gen = LoadGenerator.for_app(app)
        assert "/" in gen.urls
        assert "/activities/gardeners/" in gen.urls
        assert all(u.startswith("/") for u in gen.urls)

    def test_rank_one_dominates(self, app):
        gen = LoadGenerator.for_app(app, exponent=1.2, seed=0)
        sample = gen.sample(2000)
        top = gen.urls[0]
        assert sample.count(top) > len(sample) / len(gen.urls) * 3

    def test_requires_urls(self):
        with pytest.raises(ValueError):
            LoadGenerator([])


class TestRunLoad:
    def test_revalidating_run_earns_304s(self, app):
        gen = LoadGenerator.for_app(app, seed=1)
        report = run_load(app, gen.sample(200))
        assert report.requests == 200
        assert report.ok
        assert report.revalidations > 0
        assert report.statuses[200] + report.statuses[304] == 200
        assert report.requests_per_s > 0

    def test_no_revalidate_all_200(self, app):
        gen = LoadGenerator.for_app(app, seed=1)
        report = run_load(app, gen.sample(100), revalidate=False)
        assert report.statuses == {200: 100}
        assert report.revalidations == 0

    def test_call_app_parses_query(self, app):
        response = call_app(app, "/api/search?q=cards&limit=3")
        assert response.status == 200


class TestMixedStreams:
    def test_sample_requests_deterministic(self, app):
        gen_a = LoadGenerator.for_app(app, seed=3, api_ratio=0.3,
                                      conditional_ratio=0.5)
        gen_b = LoadGenerator.for_app(app, seed=3, api_ratio=0.3,
                                      conditional_ratio=0.5)
        assert gen_a.sample_requests(100) == gen_b.sample_requests(100)

    def test_api_ratio_controls_mix(self, app):
        gen = LoadGenerator.for_app(app, seed=3, api_ratio=0.4)
        stream = gen.sample_requests(1000)
        api = sum(1 for r in stream if r.path.startswith("/api/"))
        assert 300 < api < 500                 # ~40% +/- sampling noise

    def test_api_ratio_zero_is_pages_only(self, app):
        gen = LoadGenerator.for_app(app, seed=3, api_ratio=0.0)
        assert not any(r.path.startswith("/api/")
                       for r in gen.sample_requests(500))

    def test_conditional_ratio_marks_requests(self, app):
        gen = LoadGenerator.for_app(app, seed=3, conditional_ratio=0.25)
        stream = gen.sample_requests(1000)
        conditional = sum(1 for r in stream if r.conditional)
        assert 180 < conditional < 330

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            LoadGenerator(["/"], api_ratio=1.5)
        with pytest.raises(ValueError):
            LoadGenerator(["/"], conditional_ratio=-0.1)
        with pytest.raises(ValueError):
            LoadGenerator(["/"], api_ratio=0.5)     # no api_paths given

    def test_mixed_run_hits_api_and_earns_304s(self, app):
        from repro.serve.loadgen import LoadRequest

        gen = LoadGenerator.for_app(app, seed=13, api_ratio=0.3,
                                    conditional_ratio=0.7)
        report = run_load(app, gen.sample_requests(300))
        assert report.ok
        assert report.api_requests > 0
        assert report.revalidations > 0
        assert report.stale_hits == 0
        assert len(report.latencies_s) == 300
        assert report.latency_percentile_ms(99.9) >= \
            report.latency_percentile_ms(50)
        # plain strings still accepted for backward compatibility
        legacy = run_load(app, ["/", "/"])
        assert legacy.requests == 2
        assert isinstance(LoadRequest("/"), LoadRequest)

    def test_unconditional_requests_never_revalidate(self, app):
        gen = LoadGenerator.for_app(app, seed=13, conditional_ratio=0.0)
        report = run_load(app, gen.sample_requests(200))
        assert report.revalidations == 0
        assert set(report.statuses) == {200}


class TestConcurrentRunner:
    def test_concurrent_run_matches_totals(self, app):
        from repro.serve.loadgen import run_load_concurrent

        gen = LoadGenerator.for_app(app, seed=17, api_ratio=0.2)
        stream = gen.sample_requests(200)
        report = run_load_concurrent(app, stream, clients=4)
        assert report.clients == 4
        assert report.requests == 200
        assert report.ok
        assert len(report.latencies_s) == 200

    def test_clients_validated(self, app):
        from repro.serve.loadgen import run_load_concurrent

        with pytest.raises(ValueError):
            run_load_concurrent(app, ["/"], clients=0)
