"""Static-export ↔ serve parity: the on-demand rendered bytes must match
``Site.build()`` output file-for-file.

Both paths flow through the same render plan, so any drift (divergent
template context, stale signature logic, encoding differences) shows up
here as a byte mismatch on a named URL.

The live-server variant runs the same byte-identity check over real
sockets against both worker models — ``thread`` (one process, pooled
threads) and ``process`` (the pre-fork fleet) — so the acceptance bar
"parity passes unchanged in pre-fork mode" is enforced here.
"""

from __future__ import annotations

import threading
import urllib.request

import pytest

from repro.serve import create_app, create_server
from repro.serve.loadgen import call_app
from repro.serve.prefork import PreforkServer


@pytest.fixture(scope="module")
def app():
    return create_app(watch=False)


@pytest.fixture(scope="module")
def built_site(app, tmp_path_factory):
    out = tmp_path_factory.mktemp("site")
    stats = app.state.site.build(out)
    return out, stats


class TestParity:
    def test_every_planned_file_served_byte_identical(self, app, built_site):
        out, _ = built_site
        mismatched = []
        for task in app.state.plan:
            exported = (out / task.rel_path).read_bytes()
            served = call_app(app, task.url)
            assert served.status == 200, task.url
            if served.body != exported:
                mismatched.append(task.url)
        assert mismatched == []

    def test_export_covers_exactly_the_plan(self, app, built_site):
        out, stats = built_site
        exported = {str(p.relative_to(out)) for p in out.rglob("*.html")}
        planned = {task.rel_path for task in app.state.plan}
        assert exported == planned
        assert stats.total_files == len(planned)

    def test_signatures_identify_rendered_bytes(self, app, built_site):
        """Two tasks sharing a signature render identical bytes — the
        invariant both the incremental build and the persistent cache key
        off of."""
        out, _ = built_site
        by_signature = {}
        for task in app.state.plan:
            body = (out / task.rel_path).read_bytes()
            previous = by_signature.setdefault(task.signature, body)
            assert previous == body, task.rel_path

    def test_parity_survives_cache_and_warm_start(self, tmp_path):
        """Warm-loaded responses are the same bytes the exporter writes."""
        from repro.serve import run_load

        cache_dir = tmp_path / "cache"
        first = create_app(watch=False, cache_dir=cache_dir)
        urls = [task.url for task in first.state.plan[:20]]
        run_load(first, urls, revalidate=False)
        first.save_cache()

        warm = create_app(watch=False, cache_dir=cache_dir)
        out = tmp_path / "site"
        warm.state.site.build(out)
        for task in warm.state.plan[:20]:
            served = call_app(warm, task.url)
            assert served.headers.get("X-Cache") == "hit", task.url
            assert served.body == (out / task.rel_path).read_bytes()


@pytest.fixture(scope="module", params=["thread", "process"])
def live_server(request, app):
    """A live HTTP server over the packaged corpus, one per worker model."""
    if request.param == "thread":
        server, _ = create_server(port=0, app=app, quiet=True, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        yield request.param, base
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
    else:
        fleet = PreforkServer(port=0, workers=2, watch=False, quiet=True)
        fleet.start()
        assert fleet.wait_ready(timeout_s=60.0), "fleet never became ready"
        yield request.param, fleet.base_url
        fleet.stop()


class TestLiveParity:
    """The acceptance bar: parity holds unchanged over both worker models."""

    def test_served_bytes_match_export_over_http(self, live_server, app,
                                                 built_site):
        out, _ = built_site
        model, base = live_server
        mismatched = []
        for task in app.state.plan:
            with urllib.request.urlopen(base + task.url, timeout=30.0) as resp:
                assert resp.status == 200, (model, task.url)
                body = resp.read()
            if body != (out / task.rel_path).read_bytes():
                mismatched.append(task.url)
        assert mismatched == [], model
