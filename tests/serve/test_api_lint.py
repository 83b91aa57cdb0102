"""``GET /api/lint``: snapshotting, rebuild invalidation, concurrency."""

from __future__ import annotations

import json
import shutil
import threading

import pytest

from repro.activities.catalog import corpus_dir
from repro.serve.app import create_app


def _get(app, path):
    env = {"REQUEST_METHOD": "GET", "PATH_INFO": path, "QUERY_STRING": ""}
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])

    body = b"".join(app(env, start_response))
    return captured["status"], json.loads(body) if body else None


@pytest.fixture()
def content_dir(tmp_path):
    target = tmp_path / "content"
    target.mkdir()
    for source in sorted(corpus_dir().glob("*.md")):
        shutil.copy(source, target / source.name)
    return target


def test_api_lint_clean_corpus(content_dir):
    app = create_app(content_dir=content_dir, watch=False)
    status, payload = _get(app, "/api/lint")
    assert status == 200
    assert payload["clean"] is True
    assert payload["counts"] == {"error": 0, "info": 0, "warning": 0}
    assert payload["fixable"] == 0
    assert payload["fixes"] == []
    assert payload["stats"]["files_total"] == 38     # corpus only, no code
    assert payload["signature"]


def test_api_lint_snapshot_reused_until_corpus_changes(content_dir):
    app = create_app(content_dir=content_dir, watch=False)
    _, first = _get(app, "/api/lint")
    _, second = _get(app, "/api/lint")
    assert second == first                           # served from snapshot


def test_api_lint_refreshes_after_rebuild(content_dir):
    app = create_app(content_dir=content_dir, watch=False)
    _, before = _get(app, "/api/lint")
    assert before["clean"] is True

    page = content_dir / "actingoutalgorithms.md"
    page.write_text(
        page.read_text(encoding="utf-8").replace(
            'courses: ["K_12", "CS1", "DSA"]',
            'courses: ["K_12", "CS1", "Bogus101"]'),
        encoding="utf-8")
    assert app.background.run_once().ok

    _, after = _get(app, "/api/lint")
    assert after["signature"] != before["signature"]
    assert after["clean"] is False
    assert after["counts"]["error"] == 1
    [diag] = [d for d in after["diagnostics"]
              if d["rule"] == "taxonomy-unknown-term"]
    assert "Bogus101" in diag["message"]
    # Incremental engine: the re-lint re-analyzed only the edited file.
    assert after["stats"]["files_analyzed"] == 1


def test_api_lint_concurrent_requests_agree(content_dir):
    app = create_app(content_dir=content_dir, watch=False)
    results, errors = [], []

    def hit():
        try:
            results.append(_get(app, "/api/lint"))
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append(exc)

    threads = [threading.Thread(target=hit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(results) == 8
    statuses = {status for status, _ in results}
    assert statuses == {200}, [p for s, p in results if s != 200]
    payloads = [payload for _, payload in results]
    assert all(p["clean"] is True for p in payloads)
    assert len({p["signature"] for p in payloads}) == 1


def test_api_lint_concurrent_first_requests_share_one_engine(
        content_dir, monkeypatch):
    """Two first requests build one engine and answer identically."""
    import repro.lint

    built = []
    both_in_lint = threading.Barrier(2, timeout=10)

    class CountingEngine(repro.lint.LintEngine):
        def __init__(self, config):
            built.append(config)
            super().__init__(config)

        def lint(self):
            # Hold both requests here until both have fetched an engine,
            # so neither run can finish and store one before the other
            # request looks.
            both_in_lint.wait()
            return super().lint()

    monkeypatch.setattr(repro.lint, "LintEngine", CountingEngine)
    app = create_app(content_dir=content_dir, watch=False)
    results = []
    threads = [threading.Thread(
        target=lambda: results.append(_get(app, "/api/lint")))
        for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert len(built) == 1
    assert [status for status, _ in results] == [200, 200]
    assert results[0][1] == results[1][1]


def test_api_lint_reports_fixable_findings(content_dir):
    page = content_dir / "actingoutalgorithms.md"
    page.write_text(
        page.read_text(encoding="utf-8").replace(
            'senses: ["visual", "movement"]',
            'senses: ["Visual", "movement"]'),
        encoding="utf-8")
    app = create_app(content_dir=content_dir, watch=False)
    _, payload = _get(app, "/api/lint")
    assert payload["clean"] is False
    assert payload["fixable"] == 1
    [fix] = payload["fixes"]
    assert fix["rule"] == "taxonomy-noncanonical-term"
    assert fix["edits"][0]["replacement"] == "visual"


def test_api_lint_persists_cache_alongside_page_cache(content_dir, tmp_path):
    cache_dir = tmp_path / "serve-cache"
    app = create_app(content_dir=content_dir, watch=False,
                     cache_dir=cache_dir)
    _, cold = _get(app, "/api/lint")
    assert cold["stats"]["files_analyzed"] > 0
    assert (cache_dir / "lint-cache.json").exists()
    # A new app over the same cache dir = a restarted server process.
    app2 = create_app(content_dir=content_dir, watch=False,
                      cache_dir=cache_dir)
    _, warm = _get(app2, "/api/lint")
    assert warm["stats"]["files_analyzed"] == 0
    assert warm["diagnostics"] == cold["diagnostics"]


def test_api_lint_listed_as_unknown_routes_still_404(content_dir):
    app = create_app(content_dir=content_dir, watch=False)
    status, payload = _get(app, "/api/lintx")
    assert status == 404


def _get_query(app, path, query):
    env = {"REQUEST_METHOD": "GET", "PATH_INFO": path, "QUERY_STRING": query}
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])

    body = b"".join(app(env, start_response))
    return captured["status"], json.loads(body) if body else None


class TestRulesParam:
    """``?rules=a,b`` — report-time narrowing, mirroring ``lint --select``."""

    def _dirty_app(self, content_dir):
        # One taxonomy error + one fixable noncanonical term.
        page = content_dir / "actingoutalgorithms.md"
        page.write_text(
            page.read_text(encoding="utf-8")
            .replace('courses: ["K_12", "CS1", "DSA"]',
                     'courses: ["K_12", "CS1", "Bogus101"]')
            .replace('senses: ["visual", "movement"]',
                     'senses: ["Visual", "movement"]'),
            encoding="utf-8")
        return create_app(content_dir=content_dir, watch=False)

    def test_filters_diagnostics_and_recounts(self, content_dir):
        app = self._dirty_app(content_dir)
        status, payload = _get_query(
            app, "/api/lint", "rules=taxonomy-unknown-term")
        assert status == 200
        assert payload["rules"] == ["taxonomy-unknown-term"]
        assert {d["rule"] for d in payload["diagnostics"]} \
            == {"taxonomy-unknown-term"}
        assert payload["counts"]["error"] == 1
        assert payload["counts"]["warning"] == 0
        assert payload["fixable"] == 0 and payload["fixes"] == []
        assert payload["clean"] is False

    def test_clean_when_selected_rules_have_no_findings(self, content_dir):
        app = self._dirty_app(content_dir)
        status, payload = _get_query(
            app, "/api/lint", "rules=duplicate-slug")
        assert status == 200
        assert payload["clean"] is True
        assert payload["diagnostics"] == []

    def test_unknown_rule_is_400(self, content_dir):
        app = create_app(content_dir=content_dir, watch=False)
        status, payload = _get_query(app, "/api/lint", "rules=no-such-rule")
        assert status == 400
        assert "no-such-rule" in payload["error"]

    def test_code_rule_is_400(self, content_dir):
        app = create_app(content_dir=content_dir, watch=False)
        status, payload = _get_query(
            app, "/api/lint", "rules=taxonomy-unknown-term,serve-lock-order")
        assert status == 400
        assert payload["error"] == \
            "code rules are not served: serve-lock-order"

    def test_filtering_does_not_fork_the_snapshot(self, content_dir):
        app = self._dirty_app(content_dir)
        _, full_before = _get(app, "/api/lint")
        _, narrowed = _get_query(
            app, "/api/lint", "rules=taxonomy-noncanonical-term")
        _, full_after = _get(app, "/api/lint")
        assert full_after == full_before
        assert narrowed["signature"] == full_before["signature"]
        assert len(narrowed["diagnostics"]) < len(full_before["diagnostics"])

    def test_comma_and_repeat_forms_agree(self, content_dir):
        app = self._dirty_app(content_dir)
        _, combined = _get_query(
            app, "/api/lint",
            "rules=taxonomy-unknown-term,taxonomy-noncanonical-term")
        _, repeated = _get_query(
            app, "/api/lint",
            "rules=taxonomy-unknown-term&rules=taxonomy-noncanonical-term")
        assert combined == repeated
        assert combined["counts"]["error"] == 1
