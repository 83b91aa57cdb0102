"""``pdcunplugged sanitize`` end to end over the seeded race fixture."""

from __future__ import annotations

import json

import pytest

from repro import sanitize
from repro.cli import main

TARGET = "tests.sanitize.race_fixture:run_seeded_race"


@pytest.fixture(autouse=True)
def _no_session_sanitizer():
    """The CLI activates its own sanitizer; park any session-wide one."""
    previous = sanitize.deactivate()
    try:
        yield
    finally:
        if sanitize.current() is not None:
            sanitize.deactivate()
        if previous is not None:
            sanitize.activate(previous)


class TestSanitizeCommand:
    def test_seeded_race_exits_nonzero_and_reports(self, capsys):
        code = main(["sanitize", TARGET, "--no-crossref"])
        out = capsys.readouterr().out
        assert code == 1
        assert "sanitize-data-race" in out
        assert "race_fixture.counter.value" in out

    def test_report_is_deterministic_across_runs(self, capsys):
        main(["sanitize", TARGET, "--no-crossref"])
        first = capsys.readouterr().out
        main(["sanitize", TARGET, "--no-crossref"])
        second = capsys.readouterr().out
        assert first == second

    def test_json_format(self, capsys):
        code = main(["sanitize", TARGET, "--no-crossref", "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        rules = [d["rule"] for d in payload["diagnostics"]]
        assert "sanitize-data-race" in rules

    def test_counters_appended(self, capsys):
        main(["sanitize", TARGET, "--no-crossref", "--counters"])
        out = capsys.readouterr().out
        assert '"sanitizer"' in out
        assert '"races": 1' in out

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        code = main(["sanitize", TARGET, "--no-crossref",
                     "--baseline", str(baseline), "--write-baseline"])
        assert code == 0
        assert baseline.is_file()
        capsys.readouterr()
        code = main(["sanitize", TARGET, "--no-crossref",
                     "--baseline", str(baseline)])
        assert code == 0
        assert "sanitize-data-race" not in capsys.readouterr().out

    def test_select_filters_rules(self, capsys):
        code = main(["sanitize", TARGET, "--no-crossref",
                     "--select", "sanitize-lock-stall"])
        assert code == 0
        assert "sanitize-data-race" not in capsys.readouterr().out

    def test_disable_takes_comma_separated_rules(self, capsys):
        code = main(["sanitize", TARGET, "--no-crossref", "--disable",
                     "sanitize-data-race,sanitize-lock-stall"])
        assert code == 0
        assert "sanitize-data-race" not in capsys.readouterr().out

    def test_unknown_select_rule_is_usage_error(self, capsys):
        code = main(["sanitize", TARGET, "--no-crossref",
                     "--select", "no-such-rule"])
        assert code == 2
        assert "no-such-rule" in capsys.readouterr().err

    def test_write_baseline_requires_baseline(self, capsys):
        code = main(["sanitize", TARGET, "--write-baseline"])
        assert code == 2
        assert "--baseline" in capsys.readouterr().err

    def test_bad_target_is_usage_error(self, capsys):
        code = main(["sanitize", "tests.sanitize.race_fixture:no_such_fn"])
        assert code == 2
        assert "failed" in capsys.readouterr().err
        assert sanitize.current() is None

    def test_severity_override_downgrades_exit(self, capsys):
        code = main(["sanitize", TARGET, "--no-crossref",
                     "--severity", "sanitize-data-race=info"])
        assert code == 0
