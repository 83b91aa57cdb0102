"""Engine behavior: incrementality, determinism, report config."""

from __future__ import annotations

import os

import pytest

from repro.lint import LintConfig, LintEngine, Severity

from tests.lint.conftest import GOOD, only


def _engine(corpus, **kwargs):
    kwargs.setdefault("site", False)
    kwargs.setdefault("code", False)
    return LintEngine(LintConfig(content_dir=corpus, **kwargs))


def _touch(path, text=None):
    """Rewrite a file so its fingerprint (mtime_ns, size) changes."""
    new = text if text is not None else path.read_text() + "\n"
    path.write_text(new, encoding="utf-8")
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


def test_first_run_analyzes_everything(write_corpus):
    corpus = write_corpus(one=GOOD, two=GOOD.replace("GoodActivity", "Other"))
    result = _engine(corpus).lint()
    assert result.stats.files_total == 2
    assert result.stats.files_analyzed == 2
    assert result.stats.files_cached == 0


def test_unchanged_rerun_is_fully_cached(write_corpus):
    corpus = write_corpus(one=GOOD, two=GOOD.replace("GoodActivity", "Other"))
    engine = _engine(corpus)
    engine.lint()
    result = engine.lint()
    assert result.stats.files_analyzed == 0
    assert result.stats.files_cached == 2


def test_incremental_relint_reanalyzes_only_the_edited_file(write_corpus):
    names = {f"act{i}": GOOD.replace("GoodActivity", f"Title{i}")
             for i in range(5)}
    corpus = write_corpus(**names)
    engine = _engine(corpus)
    engine.lint()
    _touch(corpus / "act3.md")
    result = engine.lint()
    assert result.stats.files_analyzed == 1
    assert result.stats.files_cached == 4


def test_cached_rerun_reports_identical_diagnostics(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]')
    corpus = write_corpus(good=bad)
    engine = _engine(corpus)
    first = engine.lint()
    second = engine.lint()
    assert second.stats.files_analyzed == 0
    assert second.diagnostics == first.diagnostics


def test_corpus_rules_rerun_over_cached_files(write_corpus):
    """A new file can create a corpus-level defect in an unchanged one."""
    corpus = write_corpus(one=GOOD)
    engine = _engine(corpus)
    assert engine.lint().diagnostics == []
    (corpus / "two.md").write_text(GOOD, encoding="utf-8")   # same title
    result = engine.lint()
    assert result.stats.files_analyzed == 1          # only the new file
    assert len(only(result, "duplicate-title")) == 1


def test_severity_override_applies_at_report_time(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]')
    corpus = write_corpus(good=bad)
    engine = _engine(corpus)
    assert engine.lint().count(Severity.ERROR) == 1
    demoted = _engine(
        corpus,
        severity_overrides={"taxonomy-unknown-term": Severity.INFO})
    result = demoted.lint()
    assert result.count(Severity.ERROR) == 0
    assert result.count(Severity.INFO) == 1
    assert result.exit_code(Severity.ERROR) == 0


def test_disabled_rule_is_dropped(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]')
    corpus = write_corpus(good=bad)
    result = _engine(corpus,
                     disabled=frozenset({"taxonomy-unknown-term"})).lint()
    assert result.diagnostics == []


def test_severity_config_does_not_invalidate_cache(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["CS9"]')
    corpus = write_corpus(good=bad)
    engine = _engine(corpus)
    engine.lint()
    # Same cache, new report config: the engine stores raw diagnostics,
    # so flipping severities must not re-analyze anything.
    engine.config.severity_overrides = {
        "taxonomy-unknown-term": Severity.WARNING}
    result = engine.lint()
    assert result.stats.files_analyzed == 0
    assert result.diagnostics[0].severity is Severity.WARNING


def test_unknown_rule_rejected():
    with pytest.raises(ValueError, match="no-such-rule"):
        LintEngine(LintConfig(content_dir=".",
                              disabled=frozenset({"no-such-rule"})))


def test_exit_code_thresholds(write_corpus):
    bad = GOOD.replace('courses: ["CS1"]', 'courses: ["k12"]')  # warning
    corpus = write_corpus(good=bad)
    result = _engine(corpus).lint()
    assert result.exit_code(Severity.ERROR) == 0
    assert result.exit_code(Severity.WARNING) == 1
    assert result.exit_code(Severity.INFO) == 1


def test_shipped_corpus_lints_clean():
    from repro.activities.catalog import corpus_dir

    result = LintEngine(LintConfig(content_dir=corpus_dir())).lint()
    assert result.diagnostics == []
