"""--changed restriction, internal-error containment, v3 cache rows."""

from __future__ import annotations

import subprocess
import textwrap
from pathlib import Path

from repro.cli import main
from repro.lint import (
    LintConfig,
    LintEngine,
    Severity,
    render_json,
)
from repro.lint import forksafety, rules_code
from repro.lint.cachefile import load_cache

from tests.lint.conftest import GOOD

FORKER = '''
    import multiprocessing

    class Forker:
        def __init__(self):
            self.pool = multiprocessing.Pool(2)
'''

DRIVER = '''
    import threading

    class Driver:
        def __init__(self):
            self._lock = threading.Lock()

        def go(self):
            with self._lock:
                Forker()
'''


def _write_code(code_dir: Path, **files: str) -> None:
    code_dir.mkdir(exist_ok=True)
    for name, source in files.items():
        (code_dir / f"{name}.py").write_text(textwrap.dedent(source),
                                             encoding="utf-8")


def _engine(corpus: Path, code_dir: Path, **overrides) -> LintEngine:
    return LintEngine(LintConfig(content_dir=corpus, code_dir=code_dir,
                                 site=False, **overrides))


class TestChangedRestriction:
    def _seed(self, write_corpus, tmp_path):
        corpus = write_corpus(good=GOOD)
        code_dir = tmp_path / "code"
        _write_code(code_dir, a=FORKER, b=DRIVER)
        cache = tmp_path / "lint-cache"
        cold = _engine(corpus, code_dir, cache_dir=cache).lint()
        (diag,) = cold.diagnostics
        assert diag.rule_id == "fork-safety-lock-across-fork"
        return corpus, code_dir, cache

    def test_dependent_of_changed_file_is_reanalyzed(self, write_corpus,
                                                     tmp_path):
        corpus, code_dir, cache = self._seed(write_corpus, tmp_path)
        changed = frozenset({str((code_dir / "a.py").resolve())})
        result = _engine(corpus, code_dir, cache_dir=cache,
                         changed_only=changed).lint()
        # b.py calls into the class a.py defines, so the cross-file
        # finding (anchored in b.py) must survive the restriction.
        (diag,) = result.diagnostics
        assert diag.file.endswith("b.py")
        assert result.stats.files_skipped == 0

    def test_changed_file_pulls_in_its_definers(self, write_corpus,
                                                tmp_path):
        corpus, code_dir, cache = self._seed(write_corpus, tmp_path)
        changed = frozenset({str((code_dir / "b.py").resolve())})
        result = _engine(corpus, code_dir, cache_dir=cache,
                         changed_only=changed).lint()
        (diag,) = result.diagnostics
        assert diag.file.endswith("b.py")

    def test_unrelated_change_reports_nothing(self, write_corpus, tmp_path):
        corpus, code_dir, cache = self._seed(write_corpus, tmp_path)
        changed = frozenset({str((code_dir / "nope.py").resolve())})
        result = _engine(corpus, code_dir, cache_dir=cache,
                         changed_only=changed).lint()
        assert result.diagnostics == []
        # Everything outside the changed set came from the warm cache.
        assert result.stats.files_analyzed == 0
        assert result.stats.files_cached == result.stats.files_total

    def test_without_cache_unchanged_files_are_skipped(self, write_corpus,
                                                       tmp_path):
        corpus = write_corpus(good=GOOD)
        code_dir = tmp_path / "code"
        _write_code(code_dir, a=FORKER, b=DRIVER)
        changed = frozenset({str((code_dir / "nope.py").resolve())})
        result = _engine(corpus, code_dir, changed_only=changed).lint()
        assert result.diagnostics == []
        assert result.stats.files_skipped == result.stats.files_total
        assert result.stats.files_analyzed == 0

    def test_exit_codes_unchanged_by_restriction(self, write_corpus,
                                                 tmp_path):
        corpus, code_dir, cache = self._seed(write_corpus, tmp_path)
        changed = frozenset({str((code_dir / "a.py").resolve())})
        restricted = _engine(corpus, code_dir, cache_dir=cache,
                             changed_only=changed).lint()
        full = _engine(corpus, code_dir, cache_dir=cache).lint()
        assert restricted.exit_code() == full.exit_code() == 1


class TestChangedSymlinks:
    """``changed_only`` holds resolved paths; symlinks resolve in full."""

    def _corpus(self, write_corpus, tmp_path):
        corpus = write_corpus(good=GOOD)
        target = tmp_path / "elsewhere" / "target.md"
        target.parent.mkdir()
        target.write_text(GOOD, encoding="utf-8")
        (corpus / "linked.md").symlink_to(target)
        code_dir = tmp_path / "code"
        _write_code(code_dir)
        return corpus, code_dir, target

    def test_symlinked_file_matches_its_target(self, write_corpus,
                                               tmp_path):
        corpus, code_dir, target = self._corpus(write_corpus, tmp_path)
        changed = frozenset({str(target.resolve())})
        result = _engine(corpus, code_dir, changed_only=changed).lint()
        assert result.stats.files_analyzed == 1       # linked.md only
        assert result.stats.files_skipped == 1        # good.md

    def test_symlink_path_itself_is_not_its_resolution(self, write_corpus,
                                                       tmp_path):
        corpus, code_dir, _target = self._corpus(write_corpus, tmp_path)
        changed = frozenset({str(corpus.resolve() / "linked.md")})
        result = _engine(corpus, code_dir, changed_only=changed).lint()
        assert result.stats.files_analyzed == 0
        assert result.stats.files_skipped == 2

    def test_files_under_a_symlinked_directory(self, write_corpus,
                                               tmp_path):
        corpus, code_dir, _target = self._corpus(write_corpus, tmp_path)
        alias = tmp_path / "alias"
        alias.symlink_to(corpus, target_is_directory=True)
        changed = frozenset({str(corpus.resolve() / "good.md")})
        result = _engine(alias, code_dir, changed_only=changed).lint()
        assert result.stats.files_analyzed == 1       # good.md via alias
        assert result.stats.files_skipped == 1        # linked.md


class TestInternalErrorContainment:
    def test_per_file_crash_becomes_synthetic_diagnostic(
            self, write_corpus, tmp_path, monkeypatch, capsys):
        corpus = write_corpus(good=GOOD)
        code_dir = tmp_path / "code"
        _write_code(code_dir, a=FORKER)
        cache = tmp_path / "lint-cache"

        def boom(file, source):
            raise RuntimeError("kaboom")

        monkeypatch.setattr(rules_code, "analyze_source_full", boom)
        result = _engine(corpus, code_dir, cache_dir=cache).lint()
        (diag,) = [d for d in result.diagnostics
                   if d.rule_id == "lint-internal-error"]
        assert diag.severity is Severity.ERROR
        assert diag.file.endswith("a.py")
        assert "RuntimeError: kaboom" in diag.message
        assert result.exit_code() == 1
        assert result.stats.internal_errors == 1
        err = capsys.readouterr().err
        assert "lint-internal-error [code:a.py]" in err
        assert "RuntimeError: kaboom" in err       # the traceback

        # Crashed rows are never cached: once the crash is gone the
        # same cache dir re-analyzes the file and reports it normally.
        monkeypatch.undo()
        healed = _engine(corpus, code_dir, cache_dir=cache).lint()
        assert healed.stats.internal_errors == 0
        assert healed.diagnostics == []
        assert healed.stats.files_analyzed >= 1   # a.py was not cached

    def test_corpus_rule_crash_is_contained(self, write_corpus, tmp_path,
                                            monkeypatch, capsys):
        corpus = write_corpus(good=GOOD)
        code_dir = tmp_path / "code"
        _write_code(code_dir, a=FORKER)

        def boom(summaries):
            raise ValueError("corpus boom")

        monkeypatch.setattr(forksafety, "analyze_corpus", boom)
        result = _engine(corpus, code_dir).lint()
        (diag,) = [d for d in result.diagnostics
                   if d.rule_id == "lint-internal-error"]
        assert diag.file == "<lint>"
        assert "fork-safety crashed" in diag.message
        assert "ValueError: corpus boom" in diag.message
        assert "Traceback" in capsys.readouterr().err


class TestCacheV3Rows:
    SOURCE = '''
        import os

        def note(path):
            f = open(path, "w")
            f.write("x")
            f.close()

        def spawn():
            os.fork()
    '''

    def test_code_rows_round_trip_fixes_and_summaries(self, write_corpus,
                                                      tmp_path):
        corpus = write_corpus(good=GOOD)
        code_dir = tmp_path / "code"
        _write_code(code_dir, mod=self.SOURCE)
        cache = tmp_path / "lint-cache"
        cold = _engine(corpus, code_dir, cache_dir=cache).lint()
        (fix,) = cold.fixes
        assert fix.rule_id == "resource-lifecycle-unguarded"

        _content, code = load_cache(cache)
        (row,) = [row for key, row in code.items() if key.endswith("mod.py")]
        _fp, _diags, fixes, _supp, _summaries, module_summary = row
        assert [f.rule_id for f in fixes] == ["resource-lifecycle-unguarded"]
        assert module_summary is not None
        assert module_summary.forks
        assert {fn.qual for fn in module_summary.functions} == \
            {"note", "spawn"}

        warm = _engine(corpus, code_dir, cache_dir=cache).lint()
        assert warm.stats.files_analyzed == 0
        assert render_json(warm) == render_json(cold)


class TestCliChanged:
    def _git(self, repo: Path, *argv: str) -> None:
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
            cwd=repo, check=True, capture_output=True)

    def test_changed_restricts_and_preserves_exit_codes(
            self, tmp_path, monkeypatch, capsys):
        repo = tmp_path / "repo"
        corpus = repo / "content"
        corpus.mkdir(parents=True)
        (corpus / "good.md").write_text(GOOD, encoding="utf-8")
        (corpus / "other.md").write_text(
            GOOD.replace("GoodActivity", "OtherActivity"), encoding="utf-8")
        self._git(repo, "init", "-q")
        self._git(repo, "add", ".")
        self._git(repo, "commit", "-q", "-m", "seed")
        (corpus / "other.md").write_text(
            GOOD.replace("GoodActivity", "OtherActivity")
                .replace('courses: ["CS1"]', 'courses: ["CS9"]'),
            encoding="utf-8")
        monkeypatch.chdir(repo)
        code = main(["lint", "--content-dir", str(corpus), "--no-site",
                     "--no-code", "--changed", "HEAD", "--stats"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[taxonomy-unknown-term]" in out
        assert "other.md" in out and "good.md" not in out
        assert "skipped (--changed)" in out

    def test_changed_outside_git_repo_is_usage_error(self, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["lint", "--changed", "HEAD", "--no-site", "--no-code"])
        assert code == 2
        assert "git failed" in capsys.readouterr().err


class TestChangedWithDeletedFiles:
    """A deleted file shows up in ``--changed`` output; the engine must
    drop its cache rows and re-evaluate corpus rules without it."""

    def _seed(self, write_corpus, tmp_path):
        corpus = write_corpus(good=GOOD)
        code_dir = tmp_path / "code"
        _write_code(code_dir, a=FORKER, b=DRIVER)
        cache = tmp_path / "lint-cache"
        cold = _engine(corpus, code_dir, cache_dir=cache).lint()
        assert [d.rule_id for d in cold.diagnostics] == \
            ["fork-safety-lock-across-fork"]
        return corpus, code_dir, cache

    def test_deleted_changed_file_causes_no_internal_error(
            self, write_corpus, tmp_path):
        corpus, code_dir, cache = self._seed(write_corpus, tmp_path)
        deleted = code_dir / "a.py"
        deleted.unlink()
        changed = frozenset({str(deleted.resolve())})
        result = _engine(corpus, code_dir, cache_dir=cache,
                         changed_only=changed).lint()
        assert not [d for d in result.diagnostics
                    if d.rule_id == "lint-internal-error"]
        assert result.stats.internal_errors == 0

    def test_cache_rows_for_deleted_file_are_pruned(self, write_corpus,
                                                    tmp_path):
        corpus, code_dir, cache = self._seed(write_corpus, tmp_path)
        _content, code = load_cache(cache)
        assert any(key.endswith("a.py") for key in code)
        (code_dir / "a.py").unlink()
        changed = frozenset({str((code_dir / "a.py").resolve())})
        _engine(corpus, code_dir, cache_dir=cache,
                changed_only=changed).lint()
        _content, code = load_cache(cache)
        assert not any(key.endswith("a.py") for key in code)
        assert any(key.endswith("b.py") for key in code)

    def test_corpus_rules_reevaluated_without_deleted_definer(
            self, write_corpus, tmp_path):
        corpus, code_dir, cache = self._seed(write_corpus, tmp_path)
        # Forker's definition is gone, so the cross-file lock-across-fork
        # finding anchored in b.py must disappear with it.
        (code_dir / "a.py").unlink()
        changed = frozenset({str((code_dir / "a.py").resolve())})
        result = _engine(corpus, code_dir, cache_dir=cache,
                         changed_only=changed).lint()
        assert result.diagnostics == []
        full = _engine(corpus, code_dir, cache_dir=cache).lint()
        assert full.diagnostics == []

    def test_deleted_corpus_page_reports_clean(self, write_corpus, tmp_path):
        corpus = write_corpus(
            good=GOOD,
            other=GOOD.replace("GoodActivity", "OtherActivity")
                      .replace('courses: ["CS1"]', 'courses: ["CS9"]'))
        cache = tmp_path / "lint-cache"
        config = LintConfig(content_dir=corpus, site=False, code=False,
                            cache_dir=cache)
        assert LintEngine(config).lint().exit_code() == 1
        (corpus / "other.md").unlink()
        changed = frozenset({str((corpus / "other.md").resolve())})
        result = LintEngine(LintConfig(
            content_dir=corpus, site=False, code=False, cache_dir=cache,
            changed_only=changed)).lint()
        assert result.diagnostics == []
        assert result.stats.internal_errors == 0

    def test_cli_changed_with_committed_then_deleted_file(
            self, tmp_path, monkeypatch, capsys):
        repo = tmp_path / "repo"
        corpus = repo / "content"
        corpus.mkdir(parents=True)
        (corpus / "good.md").write_text(GOOD, encoding="utf-8")
        (corpus / "other.md").write_text(
            GOOD.replace("GoodActivity", "OtherActivity")
                .replace('courses: ["CS1"]', 'courses: ["CS9"]'),
            encoding="utf-8")
        git = TestCliChanged()._git
        git(repo, "init", "-q")
        git(repo, "add", ".")
        git(repo, "commit", "-q", "-m", "seed")
        (corpus / "other.md").unlink()
        monkeypatch.chdir(repo)
        code = main(["lint", "--content-dir", str(corpus), "--no-site",
                     "--no-code", "--changed", "HEAD"])
        out = capsys.readouterr().out
        assert code == 0                  # the only finding left with the file
        assert "lint-internal-error" not in out
