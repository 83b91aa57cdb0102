"""EXPERIMENT S-LINT -- the lint engine cold and warm.

Measures what the incremental-analysis claims rest on:

* a cold full lint of the shipped 38-activity corpus + serve code,
* a warm lint through the persistent cross-run cache (a fresh engine
  over a seeded ``cache_dir`` -- exactly what a new process sees),
* the code pass alone (AST analysis of the serve layer),
* the ``--fix --check`` dry run CI gates on.

Every run is over the same shipped corpus, so numbers are comparable
across machines and runs.
"""

from __future__ import annotations

import pytest

from repro.activities.catalog import corpus_dir
from repro.lint import LintConfig, LintEngine
from repro.lint.fixes import check_fixes

def _config(**overrides) -> LintConfig:
    return LintConfig(content_dir=corpus_dir(), **overrides)


@pytest.mark.benchmark(group="lint-cache")
def test_cold_lint(benchmark):
    """Baseline: every file parsed and analyzed, no cache anywhere."""

    def lint():
        return LintEngine(_config()).lint()

    result = benchmark(lint)
    assert result.diagnostics == []
    assert result.stats.files_analyzed == result.stats.files_total
    assert result.stats.files_total > 38


@pytest.mark.benchmark(group="lint-cache")
def test_warm_lint_persistent_cache(benchmark, tmp_path):
    """Warm: a fresh engine per round, fed entirely from the cache file."""
    cache = tmp_path / "lint-cache"
    LintEngine(_config(cache_dir=cache)).lint()       # seed

    def lint():
        return LintEngine(_config(cache_dir=cache)).lint()

    result = benchmark(lint)
    assert result.diagnostics == []
    assert result.stats.files_analyzed == 0
    assert result.stats.files_cached == result.stats.files_total


def test_warm_speedup_measured(tmp_path):
    """The acceptance check: the cache file pays for itself across runs."""
    import time

    cache = tmp_path / "lint-cache"
    started = time.perf_counter()
    cold = LintEngine(_config(cache_dir=cache)).lint()
    cold_s = time.perf_counter() - started
    started = time.perf_counter()
    warm = LintEngine(_config(cache_dir=cache)).lint()
    warm_s = time.perf_counter() - started
    assert cold.stats.files_analyzed > 0
    assert warm.stats.files_analyzed == 0
    speedup = cold_s / warm_s
    print()
    print(f"lint: cold {cold_s*1e3:,.0f} ms, warm {warm_s*1e3:,.0f} ms "
          f"({speedup:.1f}x, {cold.stats.files_total} files)")
    assert speedup > 1.5


@pytest.mark.benchmark(group="lint-code")
def test_code_pass_serial(benchmark):
    """The AST pass over the serve layer, without content or site."""

    def lint():
        return LintEngine(_config(content=False, site=False)).lint()

    result = benchmark(lint)
    assert result.stats.files_total > 1


@pytest.mark.benchmark(group="lint-fix")
def test_fix_check_dry_run(benchmark):
    """The CI idempotence gate: dry-run the fixer over a scratch copy."""

    def check():
        return check_fixes(_config(site=False, code=False))

    report = benchmark(check)
    assert report.clean                    # shipped corpus needs no fixes
