"""EXPERIMENT S-LINT -- the lint engine cold and warm.

The persistent cache must pay for itself: a fresh engine over a seeded
``cache_dir`` (exactly what a new process sees) lints the shipped
38-activity corpus plus the serve code faster than a cold engine. That
the warm run analyzes zero files is a tier-1 fact
(``tests/lint/test_cachefile.py``); this file checks the time it saves.
"""

from __future__ import annotations

import time

from repro.activities.catalog import corpus_dir
from repro.lint import LintConfig, LintEngine


def _config(**overrides) -> LintConfig:
    return LintConfig(content_dir=corpus_dir(), **overrides)


def test_warm_speedup_measured(tmp_path):
    """The acceptance check: the cache file pays for itself across runs."""
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
