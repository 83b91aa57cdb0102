"""The shared latency histogram: bucket placement and its leaf status."""

from __future__ import annotations

import ast
from pathlib import Path

import repro.histogram
from repro.histogram import LatencyHistogram


def test_histogram_module_imports_nothing_from_repro():
    """Both ``repro.serve`` and ``repro.sanitize`` load this module at
    import time; one ``repro`` import here could bring back the cycle
    that once forced the sanitizer to keep its own histogram."""
    tree = ast.parse(Path(repro.histogram.__file__).read_text("utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert not [name for name in imported
                if name == "repro" or name.startswith(("repro.", "."))], \
        imported


def test_value_on_a_bound_lands_in_that_bucket():
    hist = LatencyHistogram(buckets_s=(0.001, 0.01))
    for seconds in (0.001, 0.0010001, 0.01, 0.5, -1.0):
        hist.observe(seconds)
    assert hist.counts == [2, 2, 1]             # -1.0 clamps to 0.0
    assert hist.min_s == 0.0 and hist.max_s == 0.5
