"""Every repository path that CI and the docs name must exist.

A plain text scan, since CI does not install PyYAML: each ``src/…``,
``tests/…`` and ``benchmarks/…`` path in the workflow must name a file
or directory, and a glob must match at least one file. Each
``benchmarks/…py`` named in README.md, DESIGN.md and EXPERIMENTS.md
must exist.
"""

from __future__ import annotations

import glob
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

CI_PATH = re.compile(r"(?<![\w./-])(?:src|tests|benchmarks)/[\w./*-]*")
BENCH_FILE = re.compile(r"(?<![\w./-])benchmarks/[\w-]+\.py")


def _exists(path: str) -> bool:
    if "*" in path:
        return any(Path(match).is_file() for match in
                   glob.glob(str(ROOT / path), recursive=True))
    return (ROOT / path).exists()


def test_every_path_in_ci_exists():
    named = {match.rstrip(".") for match in
             CI_PATH.findall(WORKFLOW.read_text(encoding="utf-8"))}
    assert named
    assert sorted(path for path in named if not _exists(path)) == []


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md", "EXPERIMENTS.md"])
def test_every_bench_file_in_docs_exists(doc):
    named = set(BENCH_FILE.findall((ROOT / doc).read_text(encoding="utf-8")))
    assert sorted(path for path in named if not _exists(path)) == []
