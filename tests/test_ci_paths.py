"""Every repository path that CI and the docs name must exist.

A plain text scan, since CI does not install PyYAML: each ``src/…``,
``tests/…`` and ``benchmarks/…`` path in the workflow must name a file
or directory, and a glob must match at least one file. Each
``benchmarks/…py`` named in README.md, DESIGN.md and EXPERIMENTS.md
must exist, and each ``pdcunplugged …`` command line there must parse
with the CLI's own parser.
"""

from __future__ import annotations

import contextlib
import glob
import io
import re
import shlex
from pathlib import Path

import pytest

from repro.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "ci.yml"

CI_PATH = re.compile(r"(?<![\w./-])(?:src|tests|benchmarks)/[\w./*-]*")
BENCH_FILE = re.compile(r"(?<![\w./-])benchmarks/[\w-]+\.py")
DOCS = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]


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


@pytest.mark.parametrize("doc", DOCS)
def test_every_bench_file_in_docs_exists(doc):
    named = set(BENCH_FILE.findall((ROOT / doc).read_text(encoding="utf-8")))
    assert sorted(path for path in named if not _exists(path)) == []


def _command_lines(text: str):
    """``(line number, argv)`` for each ``pdcunplugged …`` line, with
    ``\\`` continuations joined and ``#`` comments dropped."""
    lines = text.split("\n")
    for index, line in enumerate(lines):
        if not line.startswith("pdcunplugged "):
            continue
        for more in lines[index + 1:]:
            if not line.endswith("\\"):
                break
            line = line[:-1] + " " + more
        yield index + 1, shlex.split(line, comments=True)[1:]


def test_every_cli_command_in_docs_parses():
    parsed, broken = 0, []
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for number, argv in _command_lines(text):
            parsed += 1
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    _build_parser().parse_args(argv)
            except SystemExit:
                error = stderr.getvalue().strip().splitlines()[-1]
                broken.append(f"{doc}:{number}: {error}")
    assert parsed
    assert broken == []
