"""Fixtures for the lint tests: a minimal known-clean activity corpus.

``GOOD`` is a complete, schema-clean activity; each rule test seeds a
corpus with one targeted mutation and asserts that exactly the right rule
fires at exactly the right span.  Line numbers below are load-bearing:
the front-matter keys sit on lines 2-10 and the section headings where
the comments say.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, LintEngine

GOOD = """\
---
title: "GoodActivity"
date: "2020-01-01"
cs2013: ["PD_ParallelDecomposition"]
tcpp: ["TCPP_Algorithms"]
courses: ["CS1"]
senses: ["visual"]
cs2013details: ["PD_2"]
tcppdetails: ["A_Search"]
medium: ["paper"]
---

## Original Author/link

Jane Doe

<https://example.com/resource>

---

## CS2013 Knowledge Unit Coverage

- **Parallel Decomposition** (`PD_ParallelDecomposition`)

---

## TCPP Topics Coverage

- **Algorithms** (`TCPP_Algorithms`)

---

## Recommended Courses

CS1

---

## Accessibility

Readable aloud in full.

---

## Assessment

No known assessment.

---

## Citations

- Doe, J. (2020). An activity.
"""

#: 1-based line numbers of the front-matter keys in GOOD.
KEY_LINES = {"title": 2, "date": 3, "cs2013": 4, "tcpp": 5, "courses": 6,
             "senses": 7, "cs2013details": 8, "tcppdetails": 9, "medium": 10}


@pytest.fixture()
def write_corpus(tmp_path):
    """Write named activity files and return the corpus directory."""

    def _write(**files: str) -> Path:
        corpus = tmp_path / "content"
        corpus.mkdir(exist_ok=True)
        for name, text in files.items():
            (corpus / f"{name}.md").write_text(text, encoding="utf-8")
        return corpus

    return _write


@pytest.fixture()
def lint_dir(write_corpus):
    """Lint a corpus written from keyword args; content pass only."""

    def _lint(site: bool = False, code: bool = False, **files: str):
        corpus = write_corpus(**files)
        engine = LintEngine(LintConfig(content_dir=corpus,
                                       site=site, code=code))
        return engine.lint()

    return _lint


def only(result, rule_id):
    """The diagnostics a single rule produced."""
    return [d for d in result.diagnostics if d.rule_id == rule_id]
