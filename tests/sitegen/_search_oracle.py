"""Frozen copy of the search index's field counting before token interning.

Test-only oracle for the differential tests in ``test_search.py``: an
index built by the live :meth:`SearchIndex.add_document` must hold the
same per-field counts, document lengths and postings as one built by the
``tokenize``-per-field counting below, and so rank every query the same.
Nothing under ``src/`` imports this module; do not edit it to match the
live index.
"""

from __future__ import annotations

import re
from collections import Counter

from repro.errors import SiteError
from repro.sitegen.search import SearchIndex, _DocEntry

_TOKEN_RE = re.compile(r"[a-z0-9]+")

STOP_WORDS: frozenset[str] = frozenset(
    """a an and are as at be by for from has in into is it its of on or
    that the their this to with students student activity the""".split()
)


def tokenize(text: str) -> list[str]:
    return [
        t for t in _TOKEN_RE.findall(text.lower())
        if t not in STOP_WORDS
    ]


def field_counts(title: str, body: str,
                 tags: list[str] | None = None) -> dict[str, Counter]:
    return {
        "title": Counter(tokenize(title)),
        "tags": Counter(
            t for tag in (tags or []) for t in tokenize(tag.replace("_", " "))
        ),
        "body": Counter(tokenize(body)),
    }


class OracleIndex(SearchIndex):
    """The live index with documents counted by :func:`field_counts`."""

    def add_document(self, name: str, title: str, body: str,
                     tags: list[str] | None = None) -> None:
        if name in self._docs:
            raise SiteError(f"duplicate document {name!r}")
        fields = field_counts(title, body, tags)
        entry = _DocEntry(
            name=name,
            title=title,
            field_counts=fields,
            length=sum(sum(c.values()) for c in fields.values()) or 1,
        )
        self._docs[name] = entry
        for counter in fields.values():
            for token in counter:
                self._postings.setdefault(token, set()).add(name)
