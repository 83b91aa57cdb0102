"""Frozen copies of the search index's field counting before token
interning, and of its scoring before the scorer was inlined.

Test-only oracle for the differential tests in ``test_search.py``: an
index built by the live :meth:`SearchIndex.add_document` must hold the
same per-field counts, document lengths and postings as one built by the
``tokenize``-per-field counting below, and the live
:meth:`SearchIndex.search` must return the same hits, scores bit for
bit, as :meth:`OracleIndex.search`: a per-posting sum over the field
weights, then a full sort.  Its one departure from the scorer it copies
is the order it adds a query's tokens in, sorted rather than ``set``
order, which made scores depend on the hash seed.  Nothing under
``src/`` imports this module; do not edit it to match the live index.
"""

from __future__ import annotations

import math
import re
from collections import Counter

from repro.errors import SiteError
from repro.sitegen.search import SearchHit, SearchIndex, _DocEntry

_TOKEN_RE = re.compile(r"[a-z0-9]+")

STOP_WORDS: frozenset[str] = frozenset(
    """a an and are as at be by for from has in into is it its of on or
    that the their this to with students student activity the""".split()
)

FIELD_WEIGHTS = {"title": 3.0, "tags": 2.0, "body": 1.0}


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
    """The live index with documents counted by :func:`field_counts` and
    ranked by the frozen :meth:`search`."""

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

    def search(self, query: str, limit: int = 10) -> list[SearchHit]:
        tokens = tokenize(query)
        if not tokens:
            return []
        scores: dict[str, float] = {}
        matches: dict[str, set[str]] = {}
        for token in sorted(set(tokens)):
            df = len(self._postings.get(token, ()))
            if df == 0:
                continue
            idf = math.log(1.0 + len(self._docs) / df)
            for name in self._postings[token]:
                doc = self._docs[name]
                tf = sum(
                    FIELD_WEIGHTS[fname] * counter.get(token, 0)
                    for fname, counter in doc.field_counts.items()
                )
                if tf:
                    scores[name] = scores.get(name, 0.0) + (tf / doc.length) * idf
                    matches.setdefault(name, set()).add(token)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return [
            SearchHit(
                name=name,
                title=self._docs[name].title,
                score=score,
                matched_terms=tuple(sorted(matches[name])),
            )
            for name, score in ranked[:limit]
        ]
