"""Full-text search over the activity collection.

The repository exists so educators can "quickly find existing unplugged
activities to try out in their classes" (paper §I).  Beyond taxonomy
browsing, this module gives the site a search box: a small inverted index
with TF-IDF ranking over activity titles, section bodies, and tags.

Pure Python, deterministic, no dependencies; built once per catalog and
queried many times.  Tokenization lowercases, strips punctuation, and
drops a small stop list; title and tag hits are boosted.

The index lives only in memory: :meth:`SearchIndex.from_catalog` builds
it on every server start.  Counted tokens are interned, so a token shared
by many documents is one string object, not one per document.

The index is *patchable*: documents can be removed and re-added, and
:meth:`SearchIndex.patched_from_catalog` produces a new index from an old
one by re-tokenizing only a dirty subset — the serving layer's rebuild
path uses it so a one-file content edit patches one document's postings
instead of re-indexing the whole corpus.  The old index is never mutated
(copy-on-patch), so in-flight queries against the previous generation
stay consistent.
"""

from __future__ import annotations

import math
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import filterfalse

from repro.errors import SiteError

__all__ = ["SearchHit", "SearchIndex", "tokenize"]

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Minimal stop list -- enough to keep section boilerplate out of the index.
STOP_WORDS: frozenset[str] = frozenset(
    """a an and are as at be by for from has in into is it its of on or
    that the their this to with students student activity the""".split()
)

#: Field weights: a title hit outranks a body hit.
FIELD_WEIGHTS = {"title": 3.0, "tags": 2.0, "body": 1.0}


def tokenize(text: str) -> list[str]:
    """Lowercase alphanumeric tokens with stop words removed."""
    return [
        t for t in _TOKEN_RE.findall(text.lower())
        if t not in STOP_WORDS
    ]


def _count(text: str) -> Counter:
    """``Counter(tokenize(text))`` with every token interned."""
    return Counter(map(sys.intern, filterfalse(
        STOP_WORDS.__contains__, _TOKEN_RE.findall(text.lower()))))


@dataclass(frozen=True)
class SearchHit:
    """One ranked result."""

    name: str
    title: str
    score: float
    matched_terms: tuple[str, ...]


@dataclass
class _DocEntry:
    name: str
    title: str
    field_counts: dict[str, Counter] = field(default_factory=dict)
    length: int = 0


class SearchIndex:
    """A TF-IDF inverted index over documents with title/tags/body fields."""

    def __init__(self):
        self._docs: dict[str, _DocEntry] = {}
        self._postings: dict[str, set[str]] = {}

    # -- construction -----------------------------------------------------------

    def add_document(self, name: str, title: str, body: str,
                     tags: list[str] | None = None) -> None:
        if name in self._docs:
            raise SiteError(f"duplicate document {name!r}")
        # "_" is no token character, so a tag like "PD_Sorting" already
        # counts as "pd" + "sorting".
        fields = {
            "title": _count(title),
            "tags": _count(" ".join(tags or [])),
            "body": _count(body),
        }
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

    def remove_document(self, name: str) -> bool:
        """Drop ``name`` and its postings; ``False`` when it was absent."""
        entry = self._docs.pop(name, None)
        if entry is None:
            return False
        for counter in entry.field_counts.values():
            for token in counter:
                names = self._postings.get(token)
                if names is None:
                    continue
                names.discard(name)
                if not names:
                    del self._postings[token]
        return True

    def update_document(self, name: str, title: str, body: str,
                        tags: list[str] | None = None) -> None:
        """Replace (or insert) one document's postings in place."""
        self.remove_document(name)
        self.add_document(name, title, body, tags)

    def index_activity(self, activity) -> None:
        """Add one :class:`~repro.activities.schema.Activity` document."""
        tags = (activity.cs2013 + activity.tcpp + activity.courses
                + activity.senses + activity.medium)
        body = "\n".join(activity.sections.values())
        self.add_document(activity.name, activity.title, body, tags)

    @classmethod
    def from_catalog(cls, catalog) -> "SearchIndex":
        """Index a :class:`~repro.activities.catalog.Catalog`."""
        index = cls()
        for activity in catalog:
            index.index_activity(activity)
        return index

    def copy(self) -> "SearchIndex":
        """Independent copy (documents are shared, postings are not).

        ``_DocEntry`` instances are treated as immutable after insertion,
        so sharing them is safe; posting sets are mutated by patching and
        therefore deep-copied.
        """
        clone = type(self)()
        clone._docs = dict(self._docs)
        clone._postings = {token: set(names) for token, names in self._postings.items()}
        return clone

    def patched_from_catalog(self, catalog, dirty_names) -> "SearchIndex":
        """A new index for ``catalog``, re-tokenizing only ``dirty_names``.

        Every name in ``dirty_names`` is dropped from a copy of this index
        and re-added from the catalog when still present (covers edits,
        additions, and deletions in one pass).  The result is
        token-for-token identical to ``from_catalog(catalog)`` as long as
        ``dirty_names`` covers every changed document.
        """
        index = self.copy()
        for name in sorted(set(dirty_names)):
            index.remove_document(name)
            if name in catalog:
                index.index_activity(catalog.get(name))
        return index

    # -- queries --------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._docs)

    def _idf(self, token: str) -> float:
        df = len(self._postings.get(token, ()))
        if df == 0:
            return 0.0
        return math.log(1.0 + len(self._docs) / df)

    def search(self, query: str, limit: int = 10) -> list[SearchHit]:
        """Rank documents by weighted TF-IDF over the query tokens.

        Results are deterministic: score descending, name ascending.
        """
        tokens = tokenize(query)
        if not tokens:
            return []
        scores: dict[str, float] = {}
        matches: dict[str, set[str]] = {}
        for token in set(tokens):
            idf = self._idf(token)
            if idf == 0.0:
                continue
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

    def suggest(self, prefix: str, limit: int = 8) -> list[str]:
        """Indexed tokens starting with ``prefix`` (for the search box)."""
        prefix = prefix.lower()
        if not prefix:
            return []
        return sorted(t for t in self._postings if t.startswith(prefix))[:limit]

