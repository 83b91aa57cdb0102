"""Hugo-style taxonomy engine.

The paper chose Hugo "primarily due to its sophisticated support for
taxonomies" (§II-B): a *taxonomy* is a named classification axis (``cs2013``,
``tcpp``, ``courses``, ``senses``, plus the hidden ``cs2013details``,
``tcppdetails`` and ``medium``); a *term* is one value of that axis
(``PD_ParallelAlgorithms``, ``touch``, ...); and the engine automatically
groups pages by the terms they declare, producing one listing page per term.

This module reimplements that machinery: :class:`TaxonomyIndex` ingests
pages (anything exposing ``name`` and ``params``) and builds an inverted
index ``taxonomy -> term -> [pages]`` with deterministic ordering, term
slugs, and per-term weights.  Two indexing strategies are provided (eager
inverted index vs lazy per-query scan) because the site-build benchmark
ablates them.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Protocol, Sequence

from repro.errors import SiteError

__all__ = [
    "TaxonomyConfig",
    "Term",
    "Taxonomy",
    "TaxonomyIndex",
    "slugify",
    "DEFAULT_TAXONOMIES",
]


class PageLike(Protocol):
    """Minimal page interface the taxonomy engine needs."""

    name: str

    @property
    def params(self) -> Mapping[str, object]: ...


@functools.lru_cache(maxsize=4096)
def slugify(term: str) -> str:
    """Build a URL slug for a term, mirroring Hugo's urlize behaviour.

    Memoized: a render plan slugs every term and page URL it lists, and
    the inputs repeat across plans.  The function is pure over an
    immutable ``str`` and ``lru_cache`` never caches a raised error, so
    an empty slug raises :class:`SiteError` on every call.
    """
    out: list[str] = []
    prev_dash = False
    for ch in term.strip().lower():
        if ch.isalnum():
            out.append(ch)
            prev_dash = False
        elif ch in "_-":
            out.append(ch)
            prev_dash = False
        elif not prev_dash:
            out.append("-")
            prev_dash = True
    slug = "".join(out).strip("-")
    if not slug:
        raise SiteError(f"term {term!r} produces an empty slug")
    return slug


@dataclass(frozen=True)
class TaxonomyConfig:
    """Declaration of one taxonomy axis.

    ``hidden`` taxonomies (paper §II-B.e) are indexed and queryable but are
    not rendered as chips in the activity header.  ``color`` is the display
    color class used by the default theme ("each taxonomy is assigned a
    different color", §II-B).
    """

    name: str
    plural: str
    hidden: bool = False
    color: str = "gray"


#: The seven taxonomies PDCunplugged defines (§II-B).
DEFAULT_TAXONOMIES: tuple[TaxonomyConfig, ...] = (
    TaxonomyConfig("cs2013", "cs2013", color="blue"),
    TaxonomyConfig("tcpp", "tcpp", color="green"),
    TaxonomyConfig("courses", "courses", color="orange"),
    TaxonomyConfig("senses", "senses", color="purple"),
    TaxonomyConfig("cs2013details", "cs2013details", hidden=True),
    TaxonomyConfig("tcppdetails", "tcppdetails", hidden=True),
    TaxonomyConfig("medium", "medium", hidden=True),
)


@dataclass
class Term:
    """One term within a taxonomy, with the pages that declare it."""

    taxonomy: str
    name: str
    pages: list = field(default_factory=list)

    @property
    def slug(self) -> str:
        return slugify(self.name)

    @property
    def url(self) -> str:
        return f"/{slugify(self.taxonomy)}/{self.slug}/"

    @property
    def count(self) -> int:
        return len(self.pages)


@dataclass
class Taxonomy:
    """A taxonomy axis with all of its terms."""

    config: TaxonomyConfig
    terms: dict[str, Term] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.config.name

    def term(self, name: str) -> Term:
        try:
            return self.terms[name]
        except KeyError:
            raise SiteError(f"taxonomy {self.name!r} has no term {name!r}") from None

    def sorted_terms(self) -> list[Term]:
        """Terms ordered by descending page count, then name (Hugo's ByCount)."""
        return sorted(self.terms.values(), key=lambda t: (-t.count, t.name))

    def histogram(self) -> Counter:
        return Counter({name: term.count for name, term in self.terms.items()})


class TaxonomyIndex:
    """Inverted index from taxonomy terms to the pages declaring them.

    ``strategy`` selects between the default eager inverted index
    (``"indexed"``) and a per-query linear scan (``"scan"``).  Both answer
    identical queries; the site-build benchmark quantifies the difference.
    """

    def __init__(
        self,
        configs: Sequence[TaxonomyConfig] = DEFAULT_TAXONOMIES,
        strategy: str = "indexed",
    ):
        if strategy not in ("indexed", "scan"):
            raise SiteError(f"unknown indexing strategy {strategy!r}")
        self.strategy = strategy
        self.configs = {c.name: c for c in configs}
        if len(self.configs) != len(configs):
            raise SiteError("duplicate taxonomy names in configuration")
        self._pages: list[PageLike] = []
        self._taxonomies: dict[str, Taxonomy] = {
            c.name: Taxonomy(c) for c in configs
        }

    # -- ingestion ---------------------------------------------------------

    def add_page(self, page: PageLike) -> None:
        """Register a page, indexing every taxonomy term it declares.

        Term lists in page params may be a single string or a list of
        strings; Hugo accepts both and so do we.
        """
        self._pages.append(page)
        if self.strategy != "indexed":
            return
        for tax_name, terms in self._page_terms(page):
            taxonomy = self._taxonomies[tax_name]
            for term_name in terms:
                term = taxonomy.terms.setdefault(term_name, Term(tax_name, term_name))
                term.pages.append(page)

    def add_pages(self, pages: Iterable[PageLike]) -> None:
        for page in pages:
            self.add_page(page)

    def _page_terms(self, page: PageLike) -> Iterable[tuple[str, list[str]]]:
        for tax_name in self.configs:
            raw = page.params.get(tax_name)
            if raw is None:
                continue
            if isinstance(raw, str):
                terms = [raw]
            elif isinstance(raw, (list, tuple)):
                terms = [str(t) for t in raw]
            else:
                raise SiteError(
                    f"page {page.name!r}: taxonomy {tax_name!r} must be a string "
                    f"or list, got {type(raw).__name__}"
                )
            seen: set[str] = set()
            unique: list[str] = []
            for t in terms:
                if t not in seen:
                    seen.add(t)
                    unique.append(t)
            yield tax_name, unique

    # -- queries -----------------------------------------------------------

    @property
    def pages(self) -> list[PageLike]:
        return list(self._pages)

    def taxonomy(self, name: str) -> Taxonomy:
        if self.strategy == "scan":
            return self._scan_taxonomy(name)
        try:
            return self._taxonomies[name]
        except KeyError:
            raise SiteError(f"unknown taxonomy {name!r}") from None

    def _scan_taxonomy(self, name: str) -> Taxonomy:
        if name not in self.configs:
            raise SiteError(f"unknown taxonomy {name!r}")
        taxonomy = Taxonomy(self.configs[name])
        for page in self._pages:
            for tax_name, terms in self._page_terms(page):
                if tax_name != name:
                    continue
                for term_name in terms:
                    term = taxonomy.terms.setdefault(term_name, Term(name, term_name))
                    term.pages.append(page)
        return taxonomy

    def taxonomies(self) -> list[Taxonomy]:
        return [self.taxonomy(name) for name in self.configs]

    def visible_taxonomies(self) -> list[Taxonomy]:
        return [t for t in self.taxonomies() if not t.config.hidden]

    def pages_with_term(self, taxonomy: str, term: str) -> list[PageLike]:
        tax = self.taxonomy(taxonomy)
        if term not in tax.terms:
            return []
        return list(tax.terms[term].pages)

    def pages_with_all_terms(self, taxonomy: str, terms: Sequence[str]) -> list[PageLike]:
        """Pages carrying *every* one of ``terms`` (intersection query)."""
        result: list[PageLike] | None = None
        for term in terms:
            pages = self.pages_with_term(taxonomy, term)
            if result is None:
                result = pages
            else:
                keep = {id(p) for p in pages}
                result = [p for p in result if id(p) in keep]
        return result or []

    def term_counts(self, taxonomy: str) -> Counter:
        return self.taxonomy(taxonomy).histogram()

    def check_invariants(self) -> None:
        """Verify index consistency (used by tests and ``repro validate``).

        * every indexed page is a registered page,
        * every page's declared terms appear in the index,
        * no term exists with zero pages.
        """
        registered = {id(p) for p in self._pages}
        for taxonomy in self.taxonomies():
            for term in taxonomy.terms.values():
                if term.count == 0:
                    raise SiteError(f"empty term {term.name!r} in {taxonomy.name!r}")
                for page in term.pages:
                    if id(page) not in registered:
                        raise SiteError(
                            f"term {term.name!r} references unregistered page {page.name!r}"
                        )
        for page in self._pages:
            for tax_name, terms in self._page_terms(page):
                taxonomy = self.taxonomy(tax_name)
                for term_name in terms:
                    if term_name not in taxonomy.terms or not any(
                        p is page for p in taxonomy.terms[term_name].pages
                    ):
                        raise SiteError(
                            f"page {page.name!r} term {term_name!r} missing from index"
                        )
