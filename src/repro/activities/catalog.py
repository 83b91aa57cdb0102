"""The activity catalog: loading, querying, and indexing the curated corpus.

:class:`Catalog` wraps a list of activities with the query operations the
website's views and the paper's analysis need: filter by taxonomy term,
intersect terms, group by term, and adapt into the sitegen
:class:`~repro.sitegen.taxonomy.TaxonomyIndex` / :class:`~repro.sitegen.site.Site`.

:func:`load_default_catalog` loads the 38-activity curated corpus shipped
as package data under ``repro/activities/content/``.  The load is memoized
on a cheap corpus fingerprint (:func:`scan_content`, per-file
mtime/size), so the CLI, the site views, the analytics, and the serving
layer all share one parsed corpus instead of re-parsing 38 Markdown
files per construction; edits to the content directory invalidate the
cache automatically.  Successive generations of one directory share
the activities and pages of unchanged files (see ``previous``).
"""

from __future__ import annotations

import threading
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.activities.parser import parse_activity_file
from repro.activities.schema import Activity, validate
from repro.activities.writer import activity_document
from repro.errors import ActivityError, ValidationError
from repro.ioutil import file_fingerprint
from repro.sitegen import frontmatter
from repro.sitegen.site import Page, Site, SiteConfig
from repro.sitegen.taxonomy import TaxonomyIndex

__all__ = ["Catalog", "load_default_catalog", "corpus_dir", "clear_corpus_cache",
           "scan_content"]


def scan_content(content_dir: str | Path) -> dict[str, tuple[str, int, int]]:
    """Fingerprint a content tree: file name -> (name, mtime_ns, size)."""
    return {path.name: file_fingerprint(path)
            for path in sorted(Path(content_dir).glob("*.md"))}


class Catalog:
    """An ordered, queryable collection of activities."""

    def __init__(self, activities: Iterable[Activity] = ()):
        self._activities: list[Activity] = []
        self._by_name: dict[str, Activity] = {}
        # Source file name -> (fingerprint, activity) for activities read
        # by from_directory, and activity name -> the Page site() built;
        # a later generation reuses both (see ``previous``).
        self._sources: dict[str, tuple[tuple, Activity]] = {}
        self._pages: dict[str, Page] = {}
        for activity in activities:
            self.add(activity)

    # -- construction --------------------------------------------------------

    def add(self, activity: Activity) -> None:
        if activity.name in self._by_name:
            raise ActivityError(f"duplicate activity {activity.name!r}")
        self._activities.append(activity)
        self._by_name[activity.name] = activity

    @classmethod
    def from_directory(cls, directory: str | Path,
                       previous: "Catalog | None" = None,
                       scan: dict[str, tuple[str, int, int]] | None = None,
                       ) -> "Catalog":
        """Parse every ``*.md`` in ``directory``.

        With ``previous`` (an earlier generation of the same directory),
        a file whose fingerprint is unchanged reuses that generation's
        :class:`Activity` instead of being reparsed.  Each file is
        stat-ed *before* it is read, so a write racing the parse leaves
        a stale fingerprint and is re-read on the next scan.  ``scan``
        is a :func:`scan_content` of ``directory`` the caller has just
        taken; it stands in for the catalog's own.
        """
        directory = Path(directory)
        if not directory.is_dir():
            raise ActivityError(f"no such content directory: {directory}")
        reusable = previous._sources if previous is not None else {}
        if scan is None:
            scan = scan_content(directory)
        catalog = cls()
        for name, fingerprint in scan.items():
            known = reusable.get(name)
            if known is not None and known[0] == fingerprint:
                activity = known[1]
            else:
                activity = parse_activity_file(directory / name)
            catalog.add(activity)
            catalog._sources[name] = (fingerprint, activity)
        return catalog

    # -- basic access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._activities)

    def __iter__(self) -> Iterator[Activity]:
        return iter(self._activities)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    @property
    def activities(self) -> list[Activity]:
        return list(self._activities)

    @property
    def names(self) -> list[str]:
        return [a.name for a in self._activities]

    def get(self, name: str) -> Activity:
        try:
            return self._by_name[name]
        except KeyError:
            raise ActivityError(f"no activity named {name!r}") from None

    # -- queries -----------------------------------------------------------------

    def with_term(self, taxonomy: str, term: str) -> list[Activity]:
        """Activities declaring ``term`` under ``taxonomy``."""
        return [a for a in self._activities if term in a.terms(taxonomy)]

    def with_all_terms(self, taxonomy: str, terms: Iterable[str]) -> list[Activity]:
        wanted = list(terms)
        return [
            a for a in self._activities
            if all(t in a.terms(taxonomy) for t in wanted)
        ]

    def where(self, predicate: Callable[[Activity], bool]) -> list[Activity]:
        return [a for a in self._activities if predicate(a)]

    def group_by_term(self, taxonomy: str) -> dict[str, list[Activity]]:
        groups: dict[str, list[Activity]] = {}
        for activity in self._activities:
            for term in activity.terms(taxonomy):
                groups.setdefault(term, []).append(activity)
        return groups

    def term_count(self, taxonomy: str, term: str) -> int:
        return len(self.with_term(taxonomy, term))

    # -- validation and adapters -------------------------------------------------

    def validate_all(self) -> None:
        """Validate every activity; aggregates all problems into one error."""
        problems: list[str] = []
        for activity in self._activities:
            try:
                validate(activity)
            except ValidationError as exc:
                problems.extend(exc.problems)
        if problems:
            raise ValidationError(problems)

    def taxonomy_index(self, strategy: str = "indexed") -> TaxonomyIndex:
        """Build the sitegen taxonomy index over all activities."""
        from repro.sitegen.taxonomy import DEFAULT_TAXONOMIES

        index = TaxonomyIndex(DEFAULT_TAXONOMIES, strategy=strategy)
        for activity in self._activities:
            index.add_page(_ActivityPage(activity))
        return index

    def site(self, config: SiteConfig | None = None,
             previous: "Catalog | None" = None) -> Site:
        """Build a renderable :class:`Site` whose pages are the activities.

        An activity that is the *same object* in ``previous`` keeps the
        :class:`Page` built for it there.  A new or reparsed activity's
        page is built from its canonical header and body directly; the
        file is not serialized and parsed a second time (see
        :func:`_page_for`).
        """
        site = Site(config)
        for activity in self._activities:
            page = None
            if previous is not None and \
                    previous._by_name.get(activity.name) is activity:
                page = previous._pages.get(activity.name)
            if page is None:
                page = _page_for(activity)
            self._pages[activity.name] = page
            site.add_page(page)
        return site


def _page_for(activity: Activity) -> Page:
    """The site page of one activity: ``Page.from_text(write_activity(a))``.

    When every header value is a newline-free ``str`` or a list of them,
    which holds for every parsed activity, serializing and reparsing
    gives back the same header and body, so the page is built from them
    directly.  Any other value (possible only for an activity built in
    code) still takes the round trip, with its coercions and errors.
    """
    header, body = activity_document(activity)
    if all(_plain(value) for value in header.values()):
        return Page(activity.name, title=header["title"] or activity.name,
                    body=body, _params=header)
    return Page.from_text(activity.name, frontmatter.serialize(header, body))


def _plain(value: object) -> bool:
    if type(value) is list:
        return all(type(item) is str and "\n" not in item for item in value)
    return type(value) is str and "\n" not in value


class _ActivityPage:
    """Adapter presenting an Activity through the PageLike protocol."""

    __slots__ = ("activity",)

    def __init__(self, activity: Activity):
        self.activity = activity

    @property
    def name(self) -> str:
        return self.activity.name

    @property
    def title(self) -> str:
        return self.activity.title

    @property
    def url(self) -> str:
        return f"/activities/{self.activity.name}/"

    @property
    def params(self) -> dict[str, object]:
        return self.activity.params


def corpus_dir() -> Path:
    """Path of the packaged curated corpus directory."""
    return Path(resources.files("repro.activities") / "content")


# -- memoized default-corpus loading ----------------------------------------

_cache_lock = threading.Lock()
_cached_catalog: Catalog | None = None
_cached_fingerprint: dict | None = None
_cached_validated: bool = False


def clear_corpus_cache() -> None:
    """Drop the memoized default catalog (tests and tooling)."""
    global _cached_catalog, _cached_fingerprint, _cached_validated
    with _cache_lock:
        _cached_catalog = None
        _cached_fingerprint = None
        _cached_validated = False


def load_default_catalog(validate_corpus: bool = True,
                         use_cache: bool = True) -> Catalog:
    """Load (and by default validate) the shipped 38-activity corpus.

    Memoized: repeat calls return the *same* :class:`Catalog` instance as
    long as the packaged content directory is unchanged (per-file
    mtime/size fingerprint).  Callers must treat the shared catalog as
    read-only; pass ``use_cache=False`` for a private mutable copy.
    Validation runs at most once per cached parse.
    """
    global _cached_catalog, _cached_fingerprint, _cached_validated
    if not use_cache:
        catalog = Catalog.from_directory(corpus_dir())
        if validate_corpus:
            catalog.validate_all()
        return catalog

    directory = corpus_dir()
    fingerprint = scan_content(directory)
    with _cache_lock:
        if _cached_catalog is None or _cached_fingerprint != fingerprint:
            _cached_catalog = Catalog.from_directory(directory)
            _cached_fingerprint = fingerprint
            _cached_validated = False
        if validate_corpus and not _cached_validated:
            _cached_catalog.validate_all()
            _cached_validated = True
        return _cached_catalog
