"""The static-site builder: content discovery, taxonomy assembly, rendering.

This is the Hugo substitute the PDCunplugged site runs on.  A
:class:`Site` is configured with a content directory of Markdown files
(each with front matter), builds a :class:`~repro.sitegen.taxonomy.TaxonomyIndex`
over them, and renders a complete HTML tree:

* ``/index.html`` -- listing of all activities,
* ``/activities/<slug>/index.html`` -- one page per activity, with the
  colored taxonomy-chip header of paper Fig. 3,
* ``/<taxonomy>/index.html`` -- term listing per visible taxonomy,
* ``/<taxonomy>/<term>/index.html`` -- one listing page per term ("each term
  links to a separate page that contains all the activities that share that
  term", §II-B).

Rendering goes through the template engine so themes are swappable; the
built-in :data:`DEFAULT_THEME` is deliberately small.  :meth:`Site.build`
returns :class:`BuildStats` so the "fast build times" claim (§II) can be
benchmarked.

Builds are planned, not hard-coded: :meth:`Site.render_plan` enumerates
every output file as a :class:`RenderTask` carrying a cheap content
*signature* (a hash over everything that feeds that file) and a deferred
render thunk.  ``Site.build(out, incremental=True)`` skips any task whose
signature matches the previous build, so editing one activity re-renders
only that page plus the listing pages whose membership or entries changed.
The serving layer (:mod:`repro.serve`) reuses the same plan to render
pages on demand and to invalidate exactly the dirty URLs on rebuild.

:meth:`Site.successor` makes the next generation of a site for an edited
page list.  It patches the taxonomy index for the changed pages only,
so the new site shares every untouched term, and with it the term's
memoized signature, with the old one.
"""

from __future__ import annotations

import copy
import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.errors import SiteError
from repro.sitegen import frontmatter, markdown
from repro.sitegen.taxonomy import (
    DEFAULT_TAXONOMIES,
    TaxonomyConfig,
    TaxonomyIndex,
    slugify,
)
from repro.sitegen.templates import TemplateEnvironment
from repro.sitegen.views import VIEWS, View

__all__ = [
    "Page",
    "RenderTask",
    "Site",
    "SiteConfig",
    "BuildStats",
    "DEFAULT_THEME",
]


def _hash(*parts: object) -> str:
    """Stable content signature over ``repr``-able build inputs."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()[:20]


@dataclass
class Page:
    """One content page: parsed front matter plus Markdown body."""

    name: str
    title: str
    body: str
    _params: dict = field(default_factory=dict)
    section: str = "activities"
    # Memos, filled on first use: pages are never mutated, and every
    # plan and listing render asks for each member's URL again.
    _url: str | None = field(default=None, init=False, repr=False, compare=False)
    _plan_signature: tuple | None = field(      # see Site._page_signature
        default=None, init=False, repr=False, compare=False)

    @property
    def params(self) -> Mapping[str, object]:
        return self._params

    @property
    def slug(self) -> str:
        return slugify(self.name)

    @property
    def url(self) -> str:
        url = self._url
        if url is None:
            url = self._url = f"/{self.section}/{self.slug}/"
        return url

    @property
    def date(self) -> str:
        return str(self._params.get("date", ""))

    def terms(self, taxonomy: str) -> list[str]:
        raw = self._params.get(taxonomy, [])
        if isinstance(raw, str):
            return [raw] if raw else []
        return [str(t) for t in raw]

    def content_html(self) -> str:
        return markdown.render_html(self.body)

    @classmethod
    def from_text(cls, name: str, text: str, section: str = "activities") -> "Page":
        block, body = frontmatter.split_document(text)
        params = frontmatter.parse(block) if block else {}
        title = str(params.get("title", "")) or name
        return cls(name=name, title=title, body=body, _params=dict(params), section=section)

    @classmethod
    def from_file(cls, path: str | Path, section: str = "activities") -> "Page":
        path = Path(path)
        return cls.from_text(path.stem, path.read_text(encoding="utf-8"), section=section)


@dataclass(frozen=True)
class SiteConfig:
    """Site-wide configuration (the ``config.toml`` equivalent)."""

    title: str = "PDCunplugged"
    base_url: str = "https://www.pdcunplugged.org"
    taxonomies: tuple[TaxonomyConfig, ...] = DEFAULT_TAXONOMIES
    strategy: str = "indexed"


@dataclass
class BuildStats:
    """Result of one site build (full or incremental)."""

    pages_rendered: int = 0
    terms_rendered: int = 0
    pages_skipped: int = 0
    terms_skipped: int = 0
    files_removed: int = 0
    incremental: bool = False
    duration_s: float = 0.0
    output_dir: Path | None = None

    @property
    def total_files(self) -> int:
        """Files actually (re-)rendered by this build."""
        return self.pages_rendered + self.terms_rendered

    @property
    def total_skipped(self) -> int:
        """Files left untouched because their signature was unchanged."""
        return self.pages_skipped + self.terms_skipped


#: RenderTask kinds counted as "pages" in :class:`BuildStats`; everything
#: else (taxonomy indexes, term listings, views) counts as "terms".
_PAGE_KINDS = frozenset({"home", "page"})


@dataclass(frozen=True)
class RenderTask:
    """One output file of a build: where it goes, what feeds it, how to make it."""

    rel_path: str                    # e.g. "activities/gardeners/index.html"
    kind: str                        # "home" | "page" | "taxonomy" | "term" | "view"
    signature: str                   # hash over every input of this file
    render: Callable[[], str]

    @property
    def url(self) -> str:
        """Server path for this file (``a/b/index.html`` -> ``/a/b/``)."""
        if self.rel_path == "index.html":
            return "/"
        return "/" + self.rel_path[: -len("index.html")]

    @property
    def is_page(self) -> bool:
        return self.kind in _PAGE_KINDS


DEFAULT_THEME: dict[str, str] = {
    "base": (
        "<!DOCTYPE html>\n<html><head><title>{{ title }} | {{ site_title }}</title>"
        "</head>\n<body>\n{{{ content }}}\n</body></html>\n"
    ),
    "chips": (
        '<div class="activity-header">'
        "{{# chips }}"
        '<a class="chip chip-{{ color }}" data-taxonomy="{{ taxonomy }}" '
        'href="{{ url }}">{{ term }}</a>'
        "{{/ chips }}"
        "</div>"
    ),
    "single": (
        "<article>\n<h1>{{ page.title }}</h1>\n{{> chips }}\n"
        '<div class="content">{{{ html }}}</div>\n</article>'
    ),
    "list": (
        "<section>\n<h1>{{ heading }}</h1>\n<ul>\n"
        "{{# entries }}"
        '<li><a href="{{ url }}">{{ title }}</a></li>\n'
        "{{/ entries }}"
        "</ul>\n</section>"
    ),
    "terms": (
        "<section>\n<h1>{{ heading }}</h1>\n<ul>\n"
        "{{# terms }}"
        '<li><a href="{{ url }}">{{ name }}</a> ({{ count }})</li>\n'
        "{{/ terms }}"
        "</ul>\n</section>"
    ),
    "view": (
        '<section class="view">\n<h1>{{ heading }}</h1>\n'
        "{{# groups }}"
        '<div class="view-group">\n<h2>{{ term }} ({{ count }})</h2>\n<ul>\n'
        "{{# entries }}"
        '<li><a href="{{ url }}">{{ title }}</a></li>\n'
        "{{/ entries }}"
        "</ul>\n"
        "{{# subgroups }}"
        '<div class="view-subgroup">\n<h3>{{ term }}</h3>\n<ul>\n'
        "{{# entries }}"
        '<li><a href="{{ url }}">{{ title }}</a></li>\n'
        "{{/ entries }}"
        "</ul>\n</div>\n"
        "{{/ subgroups }}"
        "</div>\n"
        "{{/ groups }}"
        "</section>"
    ),
}


class Site:
    """A content tree plus taxonomy index, renderable to static HTML."""

    def __init__(
        self,
        config: SiteConfig | None = None,
        theme: Mapping[str, str] | None = None,
    ):
        self.config = config or SiteConfig()
        self.pages: list[Page] = []
        self._pages_by_name: dict[str, Page] = {}
        self.index = TaxonomyIndex(self.config.taxonomies, strategy=self.config.strategy)
        theme = dict(theme or DEFAULT_THEME)
        self.env = TemplateEnvironment(theme)
        for required in ("base", "single", "list", "terms", "chips"):
            if required not in self.env:
                raise SiteError(f"theme is missing required template {required!r}")
        # Theme + site-wide config feed every rendered file, so they are
        # folded into every task signature: a theme edit dirties everything.
        self._global_fingerprint = _hash(
            sorted(theme.items()), self.config.title, self.config.base_url
        )
        # rel_path -> signature as of the last build (seedable across
        # Site instances, see seed_signatures()).
        self._built_signatures: dict[str, str] = {}
        # View name -> View, built on the view's first render.
        self._views: dict[str, View] = {}

    # -- content -----------------------------------------------------------

    def add_page(self, page: Page) -> None:
        self.add_pages([page])

    def add_pages(self, pages: Iterable[Page]) -> None:
        """Add pages, in order, and index them in one taxonomy patch."""
        pages = list(pages)
        by_name = dict(self._pages_by_name)
        for page in pages:
            if page.name in by_name:
                raise SiteError(f"duplicate page name {page.name!r}")
            by_name[page.name] = page
        self.index.add_pages(pages)
        self._pages_by_name = by_name
        self.pages.extend(pages)
        self._views = {}

    def successor(self, pages: Iterable[Page]) -> "Site":
        """The next generation of this site: ``pages``, in order.

        The new site has this one's config and theme.  A page that is
        the same object here is unchanged; every other page, and every
        page of this site that is not carried over, is dirty, and only
        the terms those declare are re-indexed (see
        :meth:`TaxonomyIndex.patched`).  Should the unchanged pages come
        in another order, every page is dirty.  The build signatures
        carry over, so an incremental export of the successor re-renders
        only the files whose signature moved.  This site is not mutated.
        """
        pages = list(pages)
        by_name: dict[str, Page] = {}
        for page in pages:
            if by_name.setdefault(page.name, page) is not page:
                raise SiteError(f"duplicate page name {page.name!r}")
        old = self._pages_by_name
        added, carried, removed, kept = [], [], [], []
        for page in pages:
            (carried if old.get(page.name) is page else added).append(page)
        for page in self.pages:
            (kept if by_name.get(page.name) is page else removed).append(page)
        if any(a is not b for a, b in zip(carried, kept)):
            removed, added = self.pages, pages
        site = copy.copy(self)
        site.pages, site._pages_by_name, site._views = pages, by_name, {}
        site.index = self.index.patched(pages, removed, added)
        return site

    def load_content(self, content_dir: str | Path) -> int:
        """Load every ``*.md`` under ``content_dir`` (one section per subdir)."""
        content_dir = Path(content_dir)
        if not content_dir.is_dir():
            raise SiteError(f"content directory {content_dir} does not exist")
        pages = []
        for path in sorted(content_dir.rglob("*.md")):
            rel = path.relative_to(content_dir)
            section = rel.parts[0] if len(rel.parts) > 1 else "activities"
            pages.append(Page.from_file(path, section=section))
        self.add_pages(pages)
        return len(pages)

    def page(self, name: str) -> Page:
        try:
            return self._pages_by_name[name]
        except KeyError:
            raise SiteError(f"no page named {name!r}") from None

    # -- rendering ---------------------------------------------------------

    def _wrap(self, title: str, content: str) -> str:
        return self.env.render(
            "base",
            {"title": title, "site_title": self.config.title, "content": content},
        )

    def render_page(self, page: Page) -> str:
        content = self.env.render(
            "single",
            {
                "page": page,
                "chips": self._chip_context(page),
                "html": page.content_html(),
            },
        )
        return self._wrap(page.title, content)

    def _chip_context(self, page: Page) -> list[dict]:
        chips = []
        for taxonomy in self.index.visible_taxonomies():
            for term_name in page.terms(taxonomy.name):
                term = taxonomy.terms.get(term_name)
                chips.append(
                    {
                        "taxonomy": taxonomy.name,
                        "term": term_name,
                        "color": taxonomy.config.color,
                        "url": term.url if term else "#",
                    }
                )
        return chips

    def render_term_page(self, taxonomy_name: str, term_name: str) -> str:
        taxonomy = self.index.taxonomy(taxonomy_name)
        term = taxonomy.term(term_name)
        entries = [
            {"title": p.title, "url": p.url}
            for p in sorted(term.pages, key=lambda p: p.title.lower())
        ]
        content = self.env.render(
            "list", {"heading": f"{taxonomy_name}: {term_name}", "entries": entries}
        )
        return self._wrap(term_name, content)

    def render_taxonomy_index(self, taxonomy_name: str) -> str:
        taxonomy = self.index.taxonomy(taxonomy_name)
        terms = [
            {"name": t.name, "url": t.url, "count": t.count}
            for t in taxonomy.sorted_terms()
        ]
        content = self.env.render("terms", {"heading": taxonomy_name, "terms": terms})
        return self._wrap(taxonomy_name, content)

    def render_home(self) -> str:
        entries = [
            {"title": p.title, "url": p.url}
            for p in sorted(self.pages, key=lambda p: p.title.lower())
        ]
        content = self.env.render("list", {"heading": "All Activities", "entries": entries})
        return self._wrap("Home", content)

    def view(self, name: str) -> View:
        """One §II-C browsing view, built on first use and kept."""
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = VIEWS[name][0](self.index)
        return view

    def render_view(self, view) -> str:
        """Render one browsing view (paper §II-C) as a page.

        ``view`` is a :class:`~repro.sitegen.views.View`; groups render as
        sections, learning-outcome/topic subgroups as nested lists.
        """
        content = self.env.render(
            "view",
            {
                "heading": f"{view.name} view",
                "groups": [
                    {
                        "term": g.term,
                        "count": g.count,
                        "entries": [
                            {"title": e.title, "url": e.url} for e in g.entries
                        ],
                        "subgroups": [
                            {
                                "term": sg.term,
                                "entries": [
                                    {"title": e.title, "url": e.url}
                                    for e in sg.entries
                                ],
                            }
                            for sg in g.subgroups
                        ],
                    }
                    for g in view.groups
                ],
            },
        )
        return self._wrap(f"{view.name} view", content)

    def build_views(self, output_dir: str | Path) -> int:
        """Render the four §II-C views under ``<output>/views/``."""
        output = Path(output_dir)
        count = 0
        for name in VIEWS:
            view = self.view(name)
            view_dir = output / "views" / slugify(view.name)
            view_dir.mkdir(parents=True, exist_ok=True)
            (view_dir / "index.html").write_text(
                self.render_view(view), encoding="utf-8"
            )
            count += 1
        return count

    # -- build planning ----------------------------------------------------

    def render_plan(self) -> list[RenderTask]:
        """Enumerate every output file with its content signature.

        Signatures are cheap (no rendering happens here) and cover every
        input of the file: the page's own source for singles, term
        counts for taxonomy indexes, and for a term listing the digest of
        its ordered members' names, titles and URLs.  A view's signature
        hashes the digests of every term in the taxonomies it reads
        (:data:`~repro.sitegen.views.VIEWS`); the view itself is built
        only when its task renders.  Every signature also covers the
        theme/config fingerprint, and page, term and taxonomy signatures
        are memoized on the objects a later generation shares.  Two
        plans agreeing on a signature are guaranteed to render
        byte-identical files.
        """
        g = self._global_fingerprint
        tasks: list[RenderTask] = []

        listing = sorted(
            ((p.title, p.url) for p in self.pages), key=lambda e: e[0].lower()
        )
        tasks.append(
            RenderTask("index.html", "home", _hash(g, "home", listing), self.render_home)
        )

        for page in self.pages:
            tasks.append(
                RenderTask(
                    f"{page.section}/{page.slug}/index.html",
                    "page",
                    self._page_signature(page),
                    lambda p=page: self.render_page(p),
                )
            )

        for taxonomy in self.index.taxonomies():
            tax_slug = slugify(taxonomy.name)
            tasks.append(
                RenderTask(
                    f"{tax_slug}/index.html",
                    "taxonomy",
                    self._taxonomy_signature(taxonomy),
                    lambda n=taxonomy.name: self.render_taxonomy_index(n),
                )
            )
            for term in taxonomy.terms.values():
                tasks.append(
                    RenderTask(
                        f"{tax_slug}/{term.slug}/index.html",
                        "term",
                        self._term_signature(term),
                        lambda tx=taxonomy.name, tm=term.name:
                            self.render_term_page(tx, tm),
                    )
                )

        if "view" in self.env:
            for name, (_build, read) in VIEWS.items():
                digests = [self._term_signature(term) for tax in read
                           for term in self.index.taxonomy(tax).terms.values()]
                tasks.append(
                    RenderTask(
                        f"views/{slugify(name)}/index.html",
                        "view",
                        _hash(g, "view", name, digests),
                        lambda n=name: self.render_view(self.view(n)),
                    )
                )
        return tasks

    def _page_signature(self, page: Page) -> str:
        """The plan signature of one page's single, memoized on the page.

        It depends only on the page, the theme/config fingerprint and the
        configured taxonomies (the chip context), so a :class:`Page` that
        a later generation reuses keeps its signature while both match.
        """
        key = (self._global_fingerprint, self.config)
        memo = page._plan_signature
        if memo is not None and memo[0] == key:
            return memo[1]
        signature = _hash(self._global_fingerprint, "page", page.title, page.body,
                          sorted(page.params.items(), key=lambda kv: kv[0]),
                          self._chip_context(page))
        page._plan_signature = (key, signature)
        return signature

    def _term_signature(self, term) -> str:
        """A term listing's signature: the digest of its ordered members.

        It covers the ``(name, title, url)`` of every member in page
        order and is memoized on the :class:`Term`, keyed like
        :meth:`_page_signature`; a Term a later generation shares keeps
        it.  View signatures hash these digests too.
        """
        key = (self._global_fingerprint, self.config)
        memo = term._digest
        if memo is not None and memo[0] == key:
            return memo[1]
        digest = _hash(self._global_fingerprint, "term", term.taxonomy,
                       term.name, [(p.name, p.title, p.url) for p in term.pages])
        term._digest = (key, digest)
        return digest

    def _taxonomy_signature(self, taxonomy) -> str:
        """A taxonomy listing's signature over its terms' names, URLs and
        counts, memoized on the :class:`Taxonomy` like a term's."""
        key = (self._global_fingerprint, self.config)
        memo = taxonomy._signature
        if memo is not None and memo[0] == key:
            return memo[1]
        terms = [(t.name, t.url, t.count) for t in taxonomy.sorted_terms()]
        signature = _hash(self._global_fingerprint, "taxonomy", taxonomy.name,
                          terms)
        taxonomy._signature = (key, signature)
        return signature

    @property
    def built_signatures(self) -> dict[str, str]:
        """rel_path -> signature recorded by the last :meth:`build`."""
        return dict(self._built_signatures)

    def seed_signatures(self, signatures: Mapping[str, str]) -> None:
        """Carry build state over from a previous :class:`Site` instance.

        The serving layer reconstructs the Site when content changes; seeding
        the fresh instance with the old signatures lets its next incremental
        build skip everything the edit did not touch.
        """
        self._built_signatures = dict(signatures)

    def build(self, output_dir: str | Path,
              incremental: bool = False) -> BuildStats:
        """Render the site into ``output_dir``.

        With ``incremental=True``, a task whose signature matches the last
        build (and whose output file still exists) is skipped, and output
        files no longer in the plan are deleted — so editing one activity
        re-renders only its page plus the listing pages whose membership
        or entries actually changed.
        """
        started = time.perf_counter()
        output = Path(output_dir)
        output.mkdir(parents=True, exist_ok=True)
        stats = BuildStats(output_dir=output, incremental=incremental)

        plan = self.render_plan()
        for task in plan:
            dest = output / task.rel_path
            if (incremental
                    and self._built_signatures.get(task.rel_path) == task.signature
                    and dest.exists()):
                if task.is_page:
                    stats.pages_skipped += 1
                else:
                    stats.terms_skipped += 1
                continue
            dest.parent.mkdir(parents=True, exist_ok=True)
            dest.write_text(task.render(), encoding="utf-8")
            if task.is_page:
                stats.pages_rendered += 1
            else:
                stats.terms_rendered += 1

        if incremental:
            current = {task.rel_path for task in plan}
            for stale in set(self._built_signatures) - current:
                stale_file = output / stale
                if stale_file.exists():
                    stale_file.unlink()
                    stats.files_removed += 1

        self._built_signatures = {task.rel_path: task.signature for task in plan}
        stats.duration_s = time.perf_counter() - started
        return stats

    def check(self) -> None:
        """Run structural invariants over the whole site (no output)."""
        self.index.check_invariants()
        names = [p.name for p in self.pages]
        if len(set(names)) != len(names):
            raise SiteError("duplicate page names")
