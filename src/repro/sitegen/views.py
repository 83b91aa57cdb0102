"""The four activity browsing views (paper §II-C).

Beyond per-term listing pages, PDCunplugged builds aggregate *views* so
visitors can "quickly narrow in on unplugged activities that meet their
needs":

* :func:`cs2013_view` -- knowledge units and, via the hidden
  ``cs2013details`` taxonomy, individual learning outcomes with the
  activities covering each.
* :func:`tcpp_view` -- TCPP topic areas and, via ``tcppdetails``, the
  Bloom-classified topics with their activities.
* :func:`courses_view` -- activities grouped by recommended course.
* :func:`accessibility_view` -- the ``senses`` taxonomy crossed with the
  hidden ``medium`` taxonomy ("an educator wondering how to teach
  parallelism with a deck of cards could select the 'cards' term").

Each view is a plain data structure (list of :class:`ViewGroup`) so it can
be rendered by templates, printed by the CLI, or consumed by the analytics
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sitegen.taxonomy import TaxonomyIndex

__all__ = [
    "ViewEntry",
    "ViewGroup",
    "View",
    "cs2013_view",
    "tcpp_view",
    "courses_view",
    "accessibility_view",
    "VIEWS",
]


@dataclass(frozen=True)
class ViewEntry:
    """One activity listed inside a view group."""

    name: str
    title: str
    url: str


@dataclass
class ViewGroup:
    """A term (knowledge unit, topic, course, sense, or medium) with its activities."""

    term: str
    entries: list[ViewEntry] = field(default_factory=list)
    subgroups: list["ViewGroup"] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.entries)


@dataclass
class View:
    """A named view: ordered groups of activities."""

    name: str
    groups: list[ViewGroup] = field(default_factory=list)

    def group(self, term: str) -> ViewGroup:
        for g in self.groups:
            if g.term == term:
                return g
        raise KeyError(term)

    @property
    def terms(self) -> list[str]:
        return [g.term for g in self.groups]


def _entries(pages) -> list[ViewEntry]:
    return [
        ViewEntry(name=p.name, title=p.title, url=p.url)
        for p in sorted(pages, key=lambda p: p.title.lower())
    ]


def _groups_for(index: TaxonomyIndex, taxonomy: str) -> list[ViewGroup]:
    tax = index.taxonomy(taxonomy)
    return [
        ViewGroup(term=t.name, entries=_entries(t.pages))
        for t in sorted(tax.terms.values(), key=lambda t: t.name)
    ]


def cs2013_view(index: TaxonomyIndex) -> View:
    """Knowledge-unit groups, each with learning-outcome subgroups.

    Subgroups come from ``cs2013details`` terms (e.g. ``PD_1``) whose prefix
    matches the knowledge unit's detail abbreviation; the mapping between a
    knowledge unit term (``PD_ParallelDecomposition``) and its detail prefix
    is carried in the standards model, so here subgroups are attached to the
    view root keyed by raw prefix and the analytics layer joins them.
    """
    view = View("cs2013", groups=_groups_for(index, "cs2013"))
    details = _groups_for(index, "cs2013details")
    by_prefix: dict[str, list[ViewGroup]] = {}
    for group in details:
        prefix = group.term.rsplit("_", 1)[0]
        by_prefix.setdefault(prefix, []).append(group)
    for ku_group in view.groups:
        # cs2013 terms look like "PD_ParallelDecomposition"; detail terms
        # like "PD-Decomp_3".  We attach every detail group whose activities
        # are a subset of the KU's activities and whose prefix is declared
        # by those same pages -- a purely structural join.
        ku_pages = {e.name for e in ku_group.entries}
        for prefix_groups in by_prefix.values():
            for dg in prefix_groups:
                if dg.entries and {e.name for e in dg.entries} <= ku_pages:
                    if dg not in ku_group.subgroups:
                        ku_group.subgroups.append(dg)
        ku_group.subgroups.sort(key=lambda g: g.term)
    return view


def tcpp_view(index: TaxonomyIndex) -> View:
    """Topic-area groups with Bloom-classified topic subgroups."""
    view = View("tcpp", groups=_groups_for(index, "tcpp"))
    details = _groups_for(index, "tcppdetails")
    for area_group in view.groups:
        area_pages = {e.name for e in area_group.entries}
        for dg in details:
            if dg.entries and {e.name for e in dg.entries} <= area_pages:
                area_group.subgroups.append(dg)
        area_group.subgroups.sort(key=lambda g: g.term)
    return view


def courses_view(index: TaxonomyIndex) -> View:
    """Activities grouped by recommended course (paper: 'self-explanatory')."""
    return View("courses", groups=_groups_for(index, "courses"))


def accessibility_view(index: TaxonomyIndex) -> View:
    """Senses and mediums, merged into one browsable view.

    The paper builds this view from the ``senses`` taxonomy *in tandem with*
    the hidden ``medium`` taxonomy, so a visitor can filter by either a
    sensory channel ("touch") or a communication medium ("cards").
    """
    groups = _groups_for(index, "senses")
    medium_groups = _groups_for(index, "medium")
    sense_terms = {g.term for g in groups}
    for mg in medium_groups:
        if mg.term in sense_terms:
            # A term used both as sense and medium keeps one merged group.
            existing = next(g for g in groups if g.term == mg.term)
            known = {e.name for e in existing.entries}
            existing.entries.extend(e for e in mg.entries if e.name not in known)
            existing.entries.sort(key=lambda e: e.title.lower())
        else:
            groups.append(mg)
    groups.sort(key=lambda g: g.term)
    return View("accessibility", groups=groups)


#: Every view, in page order: name -> (builder, the taxonomies it reads).
#: A view's groups, entries and subgroups come from those taxonomies'
#: terms and nothing else, which is what its plan signature hashes.
VIEWS = {
    "cs2013": (cs2013_view, ("cs2013", "cs2013details")),
    "tcpp": (tcpp_view, ("tcpp", "tcppdetails")),
    "courses": (courses_view, ("courses",)),
    "accessibility": (accessibility_view, ("senses", "medium")),
}
