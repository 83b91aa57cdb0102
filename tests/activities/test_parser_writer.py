"""Parser/writer tests including the hypothesis round-trip property."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.activities.catalog import Catalog, corpus_dir
from repro.activities.parser import parse_activity, split_sections
from repro.activities.schema import SECTION_ORDER, Activity
from repro.activities.writer import write_activity, write_activity_file
from repro.errors import ActivityError, FrontMatterError
from repro.sitegen.site import Page

DOC = """---
title: "FindSmallestCard"
date: 2019-12-02
cs2013: ["PD_ParallelDecomposition"]
cs2013details: ["PD_3"]
tcpp: ["TCPP_Algorithms"]
tcppdetails: ["A_Selection"]
courses: ["CS1", "CS2"]
senses: ["touch", "visual"]
medium: ["cards"]
---

## Original Author/link

Bachelis et al.

[resource](http://example.edu/cards)

---

## Details

Students hold cards and compare in pairs.

---

## CS2013 Knowledge Unit Coverage

- Parallel Decomposition

---

## TCPP Topics Coverage

- Algorithms

---

## Recommended Courses

CS1, CS2

---

## Accessibility

Seated variant available.

---

## Assessment

No known assessment.

---

## Citations

- Bachelis, G. F. (1994). Bringing algorithms to life.
"""


class TestSplitSections:
    def test_sections_in_order(self):
        sections = split_sections(DOC.split("---\n", 2)[2])
        assert list(sections) == [s for s in SECTION_ORDER if s in sections]

    def test_rules_not_part_of_content(self):
        sections = split_sections("## A\n\ntext\n\n---\n\n## B\n\nmore\n")
        assert sections["A"] == "text"
        assert sections["B"] == "more"

    def test_duplicate_section_rejected(self):
        with pytest.raises(ActivityError, match="duplicate"):
            split_sections("## A\n\nx\n\n## A\n\ny\n")

    def test_content_before_heading_rejected(self):
        with pytest.raises(ActivityError, match="before first section"):
            split_sections("stray text\n\n## A\n")

    def test_h3_not_treated_as_section(self):
        sections = split_sections("## A\n\n### sub\n\ntext\n")
        assert "### sub" in sections["A"]


class TestParse:
    def test_full_document(self):
        a = parse_activity("findsmallestcard", DOC)
        assert a.title == "FindSmallestCard"
        assert a.date == "2019-12-02"
        assert a.cs2013 == ["PD_ParallelDecomposition"]
        assert a.senses == ["touch", "visual"]
        assert a.has_external_resource
        assert "compare in pairs" in a.sections["Details"]
        assert len(a.citations) == 1

    def test_missing_front_matter_rejected(self):
        with pytest.raises(ActivityError, match="no front matter"):
            parse_activity("x", "## Original Author/link\n")

    def test_missing_title_rejected(self):
        with pytest.raises(ActivityError, match="no title"):
            parse_activity("x", "---\ndate: 2020-01-01\n---\n")

    def test_single_string_tag_promoted(self):
        a = parse_activity("x", '---\ntitle: "X"\nsenses: "visual"\n---\n')
        assert a.senses == ["visual"]


class TestRoundTrip:
    def test_exact_roundtrip_of_doc(self):
        a = parse_activity("findsmallestcard", DOC)
        b = parse_activity("findsmallestcard", write_activity(a))
        assert a == b

    def test_write_to_file(self, tmp_path):
        a = parse_activity("findsmallestcard", DOC)
        path = write_activity_file(a, tmp_path)
        assert path.name == "findsmallestcard.md"
        from repro.activities.parser import parse_activity_file

        assert parse_activity_file(path) == a

    def test_corpus_roundtrips(self, catalog):
        """Every shipped activity survives write -> parse unchanged."""
        for activity in catalog:
            again = parse_activity(activity.name, write_activity(activity))
            assert again == activity, activity.name


_term = st.text(alphabet=st.sampled_from("abcXYZ_123"), min_size=1, max_size=10)
_section_text = st.text(
    alphabet=st.sampled_from("abc def\nghi*`[]() Z"), max_size=80
).map(lambda s: s.strip()).filter(
    lambda s: not any(
        line.strip().startswith(("## ", "---", "***", "___"))
        or line.strip() in ("---", "***", "___")
        for line in s.split("\n")
    )
)


@given(
    title=st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
                  min_size=1, max_size=30).map(str.strip).filter(bool),
    terms=st.lists(_term, max_size=4, unique=True),
    body_texts=st.lists(_section_text, min_size=7, max_size=7),
)
def test_roundtrip_property(title, terms, body_texts):
    """write -> parse is the identity for arbitrary schema-shaped activities."""
    sections = {
        name: text for name, text in zip(
            [s for s in SECTION_ORDER if s != "Details"], body_texts
        )
    }
    activity = Activity(
        name="prop",
        title=title,
        cs2013=terms,
        courses=list(terms[:2]),
        sections=sections,
    )
    again = parse_activity("prop", write_activity(activity))
    assert again.title == activity.title
    assert again.cs2013 == activity.cs2013
    assert again.courses == activity.courses
    for name, text in sections.items():
        assert again.sections.get(name, "") == text.strip("\n").strip() or \
            again.sections.get(name, "").strip() == text.strip()


# -- Catalog.site builds each Page without the write -> parse round trip ------

def _page_fields(page: Page) -> tuple:
    """Every field of a Page, with the type of each header value."""
    def typed(value):
        if isinstance(value, list):
            return [(type(v), v) for v in value]
        return type(value), value

    params = [(key, typed(value)) for key, value in page.params.items()]
    return page.name, page.title, page.body, page.section, params


def _outcome(build) -> tuple:
    try:
        return _page_fields(build())
    except Exception as exc:  # the round trip's own parse error
        return type(exc), str(exc)


def _assert_direct_page_is_round_trip(activity: Activity) -> None:
    direct = _outcome(lambda: Catalog([activity]).site().page(activity.name))
    reparsed = _outcome(
        lambda: Page.from_text(activity.name, write_activity(activity)))
    assert direct == reparsed, activity.name


class TestDirectPage:
    def test_corpus_pages_equal_round_trip(self, catalog):
        for activity in catalog:
            _assert_direct_page_is_round_trip(activity)

    def test_write_activity_output_unchanged(self, catalog):
        """The shipped files are canonical, so writing one reproduces it."""
        for activity in catalog:
            path = corpus_dir() / f"{activity.name}.md"
            assert write_activity(activity) == \
                path.read_text(encoding="utf-8"), activity.name

    def test_newline_in_a_value_takes_the_round_trip(self):
        activity = Activity(name="nl", title="two\nlines", senses=["a\nb"])
        with pytest.raises(FrontMatterError):
            Catalog([activity]).site()


_odd_text = st.text(alphabet=st.sampled_from('ab1 _"\'\\#,[]:-{\t\n'),
                    max_size=8)


@given(
    title=st.one_of(
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=20),
        _odd_text),
    date=st.one_of(st.just(""), st.just("2020-01-02"), _odd_text),
    terms=st.lists(st.one_of(_term, _odd_text.filter(bool)), max_size=4,
                   unique=True),
    body_texts=st.lists(_section_text, min_size=7, max_size=7),
)
def test_direct_page_equals_round_trip_property(title, date, terms,
                                                body_texts):
    """Catalog.site's Page equals Page.from_text(write_activity(a))."""
    sections = dict(zip([s for s in SECTION_ORDER if s != "Details"],
                        body_texts))
    activity = Activity(name="prop", title=title, date=date, cs2013=terms,
                        medium=list(terms[1:]), sections=sections)
    _assert_direct_page_is_round_trip(activity)
