"""Markdown engine tests: blocks, inlines, HTML rendering, URL extraction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sitegen import markdown as md
from repro.sitegen.markdown import (
    BlockQuote,
    CodeBlock,
    Document,
    Heading,
    ListBlock,
    Paragraph,
    Table,
    ThematicBreak,
)
from tests.sitegen import _markdown_oracle as inline_oracle


class TestBlocks:
    def test_heading_levels(self):
        doc = md.parse("# One\n## Two\n###### Six")
        levels = [b.level for b in doc.children if isinstance(b, Heading)]
        assert levels == [1, 2, 6]

    def test_heading_trailing_hashes_stripped(self):
        assert md.render_html("## Title ##") == "<h2>Title</h2>"

    def test_seven_hashes_is_paragraph(self):
        doc = md.parse("####### nope")
        assert isinstance(doc.children[0], Paragraph)

    def test_thematic_break_variants(self):
        for rule in ("---", "***", "___", "- - -", "*  *  *"):
            doc = md.parse(f"text\n\n{rule}\n\nmore")
            assert any(isinstance(b, ThematicBreak) for b in doc.children), rule

    def test_paragraph_joins_adjacent_lines(self):
        doc = md.parse("line one\nline two")
        para = doc.children[0]
        assert isinstance(para, Paragraph)
        assert para.to_text() == "line one\nline two"

    def test_blank_line_separates_paragraphs(self):
        doc = md.parse("one\n\ntwo")
        assert len([b for b in doc.children if isinstance(b, Paragraph)]) == 2

    def test_fenced_code_block(self):
        doc = md.parse("```python\nx = 1\n```")
        block = doc.children[0]
        assert isinstance(block, CodeBlock)
        assert block.language == "python"
        assert block.code == "x = 1\n"

    def test_fenced_code_not_inline_parsed(self):
        html = md.render_html("```\n*not emphasis*\n```")
        assert "<em>" not in html
        assert "*not emphasis*" in html

    def test_indented_code_block(self):
        doc = md.parse("    indented code\n    more")
        block = doc.children[0]
        assert isinstance(block, CodeBlock)
        assert "indented code" in block.code

    def test_code_html_escaped(self):
        html = md.render_html("```\n<script>\n```")
        assert "&lt;script&gt;" in html

    def test_blockquote(self):
        doc = md.parse("> quoted\n> lines")
        assert isinstance(doc.children[0], BlockQuote)

    def test_unordered_list(self):
        doc = md.parse("- a\n- b\n- c")
        lst = doc.children[0]
        assert isinstance(lst, ListBlock)
        assert not lst.ordered
        assert len(lst.items) == 3

    def test_ordered_list_with_start(self):
        doc = md.parse("3. c\n4. d")
        lst = doc.children[0]
        assert lst.ordered
        assert lst.start == 3
        assert 'start="3"' in lst.to_html()

    def test_list_marker_variants(self):
        for marker in ("-", "*", "+"):
            doc = md.parse(f"{marker} item")
            assert isinstance(doc.children[0], ListBlock), marker

    def test_table_parsing(self):
        doc = md.parse("| a | b |\n|---|---:|\n| 1 | 2 |\n| 3 | 4 |")
        table = doc.children[0]
        assert isinstance(table, Table)
        assert len(table.rows) == 2
        assert table.alignments == ["", "right"]

    def test_table_html(self):
        html = md.render_html("| h |\n|---|\n| v |")
        assert "<thead>" in html and "<td>v</td>" in html

    def test_empty_document(self):
        assert md.parse("").children == []
        assert md.render_html("") == ""


class TestInlines:
    def test_emphasis_and_strong(self):
        html = md.render_html("*em* and **strong** and _under_")
        assert "<em>em</em>" in html
        assert "<strong>strong</strong>" in html
        assert "<em>under</em>" in html

    def test_nested_strong_in_emphasis_stays_literal_safe(self):
        html = md.render_html("**bold with *nested* inside**")
        assert "<strong>" in html

    def test_code_span(self):
        assert md.render_html("use `x < y` here") == "<p>use <code>x &lt; y</code> here</p>"

    def test_double_backtick_code_span(self):
        html = md.render_html("``code with ` tick``")
        assert "<code>code with ` tick</code>" in html

    def test_link(self):
        html = md.render_html("[label](http://example.com)")
        assert html == '<p><a href="http://example.com">label</a></p>'

    def test_link_with_title(self):
        html = md.render_html('[x](http://e.com "T")')
        assert 'title="T"' in html

    def test_image(self):
        html = md.render_html("![alt](http://e.com/i.png)")
        assert '<img src="http://e.com/i.png" alt="alt" />' in html

    def test_autolink(self):
        html = md.render_html("<https://example.org/page>")
        assert '<a href="https://example.org/page">' in html

    def test_escapes(self):
        assert md.render_html(r"\*not emphasis\*") == "<p>*not emphasis*</p>"

    def test_html_escaped_in_text(self):
        assert "&lt;b&gt;" in md.render_html("<b>raw</b> text")

    def test_unmatched_emphasis_literal(self):
        assert md.render_html("a * b") == "<p>a * b</p>"

    def test_unclosed_link_is_text(self):
        assert "<a" not in md.render_html("[unclosed link")


class TestPlainTextAndUrls:
    def test_plain_text_strips_formatting(self):
        text = md.plain_text("## Head\n\n*emph* [link](http://x.com)")
        assert "Head" in text and "emph" in text and "link" in text
        assert "*" not in text and "(" not in text

    def test_find_urls_in_links_and_bare(self):
        urls = md.find_urls(
            "See [a](http://a.com/x) and https://b.org/y, also ![i](http://c.net/z.png)"
        )
        assert urls == ["http://a.com/x", "https://b.org/y", "http://c.net/z.png"]

    def test_find_urls_in_lists_and_tables(self):
        body = "- [l](http://list.com)\n\n| c |\n|---|\n| http://cell.io/a |"
        urls = md.find_urls(body)
        assert "http://list.com" in urls
        assert any(u.startswith("http://cell.io") for u in urls)

    def test_no_urls(self):
        assert md.find_urls("plain text only") == []


class TestActivityShapedDocument:
    """The renderer handles the exact shape activity bodies use."""

    BODY = (
        "## Original Author/link\n\nAuthor Name\n\n"
        "[External resource](http://example.edu/materials)\n\n---\n\n"
        "## Details\n\nStudents hold cards. **Variations**: several.\n\n---\n\n"
        "## Citations\n\n- Doe, J. (1994). A paper. In Proc. X.\n"
    )

    def test_sections_render_as_h2(self):
        html = md.render_html(self.BODY)
        assert html.count("<h2>") == 3
        assert "<hr />" in html

    def test_citation_list_renders(self):
        html = md.render_html(self.BODY)
        assert "<li>Doe, J. (1994). A paper. In Proc. X.</li>" in html


@given(st.text(max_size=300))
def test_parser_never_crashes(text):
    """Total function: arbitrary input parses and renders without raising."""
    doc = md.parse(text)
    assert isinstance(doc, Document)
    doc.to_html()
    doc.to_text()


@given(st.lists(st.sampled_from(
    ["# H", "para text", "- item", "```", "code", "```", "> quote", "---",
     "| a |", "|---|", "1. one", "    indented"]
), max_size=12))
def test_block_structures_never_crash(lines):
    md.render_html("\n".join(lines))


# -- run-scanned inlines against the frozen per-character parser ----------

#: Every character a branch of ``parse_inlines`` looks at, plus a little
#: plain text, so runs are short and every branch is reached.
_INLINE_ALPHABET = "\\\n`![]()<>*_\"{}#+-.| aZ:/é"
_INLINE_PIECES = st.sampled_from([
    "word", " ", "\n", "\\*", "\\\\", "\\`", "*", "**", "_", "__", "`",
    "``", "[", "]", "(", ")", "![", "<", ">", "https://x.org/a", "<http://y",
    '"t"', "[a](b)", '[l](u "t")', "![i](p.png)", "**b**", "*e*", "`c`",
])
_INLINE_TEXT = st.one_of(
    st.text(alphabet=_INLINE_ALPHABET, max_size=60),
    st.lists(_INLINE_PIECES, max_size=16).map("".join),
)


@settings(max_examples=1000, deadline=None)
@given(_INLINE_TEXT)
def test_inlines_match_the_frozen_parser(text):
    assert md.parse_inlines(text) == inline_oracle.parse_inlines(text)


@pytest.mark.parametrize("corpus", ["packaged", "scaled"])
def test_every_plan_url_renders_the_same_with_the_frozen_parser(
        corpus, catalog, request, monkeypatch):
    """Byte-identical renders of every plan URL, 38 and 456 files."""
    if corpus == "scaled":
        catalog = request.getfixturevalue("scaled_catalog")
    plan = catalog.site().render_plan()
    live = {task.url: task.render() for task in plan}
    calls = []

    def frozen(text):
        calls.append(text)
        return inline_oracle.parse_inlines(text)

    monkeypatch.setattr(md, "parse_inlines", frozen)
    assert {task.url: task.render() for task in plan} == live
    assert calls                          # the frozen parser did render them
    assert len(live) == {"packaged": 170, "scaled": 588}[corpus]
