"""Front-matter parser/serializer tests, including the paper's Fig. 2 header."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activities.catalog import corpus_dir
from repro.errors import FrontMatterError
from repro.sitegen import frontmatter as fm

from tests.sitegen import _frontmatter_oracle as oracle

FIG2 = '''---
title: "FindSmallestCard"
cs2013: ["PD_ParallelDecomposition", \\
"PD_ParallelAlgorithms"]
tcpp: ["TCPP_Algorithms", "TCPP_Programming"]
courses: ["CS1", "CS2", "DSA"]
senses: ["touch", "visual"]
---
'''


class TestSplitDocument:
    def test_splits_header_and_body(self):
        block, body = fm.split_document("---\na: 1\n---\n\nbody text\n")
        assert block == "a: 1"
        assert body == "body text\n"

    def test_no_front_matter_returns_none(self):
        block, body = fm.split_document("just text")
        assert block is None
        assert body == "just text"

    def test_delimiter_must_be_first_line(self):
        block, _ = fm.split_document("\n---\na: 1\n---\n")
        assert block is None

    def test_unterminated_raises(self):
        with pytest.raises(FrontMatterError):
            fm.split_document("---\na: 1\n")

    def test_empty_header(self):
        block, body = fm.split_document("---\n---\nbody")
        assert block == ""
        assert body == "body"


class TestParse:
    def test_fig2_header_parses_exactly(self):
        data = fm.parse(FIG2)
        assert data == {
            "title": "FindSmallestCard",
            "cs2013": ["PD_ParallelDecomposition", "PD_ParallelAlgorithms"],
            "tcpp": ["TCPP_Algorithms", "TCPP_Programming"],
            "courses": ["CS1", "CS2", "DSA"],
            "senses": ["touch", "visual"],
        }

    def test_scalar_types(self):
        data = fm.parse('count: 3\nratio: 2.5\nflag: true\noff: false\nname: plain')
        assert data == {"count": 3, "ratio": 2.5, "flag": True,
                        "off": False, "name": "plain"}

    def test_quoted_strings_preserve_specials(self):
        data = fm.parse('a: "hash # inside"\nb: \'single\'')
        assert data["a"] == "hash # inside"
        assert data["b"] == "single"

    def test_comments_stripped(self):
        data = fm.parse("a: 1  # a comment\n# full line comment\nb: 2")
        assert data == {"a": 1, "b": 2}

    def test_block_list(self):
        data = fm.parse("tags:\n  - one\n  - two\n")
        assert data == {"tags": ["one", "two"]}

    def test_empty_value_is_empty_string(self):
        assert fm.parse("title:\n") == {"title": ""}

    def test_inline_list_of_mixed_scalars(self):
        assert fm.parse("xs: [1, 2.5, true, word]") == {"xs": [1, 2.5, True, "word"]}

    def test_empty_inline_list(self):
        assert fm.parse("xs: []") == {"xs": []}

    def test_duplicate_key_rejected(self):
        with pytest.raises(FrontMatterError):
            fm.parse("a: 1\na: 2")

    def test_missing_colon_rejected(self):
        with pytest.raises(FrontMatterError, match="key: value"):
            fm.parse("not a mapping line")

    def test_nested_mapping_rejected(self):
        with pytest.raises(FrontMatterError, match="nested"):
            fm.parse("a: {b: 1}")

    def test_nested_list_rejected(self):
        with pytest.raises(FrontMatterError, match="nested"):
            fm.parse("a: [[1], 2]")

    def test_dangling_continuation_rejected(self):
        with pytest.raises(FrontMatterError, match="continuation"):
            fm.parse("a: [1, \\")

    def test_unterminated_string_rejected(self):
        with pytest.raises(FrontMatterError):
            fm.parse('a: "oops')

    def test_line_numbers_in_errors(self):
        with pytest.raises(FrontMatterError, match="line 2"):
            fm.parse("a: 1\nbroken line")

    def test_commas_inside_quotes(self):
        data = fm.parse('xs: ["a, b", "c"]')
        assert data == {"xs": ["a, b", "c"]}


class TestSerialize:
    def test_round_trips_fig2(self):
        data = fm.parse(FIG2)
        assert fm.parse(fm.serialize(data)) == data

    def test_body_attached(self):
        doc = fm.serialize({"title": "X"}, body="hello\n")
        block, body = fm.split_document(doc)
        assert "title" in block
        assert body == "hello\n"

    def test_escapes_quotes_and_backslashes(self):
        data = {"t": 'say "hi" \\ there'}
        assert fm.parse(fm.serialize(data)) == data

    def test_preserves_key_order(self):
        data = {"z": 1, "a": 2, "m": 3}
        out = fm.serialize(data)
        assert out.index("z:") < out.index("a:") < out.index("m:")


_scalars = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.booleans(),
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        max_size=30,
    ),
)
_values = st.one_of(_scalars, st.lists(_scalars, max_size=5))
_keys = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz_"), min_size=1, max_size=12
)


@given(st.dictionaries(_keys, _values, max_size=8))
def test_roundtrip_property(data):
    """parse(serialize(d)) == d for arbitrary front-matter mappings."""
    assert fm.parse(fm.serialize(data)) == data


# -- differential test against the pre-fast-path parser ------------------------

_FUZZ_ALPHABET = "\"'\\,[]#:-{\t\n ab1"
_fuzz_text = st.text(alphabet=st.sampled_from(_FUZZ_ALPHABET), max_size=16)
_fuzz_item = st.one_of(
    _fuzz_text,
    _fuzz_text.map(lambda t: f'"{t}"'),
    _fuzz_text.map(lambda t: f"'{t}'"),
)
_fuzz_list = st.builds(
    lambda items, sep, tail: "[" + sep.join(items) + tail,
    st.lists(_fuzz_item, max_size=4),
    st.sampled_from([", ", ",", " ,\t", ",,"]),
    st.sampled_from(["]", ", ]", "] # c", "", "\t]"]),
)
_fuzz_value = st.one_of(_fuzz_item, _fuzz_list)
_fuzz_line = st.one_of(
    st.builds(lambda k, v: f"{k}: {v}", st.sampled_from(["k", "a b", ""]),
              _fuzz_value),
    _fuzz_value.map(lambda v: f"  - {v}"),
    _fuzz_value.map(lambda v: f"{v} \\"),
    _fuzz_text.map(lambda v: f"# {v}"),
    _fuzz_text,
)

# Mostly well-formed lines, so drawn headers also parse and reach the
# fast paths rather than stopping at the first error.
_word = st.text(alphabet=st.sampled_from("ab1 ,:#[]-{'\t"), max_size=10)
_plain = _word.map(lambda t: f'"{t}"')
_escaped = st.lists(st.sampled_from(["a", " ", ",", "\\\\", '\\"']),
                    max_size=5).map(lambda parts: '"' + "".join(parts) + '"')
_good_list = st.builds(
    lambda items, sep, tail: "[" + sep.join(items) + tail,
    st.lists(st.one_of(_plain, _plain, _escaped, _fuzz_item), max_size=4),
    st.sampled_from([", ", ",", " ,\t", "\t, "]),
    st.sampled_from(["]", ", ]", "] # c", ",\t]"]),
)
_good_line = st.one_of(
    st.builds(lambda k, v: f"{k}: {v}", st.sampled_from("cdefghjkluvwxyz"),
              st.one_of(_plain, _escaped, _good_list, _good_list,
                        _word.map(lambda t: t.strip("'\"[{ #")))),
    st.builds(lambda k, a, b: f"{k}: [{a}, \\\n  {b}]",
              st.sampled_from("mnpq"), _plain, _plain),
    st.builds(lambda k, a, b: f"{k}: [{a}, {b}]",
              st.sampled_from("mnpq"), _escaped, _plain),
    st.builds(lambda k, items: f"{k}:" + "".join(f"\n  - {v}" for v in items),
              st.sampled_from("rst"),
              st.lists(st.one_of(_plain, _escaped), max_size=3)),
    _word.map(lambda v: f"# {v}"),
    st.just(""),
)
_fuzz_header = st.builds(
    lambda lines, wrap: wrap[0] + "\n".join(lines) + wrap[1],
    st.one_of(st.lists(_fuzz_line, max_size=5),
              st.lists(_good_line, max_size=8),
              st.lists(st.one_of(_good_line, _fuzz_line), max_size=6)),
    st.sampled_from([("", ""), ("---\n", "\n---\nbody"), ("", ""),
                     ("---\n", "")]),
)


def _outcome(parse, text, line_offset):
    try:
        return parse(text, line_offset)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@settings(max_examples=500, deadline=None)
@given(_fuzz_header, st.integers(min_value=0, max_value=3))
def test_fast_paths_match_reference_parser(text, line_offset):
    """Values, spans, and error type/message/line equal the frozen parser's."""
    assert _outcome(fm.parse_with_spans, text, line_offset) == \
        _outcome(oracle.parse_with_spans, text, line_offset)


def test_corpus_headers_match_reference_parser():
    files = sorted(corpus_dir().glob("*.md"))
    assert files
    for path in files:
        text = path.read_text(encoding="utf-8")
        block, _body, offset, _ = fm.split_document_with_lines(text)
        assert fm.parse_with_spans(block, offset) == \
            oracle.parse_with_spans(block, offset), path.name
