"""Taxonomy engine tests: indexing, term pages, strategies, invariants."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SiteError
from repro.sitegen.taxonomy import (
    DEFAULT_TAXONOMIES,
    TaxonomyConfig,
    TaxonomyIndex,
    slugify,
)


class FakePage:
    def __init__(self, name: str, **params):
        self.name = name
        self.title = name
        self._params = params

    @property
    def params(self):
        return self._params


def make_index(strategy="indexed"):
    index = TaxonomyIndex(strategy=strategy)
    index.add_pages(
        [
            FakePage("a", cs2013=["PD_X", "PD_Y"], senses=["touch"]),
            FakePage("b", cs2013=["PD_X"], courses=["CS1", "CS2"]),
            FakePage("c", senses=["touch", "visual"], medium=["cards"]),
        ]
    )
    return index


class TestSlugify:
    def test_lowercases(self):
        assert slugify("PD_ParallelAlgorithms") == "pd_parallelalgorithms"

    def test_spaces_become_dashes(self):
        assert slugify("Parallel Decomposition") == "parallel-decomposition"

    def test_collapses_runs(self):
        assert slugify("a  &  b") == "a-b"

    def test_empty_slug_rejected(self):
        with pytest.raises(SiteError):
            slugify("&&&")

    def test_empty_slug_raises_on_every_call(self):
        # lru_cache stores return values only: a cached error would let
        # the second call fall through silently.
        for _ in range(3):
            with pytest.raises(SiteError, match="empty slug"):
                slugify("&&&")

    def test_cache_is_bounded(self):
        assert slugify.cache_info().maxsize is not None

    def test_cached_results_equal_uncached(self):
        uncached = slugify.__wrapped__
        for term in ("PD_ParallelAlgorithms", "Parallel Decomposition",
                     "a  &  b", "  Trim me  ", "x-y_z"):
            assert slugify(term) == uncached(term)
            assert slugify(term) == uncached(term)      # now a cache hit


class TestIndexing:
    @pytest.mark.parametrize("strategy", ["indexed", "scan"])
    def test_term_grouping(self, strategy):
        index = make_index(strategy)
        tax = index.taxonomy("cs2013")
        assert {t.name for t in tax.terms.values()} == {"PD_X", "PD_Y"}
        assert [p.name for p in tax.term("PD_X").pages] == ["a", "b"]

    @pytest.mark.parametrize("strategy", ["indexed", "scan"])
    def test_pages_with_term(self, strategy):
        index = make_index(strategy)
        assert [p.name for p in index.pages_with_term("senses", "touch")] == ["a", "c"]
        assert index.pages_with_term("senses", "nonexistent") == []

    def test_strategies_agree(self):
        eager, lazy = make_index("indexed"), make_index("scan")
        for tax_name in ("cs2013", "senses", "courses", "medium"):
            eager_hist = eager.term_counts(tax_name)
            lazy_hist = lazy.term_counts(tax_name)
            assert eager_hist == lazy_hist, tax_name

    def test_intersection_query(self):
        index = make_index()
        both = index.pages_with_all_terms("senses", ["touch", "visual"])
        assert [p.name for p in both] == ["c"]

    def test_string_term_promoted_to_list(self):
        index = TaxonomyIndex()
        index.add_page(FakePage("solo", senses="visual"))
        assert [p.name for p in index.pages_with_term("senses", "visual")] == ["solo"]

    def test_duplicate_terms_deduped(self):
        index = TaxonomyIndex()
        index.add_page(FakePage("dup", senses=["touch", "touch"]))
        assert index.taxonomy("senses").term("touch").count == 1

    def test_non_list_term_value_rejected(self):
        # scan strategy fails at query time...
        index = TaxonomyIndex(strategy="scan")
        index.add_page(FakePage("bad", senses=42))
        with pytest.raises(SiteError, match="must be a string or list"):
            index.taxonomy("senses")
        # ...the indexed strategy fails at add time.
        index2 = TaxonomyIndex(strategy="indexed")
        with pytest.raises(SiteError):
            index2.add_page(FakePage("bad", senses=42))

    def test_unknown_taxonomy_rejected(self):
        with pytest.raises(SiteError, match="unknown taxonomy"):
            make_index().taxonomy("nope")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SiteError):
            TaxonomyIndex(strategy="magic")

    def test_hidden_taxonomies_excluded_from_visible(self):
        index = make_index()
        visible = {t.name for t in index.visible_taxonomies()}
        assert visible == {"cs2013", "tcpp", "courses", "senses"}
        all_names = {t.name for t in index.taxonomies()}
        assert "medium" in all_names and "cs2013details" in all_names


class TestTermProperties:
    def test_term_url(self):
        index = make_index()
        term = index.taxonomy("cs2013").term("PD_X")
        assert term.url == "/cs2013/pd_x/"

    def test_sorted_terms_by_count_then_name(self):
        index = make_index()
        ordered = index.taxonomy("cs2013").sorted_terms()
        assert [t.name for t in ordered] == ["PD_X", "PD_Y"]

    def test_histogram(self):
        index = make_index()
        assert index.term_counts("senses") == {"touch": 2, "visual": 1}

    def test_missing_term_rejected(self):
        with pytest.raises(SiteError, match="no term"):
            make_index().taxonomy("cs2013").term("PD_Z")


class TestInvariants:
    def test_check_invariants_passes(self):
        make_index().check_invariants()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["cs2013", "tcpp", "senses", "medium", "courses"]),
                st.lists(st.sampled_from(["t1", "t2", "t3", "t4"]), max_size=3),
            ),
            max_size=5,
        )
    )
    def test_invariants_hold_for_arbitrary_pages(self, page_specs):
        """Union of term pages == pages declaring the taxonomy; no empty terms."""
        index = TaxonomyIndex()
        for i, (tax, terms) in enumerate(page_specs):
            index.add_page(FakePage(f"p{i}-{id(object())}", **{tax: terms}))
        index.check_invariants()
        for taxonomy in index.taxonomies():
            for term in taxonomy.terms.values():
                assert term.count >= 1
                for page in term.pages:
                    assert term.name in page.params.get(taxonomy.name, [])
