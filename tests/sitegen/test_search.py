"""Full-text search tests over synthetic documents and the real corpus."""

from __future__ import annotations

from pathlib import Path
from urllib.parse import parse_qs

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SiteError
from repro.serve.loadgen import DEFAULT_API_PATHS
from repro.sitegen.search import STOP_WORDS, SearchIndex, tokenize
from tests.sitegen import _search_oracle as oracle


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Parallel RADIX-Sort!") == ["parallel", "radix", "sort"]

    def test_stop_words_removed(self):
        assert tokenize("the cat and the hat") == ["cat", "hat"]

    def test_numbers_kept(self):
        assert "2013" in tokenize("CS2013 has 2013 in it")


class TestIndex:
    @pytest.fixture()
    def index(self):
        idx = SearchIndex()
        idx.add_document("sorting", "Card Sorting", "students sort decks of cards",
                         tags=["TCPP_Algorithms"])
        idx.add_document("racing", "Race Condition", "two robots race over sugar",
                         tags=["PD_CommunicationAndCoordination"])
        idx.add_document("cooking", "Recipe Plan", "cooks schedule dinner tasks",
                         tags=["CS1"])
        return idx

    def test_basic_match(self, index):
        hits = index.search("sugar robots")
        assert [h.name for h in hits] == ["racing"]
        assert set(hits[0].matched_terms) == {"sugar", "robots"}

    def test_title_boost(self, index):
        index.add_document("mention", "Other", "sorting mentioned once in passing")
        hits = index.search("sorting")
        assert hits[0].name == "sorting"      # title hit outranks body hit

    def test_tag_tokens_searchable(self, index):
        hits = index.search("algorithms")
        assert [h.name for h in hits] == ["sorting"]

    def test_no_match(self, index):
        assert index.search("quantum") == []
        assert index.search("") == []
        assert index.search("the and of") == []

    def test_limit(self, index):
        hits = index.search("students robots cooks cards", limit=2)
        assert len(hits) == 2

    def test_duplicate_rejected(self, index):
        with pytest.raises(SiteError):
            index.add_document("sorting", "Again", "x")

    def test_suggest(self, index):
        assert "sort" in index.suggest("so")
        assert index.suggest("") == []

    def test_deterministic_order(self, index):
        a = index.search("students cards robots")
        b = index.search("students cards robots")
        assert a == b


class TestCorpusSearch:
    @pytest.fixture(scope="class")
    def index(self):
        from repro.activities import load_default_catalog

        return SearchIndex.from_catalog(load_default_catalog())

    def test_indexes_all_38(self, index):
        assert len(index) == 38

    def test_find_by_title_word(self, index):
        hits = index.search("byzantine")
        assert hits[0].name == "byzantinegenerals"

    def test_find_by_concept(self, index):
        names = [h.name for h in index.search("race condition sugar")]
        assert "juicesweeteningrobots" in names[:3]

    def test_find_by_material(self, index):
        """The accessibility use case: 'teach parallelism with a deck of cards'."""
        names = [h.name for h in index.search("deck of cards", limit=10)]
        assert "findsmallestcard" in names or "parallelcardsort" in names

    def test_find_by_curriculum_tag(self, index):
        names = [h.name for h in index.search("cloud computing")]
        assert set(names) & {"byzantinegenerals", "concerttickets", "gardeners"}

    def test_amdahl_query(self, index):
        hits = index.search("amdahl plateau road")
        assert hits[0].name == "roadtripamdahl"


class TestIncrementalIndex:
    @pytest.fixture()
    def index(self):
        idx = SearchIndex()
        idx.add_document("sorting", "Card Sorting", "students sort decks of cards",
                         tags=["TCPP_Algorithms"])
        idx.add_document("racing", "Race Condition", "two robots race over sugar",
                         tags=["PD_CommunicationAndCoordination"])
        return idx

    def test_remove_document_drops_postings(self, index):
        assert index.remove_document("racing")
        assert len(index) == 1
        assert index.search("sugar robots") == []
        assert index.search("cards")            # unaffected doc still found

    def test_remove_missing_is_false(self, index):
        assert not index.remove_document("nope")

    def test_remove_keeps_shared_tokens(self, index):
        index.add_document("sorting2", "More Sorting", "sort sort sort")
        index.remove_document("sorting2")
        assert index.search("sorting")          # token survives for first doc

    def test_update_document_replaces_postings(self, index):
        index.update_document("racing", "Race Condition",
                              "now about bicycles", tags=[])
        assert index.search("sugar") == []
        hits = index.search("bicycles")
        assert [h.name for h in hits] == ["racing"]

    def test_update_can_insert_new(self, index):
        index.update_document("fresh", "Fresh Doc", "entirely new words")
        assert [h.name for h in index.search("entirely")] == ["fresh"]

    def test_copy_is_independent(self, index):
        clone = index.copy()
        clone.remove_document("racing")
        assert len(index) == 2 and len(clone) == 1
        assert index.search("sugar")            # original postings untouched


class TestPatchedFromCatalog:
    def _results(self, idx, queries=("cards", "deadlock", "parallel",
                                    "message", "sort")):
        return {
            q: [(h.name, round(h.score, 9), h.matched_terms)
                for h in idx.search(q, limit=50)]
            for q in queries
        }

    def test_patch_equals_full_rebuild_after_edit(self, tmp_path):
        import shutil

        from repro.activities.catalog import Catalog, corpus_dir

        content = tmp_path / "content"
        shutil.copytree(corpus_dir(), content)
        old_catalog = Catalog.from_directory(content)
        old_index = SearchIndex.from_catalog(old_catalog)

        page = content / "gardeners.md"
        page.write_text(page.read_text(encoding="utf-8")
                        + "\nNew flowerbed deadlock discussion.\n",
                        encoding="utf-8")
        (content / "findsmallestcard.md").unlink()

        new_catalog = Catalog.from_directory(content)
        patched = old_index.patched_from_catalog(
            new_catalog, {"gardeners", "findsmallestcard"})
        scratch = SearchIndex.from_catalog(new_catalog)

        assert len(patched) == len(scratch)
        assert self._results(patched) == self._results(scratch)
        assert [h.name for h in patched.search("flowerbed")] == ["gardeners"]

    def test_patch_handles_added_document(self, tmp_path):
        import shutil

        from repro.activities.catalog import Catalog, corpus_dir

        content = tmp_path / "content"
        shutil.copytree(corpus_dir(), content)
        old_index = SearchIndex.from_catalog(Catalog.from_directory(content))

        source = (content / "gardeners.md").read_text(encoding="utf-8")
        (content / "zzznew.md").write_text(
            source.replace("title: ", "title: Zzz ", 1), encoding="utf-8")
        new_catalog = Catalog.from_directory(content)
        patched = old_index.patched_from_catalog(new_catalog, {"zzznew"})
        scratch = SearchIndex.from_catalog(new_catalog)
        assert len(patched) == len(scratch)
        assert self._results(patched) == self._results(scratch)

    def test_patch_does_not_mutate_original(self, tmp_path):
        import shutil

        from repro.activities.catalog import Catalog, corpus_dir

        content = tmp_path / "content"
        shutil.copytree(corpus_dir(), content)
        catalog = Catalog.from_directory(content)
        index = SearchIndex.from_catalog(catalog)
        before = self._results(index)
        (content / "gardeners.md").unlink()
        index.patched_from_catalog(Catalog.from_directory(content),
                                   {"gardeners"})
        assert self._results(index) == before


# -- the single build path against the frozen tokenize-based counting ------

_words = st.one_of(
    st.sampled_from(sorted(STOP_WORDS)),
    st.sampled_from(["Sorting", "PARALLEL", "deadlock", "K_12", "CS2013",
                     "PD_Parallelism", "naïve", "Straße", "İstanbul",
                     "\u212a", "ΣΑΣ", "x86_64", "2020"]),
    st.text(alphabet="abcXYZ019_-éİß\u212a", max_size=8),
)
_text = st.lists(_words, max_size=12).flatmap(
    lambda words: st.lists(st.sampled_from([" ", "\n", "_", "-", ", ", ""]),
                           min_size=len(words), max_size=len(words)).map(
        lambda seps: "".join(w + s for w, s in zip(words, seps))))
_doc = st.tuples(_text, _text, st.lists(_text, max_size=5))


def _snapshot(index):
    docs = {name: ({f: dict(c) for f, c in entry.field_counts.items()},
                   entry.length)
            for name, entry in index._docs.items()}
    return docs, index._postings


@settings(max_examples=300, deadline=None)
@given(st.lists(_doc, min_size=1, max_size=3))
def test_field_counts_match_oracle(docs):
    live, frozen = SearchIndex(), oracle.OracleIndex()
    for i, (title, body, tags) in enumerate(docs):
        live.add_document(f"d{i}", title, body, tags)
        frozen.add_document(f"d{i}", title, body, tags)
    assert _snapshot(live) == _snapshot(frozen)


_QUERIES = [parse_qs(path.partition("?")[2])["q"][0]
            for path in DEFAULT_API_PATHS if path.startswith("/api/search?")]


def _answers(index):
    prefixes = sorted({t[:n] for q in _QUERIES for t in tokenize(q)
                       for n in (1, 2, 3)})
    return (
        {q: [(h.name, h.score, h.matched_terms)
             for h in index.search(q, limit=len(index))] for q in _QUERIES},
        {p: index.suggest(p, limit=50) for p in prefixes},
    )


@pytest.fixture(scope="module")
def scaled_catalog(tmp_path_factory):
    """The 456-file corpus the ``fleet`` benchmark workload serves."""
    from perfbench.inputs import scaled_corpus
    from repro.activities.catalog import Catalog

    content = tmp_path_factory.mktemp("search") / "content"
    scaled_corpus(Path(__file__).resolve().parents[2], content, 12, 1)
    return Catalog.from_directory(content)


class TestAllCorpusMatchesOracle:
    def test_queries_cover_the_loadgen_searches(self):
        assert _QUERIES == ["cards", "parallel sorting", "deadlock"]

    def test_packaged_corpus(self):
        from repro.activities import load_default_catalog

        catalog = load_default_catalog()
        live = SearchIndex.from_catalog(catalog)
        assert _answers(live) == _answers(oracle.OracleIndex.from_catalog(catalog))
        assert _snapshot(live) == _snapshot(
            oracle.OracleIndex.from_catalog(catalog))

    def test_scaled_corpus(self, scaled_catalog):
        assert len(scaled_catalog) == 456
        live = SearchIndex.from_catalog(scaled_catalog)
        frozen = oracle.OracleIndex.from_catalog(scaled_catalog)
        assert _answers(live) == _answers(frozen)
        assert _snapshot(live) == _snapshot(frozen)


class TestTokensShared:
    def test_same_token_is_one_object_across_documents(self):
        index = SearchIndex()
        index.add_document("a", "Sorting cards", "parallel sorting")
        index.add_document("b", "Odd-even sort", "sorting networks",
                           tags=["PD_Sorting"])

        def keys(name, field):
            return {t: t for t in index._docs[name].field_counts[field]}

        token = keys("a", "body")["sorting"]
        assert keys("a", "title")["sorting"] is token
        assert keys("b", "body")["sorting"] is token
        assert keys("b", "tags")["sorting"] is token
        assert next(iter(t for t in index._postings if t == "sorting")) is token
