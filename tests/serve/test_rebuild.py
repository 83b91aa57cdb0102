"""Incremental rebuild tests: signature diffs, cache eviction, resilience."""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.activities.catalog import corpus_dir, scan_content
from repro.activities.parser import parse_activity_file
from repro.activities.writer import write_activity, write_activity_file
from repro.serve import ServeApp, create_app
from repro.serve.loadgen import call_app
from repro.serve.rebuild import RebuildManager, ServerState


@pytest.fixture()
def content(tmp_path):
    """A private editable copy of the corpus."""
    dst = tmp_path / "content"
    shutil.copytree(corpus_dir(), dst)
    return dst


def _bump(path):
    """Move a file's mtime strictly forward (coarse clocks swallow edits)."""
    stat = path.stat()
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1_000_000))


def touch_append(path, text):
    path.write_text(path.read_text(encoding="utf-8") + text, encoding="utf-8")
    _bump(path)


class TestScanContent:
    def test_fingerprint_tracks_edits(self, content):
        before = scan_content(content)
        touch_append(content / "gardeners.md", "\nExtra.\n")
        after = scan_content(content)
        assert before != after
        assert set(before) == set(after)
        changed = {k for k in before if before[k] != after[k]}
        assert changed == {"gardeners.md"}


class TestOneScanPerGeneration:
    """A generation stats each content file once: the catalog's own
    stat-before-read scan doubles as the change fingerprint."""

    @pytest.fixture()
    def stats(self, monkeypatch):
        from repro.activities import catalog as catalog_mod

        calls = []
        real = catalog_mod.file_fingerprint

        def counted(path):
            calls.append(path.name)
            return real(path)

        monkeypatch.setattr(catalog_mod, "file_fingerprint", counted)
        return calls

    def test_create_app_scans_once(self, content, stats):
        files = sorted(p.name for p in content.glob("*.md"))
        create_app(content_dir=content, watch=False)
        assert sorted(stats) == files

    def test_refresh_that_finds_a_change_scans_once(self, content, stats):
        files = sorted(p.name for p in content.glob("*.md"))
        manager = RebuildManager(content)
        assert sorted(stats) == files
        stats.clear()
        touch_append(content / "gardeners.md", "\nOne more note.\n")
        result = manager.refresh()
        assert result is not None and result.ok
        assert result.changed_sources == ["gardeners.md"]
        assert sorted(stats) == files
        stats.clear()
        assert manager.refresh() is None
        assert sorted(stats) == files


class TestRebuildManager:
    def test_no_change_is_noop(self, content):
        manager = RebuildManager(content)
        assert manager.refresh() is None

    def test_body_edit_dirties_only_that_page(self, content):
        manager = RebuildManager(content)
        touch_append(content / "gardeners.md", "\nAn extra teaching note.\n")
        result = manager.refresh()
        assert result is not None and result.ok
        assert result.changed_sources == ["gardeners.md"]
        assert result.dirty_urls == ["/activities/gardeners/"]

    def test_membership_edit_dirties_term_pages(self, content):
        manager = RebuildManager(content)
        path = content / "findsmallestcard.md"
        text = path.read_text(encoding="utf-8")
        # Drop the activity's "touch" sense: its page AND the senses term
        # listings change membership.
        assert '"touch"' in text
        path.write_text(text.replace('"touch", ', "", 1), encoding="utf-8")
        result = manager.refresh()
        assert result is not None and result.ok
        assert "/activities/findsmallestcard/" in result.dirty_urls
        assert "/senses/touch/" in result.dirty_urls
        # Untouched pages stay clean.
        assert "/activities/diningphilosophers/" not in result.dirty_urls

    def test_deleted_page_is_dirty(self, content):
        manager = RebuildManager(content)
        (content / "gardeners.md").unlink()
        result = manager.refresh()
        assert result is not None and result.ok
        assert "/activities/gardeners/" in result.dirty_urls
        assert "/" in result.dirty_urls              # home listing changed
        assert "gardeners" not in manager.state.catalog

    def test_broken_edit_keeps_old_generation(self, content):
        manager = RebuildManager(content)
        old_state = manager.state
        (content / "gardeners.md").write_text("---\nbroken: [\n")
        result = manager.refresh()
        assert result is not None and not result.ok
        assert manager.state is old_state
        assert manager.last_error is not None
        # Fixing the file recovers on the next refresh.
        shutil.copy(corpus_dir() / "gardeners.md", content / "gardeners.md")
        fixed = manager.refresh()
        assert fixed is not None and fixed.ok
        assert manager.last_error is None


class TestIncrementalStaticBuild:
    """The acceptance-criterion path: BuildStats proves minimal re-rendering."""

    def test_one_edit_rerenders_one_page(self, content, tmp_path):
        manager = RebuildManager(content)
        out = tmp_path / "site"
        full = manager.state.site.build(out)
        assert full.total_files == 170
        assert not full.incremental

        touch_append(content / "gardeners.md", "\nAn extra teaching note.\n")
        assert manager.refresh().ok
        stats = manager.state.site.build(out, incremental=True)
        assert stats.incremental
        assert stats.pages_rendered == 1             # just gardeners
        assert stats.terms_rendered == 0
        assert stats.total_skipped == 169

    def test_membership_edit_rerenders_affected_terms(self, content, tmp_path):
        manager = RebuildManager(content)
        out = tmp_path / "site"
        manager.state.site.build(out)

        path = content / "findsmallestcard.md"
        text = path.read_text(encoding="utf-8")
        assert '"touch"' in text
        path.write_text(text.replace('"touch", ', "", 1), encoding="utf-8")
        assert manager.refresh().ok
        stats = manager.state.site.build(out, incremental=True)
        assert stats.pages_rendered == 1             # the edited page
        assert 1 <= stats.terms_rendered < 15        # its term/view pages only
        assert stats.total_skipped > 150


class TestAppIntegration:
    def test_edit_invalidates_only_dirty_urls(self, content):
        app = create_app(content_dir=content, watch=False)
        assert isinstance(app, ServeApp)
        first = call_app(app, "/activities/gardeners/")
        call_app(app, "/activities/diningphilosophers/")
        call_app(app, "/activities/diningphilosophers/")  # now cached+hit

        touch_append(content / "gardeners.md", "\nAn extra teaching note.\n")
        assert app.background.run_once().ok
        edited = call_app(app, "/activities/gardeners/")
        assert edited.headers["X-Cache"] == "miss"       # evicted and re-rendered
        assert edited.etag != first.etag
        untouched = call_app(app, "/activities/diningphilosophers/")
        assert untouched.headers["X-Cache"] == "hit"     # survived the rebuild

    def test_stale_etag_no_longer_revalidates(self, content):
        app = create_app(content_dir=content, watch=False)
        first = call_app(app, "/activities/gardeners/")
        touch_append(content / "gardeners.md", "\nMore.\n")
        app.background.run_once()
        response = call_app(app, "/activities/gardeners/",
                            headers={"If-None-Match": first.etag})
        assert response.status == 200                    # content changed
        assert response.etag != first.etag

    def test_coverage_tables_follow_a_rebuild(self, content):
        """Tables I/II served from the cache before an edit are evicted
        by its rebuild: afterwards both routes answer what a fresh app
        answers, which is the analytics tables of the edited catalog."""
        from repro.activities.catalog import Catalog
        from repro.analytics import cs2013_coverage, tcpp_coverage

        routes = {"/api/coverage/cs2013": cs2013_coverage,
                  "/api/coverage/tcpp": tcpp_coverage}
        app = create_app(content_dir=content, watch=False)
        before = {}
        for url in routes:
            call_app(app, url)
            before[url] = call_app(app, url)
            assert before[url].headers["X-Cache"] == "hit"
        victim = next(a for a in Catalog.from_directory(content)
                      if a.cs2013 and a.tcpp)
        (content / f"{victim.name}.md").unlink()
        assert app.background.run_once().ok

        fresh = create_app(content_dir=content, watch=False)
        edited = Catalog.from_directory(content)
        try:
            for url, table in routes.items():
                after = call_app(app, url)
                assert after.body != before[url].body, url
                assert after.body == call_app(fresh, url).body, url
                rows = json.loads(after.body)["rows"]
                assert [(r["term"], r["covered"], r["activities"])
                        for r in rows] == \
                    [(r.term, r.num_covered, r.total_activities)
                     for r in table(edited)], url
        finally:
            fresh.close()
            app.close()


class TestOnePipeline:
    """Every app refreshes through its one BackgroundRebuilder, and its
    thread runs only when something can wake it."""

    def test_unwatched_app_has_a_rebuilder_and_no_thread(self, content):
        app = create_app(content_dir=content, watch=False)
        try:
            assert app.background is not None
            assert not app.background.running
        finally:
            app.close()

    def test_watched_app_runs_the_thread_until_close(self, content):
        app = create_app(content_dir=content, watch=True,
                         watch_interval_s=0.2)
        thread = app.background._thread
        assert app.background.running and thread.is_alive()
        app.close()
        assert not app.background.running
        assert not thread.is_alive()

    @pytest.mark.parametrize("watch", [False, True])
    def test_closed_app_is_freed_without_a_cyclic_collection(self, content,
                                                             watch):
        import gc
        import weakref

        app = create_app(content_dir=content, watch=watch)
        app.close()
        alive = weakref.ref(app)
        gc.disable()
        try:
            del app
            assert alive() is None
        finally:
            gc.enable()

    def test_unwatched_app_reports_a_closed_breaker(self, content):
        import json as _json

        app = create_app(content_dir=content, watch=False)
        try:
            ready = _json.loads(call_app(app, "/readyz").body)
            assert ready["breaker"] == "closed" and ready["ready"]
            metrics = _json.loads(call_app(app, "/api/metrics").body)
            thread = metrics["resilience"]["rebuild_thread"]
            assert thread["running"] is False
            assert thread["breaker"]["state"] == "closed"
        finally:
            app.close()

    @pytest.mark.parametrize("mode", ["inline", "per-request"])
    def test_only_the_background_rebuild_mode_is_accepted(self, content,
                                                          mode):
        with pytest.raises(ValueError, match="rebuild_mode"):
            create_app(content_dir=content, watch=False, rebuild_mode=mode)


class TestBackgroundPolling:
    """With ``watch=True`` the rebuild thread is the only thing that
    starts a scan, at most once per watch interval: requests never wake
    it, however many there are."""

    INTERVAL_S = 0.2

    @pytest.fixture()
    def scans(self, monkeypatch):
        from repro.serve import rebuild as rebuild_mod

        calls = []
        real = rebuild_mod.scan_content

        def counted(content_dir):
            calls.append(time.monotonic())
            return real(content_dir)

        monkeypatch.setattr(rebuild_mod, "scan_content", counted)
        return calls

    def make_app(self, content):
        return create_app(content_dir=content, watch=True,
                          watch_interval_s=self.INTERVAL_S)

    def test_steady_traffic_scans_once_per_interval(self, content, scans):
        app = self.make_app(content)
        try:
            paths = ["/", "/activities/gardeners/", "/api/activities",
                     "/api/search?q=sorting"]
            requests = 0
            started = time.monotonic()
            while time.monotonic() - started < 1.0:
                assert call_app(app, paths[requests % len(paths)]).status == 200
                requests += 1
            elapsed = time.monotonic() - started
        finally:
            app.close()
        assert requests > 100                 # the traffic was steady
        # One scan per interval, plus one for each partial interval at
        # either end; a request-driven poke rescans after every 50 ms
        # debounce instead.
        assert 1 <= len(scans) <= elapsed / self.INTERVAL_S + 2

    def test_edit_is_visible_after_one_poll_without_requests(self, content):
        app = self.make_app(content)
        try:
            before = app.state
            attempts = app.background.stats()["attempts"]
            touch_append(content / "gardeners.md", "\nPolled in.\n")
            deadline = time.monotonic() + 5.0
            while app.state is before:
                assert time.monotonic() < deadline, "edit never picked up"
                time.sleep(0.01)
            # The poll after the edit (or the one after that, when the
            # edit raced a scan already under way) rebuilt it.
            assert app.background.stats()["attempts"] - attempts <= 2
            page = call_app(app, "/activities/gardeners/")
            assert page.status == 200 and b"Polled in." in page.body
        finally:
            app.close()


class TestIncrementalSearchPatch:
    def test_refresh_patches_instead_of_rebuilding(self, content):
        manager = RebuildManager(content)
        old_index = manager.state.search
        touch_append(content / "gardeners.md",
                     "\nA sentence about xylophones.\n")
        result = manager.refresh()
        assert result is not None and result.ok
        assert result.search_patched == 1
        assert manager.state.search is not old_index

    def test_patched_index_matches_fresh_index(self, content):
        from repro.sitegen.search import SearchIndex

        manager = RebuildManager(content)
        touch_append(content / "gardeners.md",
                     "\nA sentence about xylophones.\n")
        manager.refresh()

        patched = manager.state.search
        scratch = SearchIndex.from_catalog(manager.state.catalog)
        assert len(patched) == len(scratch)
        for query in ("xylophones", "cards", "parallel", "sort"):
            assert (
                [(h.name, round(h.score, 9)) for h in patched.search(query)]
                == [(h.name, round(h.score, 9)) for h in scratch.search(query)]
            ), query

    def test_old_generation_index_not_mutated(self, content):
        manager = RebuildManager(content)
        old_index = manager.state.search
        assert old_index.search("xylophones") == []
        touch_append(content / "gardeners.md",
                     "\nA sentence about xylophones.\n")
        manager.refresh()
        assert old_index.search("xylophones") == []      # copy-on-patch
        assert manager.state.search.search("xylophones")

    def test_removed_source_leaves_search(self, content):
        manager = RebuildManager(content)
        (content / "gardeners.md").unlink()
        result = manager.refresh()
        assert result is not None and result.ok
        assert result.search_patched == 1
        names = {h.name for h in manager.state.search.search("gardeners")}
        assert "gardeners" not in names     # other docs may cite the word

    def test_search_api_reflects_patch(self, content):
        app = create_app(content_dir=content, watch=False)
        touch_append(content / "gardeners.md",
                     "\nA sentence about xylophones.\n")
        app.background.run_once()
        response = call_app(app, "/api/search?q=xylophones")
        assert response.status == 200
        import json as _json

        payload = _json.loads(response.body)
        assert [h["name"] for h in payload["hits"]] == ["gardeners"]


# -- incremental vs from-scratch generations ---------------------------------

#: Fixed queries compared between the incremental and the fresh index.
QUERIES = ("parallel", "cards", "sort", "leader election", "touch",
           "revised", "xylophones")


def _rewrite(content, name, **changes):
    """Rewrite one activity file with some fields replaced."""
    path = content / f"{name}.md"
    activity = dataclasses.replace(parse_activity_file(path), **changes)
    path.write_text(write_activity(activity), encoding="utf-8")
    _bump(path)


def _render_all(state):
    return {task.url: task.render().encode("utf-8") for task in state.plan}


def _postings(index):
    """Everything a search answers from: each token's documents, and each
    document's title, per-field token counts and length."""
    return ({token: frozenset(names) for token, names in index._postings.items()},
            {name: (doc.title, {f: dict(c) for f, c in doc.field_counts.items()},
                    doc.length)
             for name, doc in index._docs.items()})


def _snapshot(state):
    """The bytes of every URL and the full postings of one generation."""
    return _render_all(state), _postings(state.search)


def _assert_refresh_exact(old, before, new, content):
    """``new``, refreshed from ``old``, is the generation a build from
    scratch makes of ``content``.

    ``before`` is ``old``'s :func:`_snapshot` from ahead of the swap:
    ``old`` must still render and search exactly as it did (workers may
    still serve it while the new one shares its pages, terms and posting
    sets).  Every URL whose signature did not move renders the same
    bytes in both generations, so the dirty URLs cover every changed
    byte.  Returns ``new``'s snapshot.
    """
    assert _snapshot(old) == before
    new.site.check()
    fresh = ServerState.from_content_dir(content)
    assert new.catalog.names == fresh.catalog.names
    assert new.catalog.activities == fresh.catalog.activities
    assert [t.url for t in new.plan] == [t.url for t in fresh.plan]
    assert new.signatures == fresh.signatures
    assert new.corpus_signature == fresh.corpus_signature
    after = _snapshot(new)
    assert after[0] == _render_all(fresh)
    assert after[1] == _postings(fresh.search)
    for query in QUERIES:
        assert (
            [(h.name, h.title, round(h.score, 9), h.matched_terms)
             for h in new.search.search(query)]
            == [(h.name, h.title, round(h.score, 9), h.matched_terms)
                for h in fresh.search.search(query)]
        ), query
    for url, signature in new.signatures.items():
        if old.signatures.get(url) == signature:
            assert after[0][url] == before[0][url], url
    return after


#: Five activities with varied terms, for the differential test.
SMALL_CORPUS = ("diningphilosophers", "findsmallestcard", "gardeners",
                "parallelcardsort", "rhythmclapsimd")


class _Editor:
    """Applies one kind of edit to one activity file of a content dir.

    Each write gets a strictly newer mtime than the one before, so no
    edit hides behind a coarse clock.  Titles and terms come from small
    pools, so pages share titles and terms gain and lose members.
    """

    KINDS = ("body", "title", "tag-add", "tag-drop", "new", "delete",
             "rename")
    TITLES = ("Alpha", "beta", "Alpha", "Zeta Revised")
    AXES = ("cs2013", "cs2013details", "tcpp", "tcppdetails", "courses",
            "senses", "medium")

    def __init__(self, content):
        self.content = content
        self.stamp = time.time_ns()
        self.count = 0
        terms = {axis: set() for axis in self.AXES}
        for path in self.files():
            activity = parse_activity_file(path)
            for axis in self.AXES:
                terms[axis].update(getattr(activity, axis))
        self.terms = {axis: sorted(used) + [f"zz{axis}"]
                      for axis, used in terms.items()}

    def files(self):
        return sorted(self.content.glob("*.md"))

    def touch(self, path):
        self.stamp = max(time.time_ns(), self.stamp + 1_000_000)
        os.utime(path, ns=(self.stamp, self.stamp))

    def write(self, activity):
        self.touch(write_activity_file(activity, self.content))

    def apply(self, kind, pick, choice=0):
        """Apply ``kind`` to the ``pick``-th file (modulo the count);
        ``choice`` picks the title, axis and term.  Returns whether the
        content changed."""
        files = self.files()
        path = files[pick % len(files)]
        activity = parse_activity_file(path)
        self.count += 1
        if kind == "body":
            sections = dict(activity.sections)
            heading = sorted(sections)[choice % len(sections)]
            sections[heading] += f"\nA note on xylophones, take {self.count}.\n"
            self.write(dataclasses.replace(activity, sections=sections))
        elif kind == "title":
            title = self.TITLES[choice % len(self.TITLES)]
            self.write(dataclasses.replace(activity, title=title))
        elif kind in ("tag-add", "tag-drop"):
            axis = self.AXES[choice % len(self.AXES)]
            have = list(getattr(activity, axis))
            if kind == "tag-add":
                pool = [t for t in self.terms[axis] if t not in have]
                have.append(pool[choice % len(pool)])
            elif have:
                del have[choice % len(have)]
            else:
                return False
            self.write(dataclasses.replace(activity, **{axis: have}))
        elif kind == "new":
            self.write(dataclasses.replace(
                activity, name=f"{activity.name}n{self.count}"))
        elif len(files) == 1:
            return False
        elif kind == "delete":
            path.unlink()
        else:
            path.rename(self.content / f"{path.stem}r{self.count}.md")
        return True


def _scaled_corpus(content, copies):
    """The packaged activities ``copies`` times over, with new slugs and
    titles; about half the copies swap one medium term, so copies do
    not all share the same term pages."""
    sources = [parse_activity_file(path) for path in sorted(content.glob("*.md"))]
    mediums = sorted({m for a in sources for m in a.medium})
    rng = random.Random(456)
    for k in range(1, copies):
        for activity in sources:
            medium = list(activity.medium)
            if medium and rng.random() < 0.5:
                medium[-1] = rng.choice([m for m in mediums if m not in medium])
            write_activity_file(dataclasses.replace(
                activity, name=f"{activity.name}c{k}",
                title=f"{activity.title} {k}", medium=medium), content)
    return len(sources) * copies


class TestIncrementalMatchesFromScratch:
    """Every refreshed generation equals one built from scratch."""

    @pytest.fixture()
    def parses(self, monkeypatch):
        """Activities returned by each parse, in call order."""
        import repro.activities.catalog as catalog_mod

        calls = []
        original = catalog_mod.parse_activity_file

        def counting(path):
            activity = original(path)
            calls.append(activity)
            return activity

        monkeypatch.setattr(catalog_mod, "parse_activity_file", counting)
        return calls

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_edit_script(self, content, parses, seed):
        manager = RebuildManager(content)
        names = sorted(path.stem for path in content.glob("*.md"))
        random.Random(seed).shuffle(names)
        picks = iter(names)
        snapshot = _snapshot(manager.state)

        def refresh_ok(expect_parses):
            nonlocal snapshot
            old = manager.state
            del parses[:]
            result = manager.refresh()
            assert result is not None and result.ok, result and result.error
            assert len(parses) == expect_parses
            snapshot = _assert_refresh_exact(old, snapshot, manager.state,
                                             content)
            return result
        # A body edit reparses exactly the edited file.
        body = next(picks)
        touch_append(content / f"{body}.md", "\nAn extra teaching note.\n")
        assert refresh_ok(expect_parses=1).dirty_urls == \
            [f"/activities/{body}/"]
        # Unchanged activities and their pages are carried over.
        kept = next(picks)
        previous = manager.state
        _rewrite(content, kept, title="Retitled Revised")
        refresh_ok(expect_parses=1)
        other = next(n for n in names if n not in (body, kept))
        assert manager.state.catalog.get(other) is \
            previous.catalog.get(other)
        assert manager.state.site.page(other) is previous.site.page(other)
        assert manager.state.site.page(kept) is not previous.site.page(kept)

        # A tag add and a tag drop.
        added = next(picks)
        senses = parse_activity_file(content / f"{added}.md").senses
        extra = next(s for s in ("sound", "movement", "visual", "touch")
                     if s not in senses)
        _rewrite(content, added, senses=[*senses, extra])
        refresh_ok(expect_parses=1)
        dropped = next(n for n in picks
                       if parse_activity_file(content / f"{n}.md").courses)
        courses = parse_activity_file(content / f"{dropped}.md").courses
        _rewrite(content, dropped, courses=courses[:-1])
        refresh_ok(expect_parses=1)

        # A new file, then a deletion.
        source = next(picks)
        copy = parse_activity_file(content / f"{source}.md")
        write_activity_file(
            dataclasses.replace(copy, name=f"{source}copy",
                                title=f"{copy.title} Copy"), content)
        refresh_ok(expect_parses=1)
        (content / f"{next(picks)}.md").unlink()
        refresh_ok(expect_parses=0)

        # A touch that bumps the mtime only: reparsed, nothing dirty.
        touched = next(picks)
        _bump(content / f"{touched}.md")
        assert refresh_ok(expect_parses=1).dirty_urls == []

        # A broken edit beside a good one fails closed, and the retry
        # after the fix reuses nothing from the failed parse.
        good, broken = sorted((next(picks), next(picks)))
        touch_append(content / f"{good}.md", "\nA note on xylophones.\n")
        broken_path = content / f"{broken}.md"
        saved = broken_path.read_text(encoding="utf-8")
        broken_path.write_text("---\nbroken: [\n", encoding="utf-8")
        live = manager.state
        del parses[:]
        failed = manager.refresh()
        assert failed is not None and not failed.ok
        assert manager.state is live
        from_failed = list(parses)
        assert [a.name for a in from_failed] == [good]
        broken_path.write_text(saved, encoding="utf-8")
        _bump(broken_path)
        refresh_ok(expect_parses=2)
        assert all(manager.state.catalog.get(a.name) is not a
                   for a in from_failed)

    def test_edit_kinds_on_a_456_file_corpus(self, content, monkeypatch):
        """One edit of each kind on the corpus size ``fleet`` serves.

        Markdown bodies render through a memo keyed on the body text
        (the render is a function of it alone), or this test would spend
        most of its time re-rendering unchanged bodies."""
        from repro.sitegen import site as site_mod

        html = functools.lru_cache(maxsize=None)(site_mod.markdown.render_html)
        monkeypatch.setattr(site_mod.Page, "content_html",
                            lambda page: html(page.body))
        assert _scaled_corpus(content, 12) == 456
        manager = RebuildManager(content)
        editor = _Editor(content)
        snapshot = _snapshot(manager.state)
        # The tag edits add a medium term and drop a sense, as an author
        # retagging an activity does (choice indexes _Editor.AXES).
        choices = {"tag-add": 6, "tag-drop": 5}
        for step, kind in enumerate(_Editor.KINDS):
            assert editor.apply(kind, pick=step * 61,
                                choice=choices.get(kind, step))
            old = manager.state
            result = manager.refresh()
            assert result is not None and result.ok, result and result.error
            snapshot = _assert_refresh_exact(old, snapshot, manager.state,
                                             content)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_Editor.KINDS),
                              st.integers(0, 40), st.integers(0, 40)),
                    min_size=1, max_size=6))
    def test_random_edit_sequences(self, edits):
        """Differential: any sequence of edits on a small corpus keeps
        every generation equal to a build from scratch."""
        with tempfile.TemporaryDirectory() as tmp:
            content = Path(tmp) / "content"
            content.mkdir()
            for name in SMALL_CORPUS:
                shutil.copy(corpus_dir() / f"{name}.md", content)
            manager = RebuildManager(content)
            editor = _Editor(content)
            snapshot = _snapshot(manager.state)
            for kind, pick, choice in edits:
                if not editor.apply(kind, pick, choice):
                    continue
                old = manager.state
                result = manager.refresh()
                assert result is not None and result.ok, result and result.error
                snapshot = _assert_refresh_exact(old, snapshot, manager.state,
                                                 content)

    def test_readers_of_old_generations_during_refreshes(self, content):
        """Threads render whichever generation is live while refreshes
        swap in new ones that share its activities and pages; every
        render must equal a render of the same generation made after
        the threads stop."""
        manager = RebuildManager(content)
        urls = ["/", "/activities/gardeners/", "/senses/touch/",
                "/activities/findsmallestcard/"]
        seen, stop = [], threading.Event()

        def reader(offset):
            i = offset
            while not stop.is_set():
                state = manager.state
                url = urls[i % len(urls)]
                seen.append((state, url,
                             state.plan_by_url[url].render()))
                i += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=reader, args=(n,), daemon=True)
                   for n in range(4)]
        try:
            for thread in threads:
                thread.start()
            for n in range(5):
                touch_append(content / "gardeners.md", f"\nNote {n}.\n")
                assert manager.refresh().ok
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        bodies = {}
        for state, url, body in seen:
            bodies.setdefault((state, url), set()).add(body)
        assert len({state for state, _ in bodies}) > 1
        for (state, url), renders in bodies.items():
            assert renders == {state.plan_by_url[url].render()}, url
