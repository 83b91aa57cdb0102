"""Site builder tests: pages, chips, term pages, full builds."""

from __future__ import annotations

import pytest

from repro.errors import SiteError
from repro.sitegen.site import Page, Site, SiteConfig

DOC = """---
title: "FindSmallestCard"
cs2013: ["PD_ParallelDecomposition", "PD_ParallelAlgorithms"]
tcpp: ["TCPP_Algorithms", "TCPP_Programming"]
courses: ["CS1", "CS2", "DSA"]
senses: ["touch", "visual"]
cs2013details: ["PD_3"]
medium: ["cards"]
---

## Original Author/link

Bachelis et al.
"""


@pytest.fixture()
def site():
    s = Site()
    s.add_page(Page.from_text("findsmallestcard", DOC))
    s.add_page(
        Page.from_text(
            "other",
            '---\ntitle: "Other"\nsenses: ["touch"]\n---\n\n## Original Author/link\n\nX\n',
        )
    )
    return s


class TestPage:
    def test_from_text_parses_header(self):
        page = Page.from_text("findsmallestcard", DOC)
        assert page.title == "FindSmallestCard"
        assert page.terms("senses") == ["touch", "visual"]
        assert page.url == "/activities/findsmallestcard/"

    def test_content_html(self):
        page = Page.from_text("x", DOC)
        assert "<h2>Original Author/link</h2>" in page.content_html()

    def test_title_defaults_to_name(self):
        page = Page.from_text("slug", "---\n---\nbody")
        assert page.title == "slug"

    def test_from_file(self, tmp_path):
        f = tmp_path / "act.md"
        f.write_text(DOC)
        page = Page.from_file(f)
        assert page.name == "act"


class TestRendering:
    def test_header_chips_show_visible_taxonomies_only(self, site):
        """Fig. 3: chips for cs2013/tcpp/courses/senses, colored per taxonomy;
        hidden taxonomies (medium, cs2013details) never produce chips."""
        html = site.render_page(site.page("findsmallestcard"))
        assert 'data-taxonomy="cs2013"' in html
        assert "PD_ParallelDecomposition" in html
        assert 'chip-blue' in html and 'chip-purple' in html
        assert 'data-taxonomy="medium"' not in html
        assert 'data-taxonomy="cs2013details"' not in html

    def test_chip_links_to_term_page(self, site):
        html = site.render_page(site.page("findsmallestcard"))
        assert 'href="/senses/touch/"' in html

    def test_term_page_lists_sharing_pages(self, site):
        html = site.render_term_page("senses", "touch")
        assert "FindSmallestCard" in html and "Other" in html

    def test_taxonomy_index_page(self, site):
        html = site.render_taxonomy_index("senses")
        assert "touch" in html and "(2)" in html

    def test_home_lists_all(self, site):
        html = site.render_home()
        assert "FindSmallestCard" in html and "Other" in html


class TestBuild:
    def test_full_build_layout(self, site, tmp_path):
        stats = site.build(tmp_path)
        assert (tmp_path / "index.html").exists()
        assert (tmp_path / "activities" / "findsmallestcard" / "index.html").exists()
        assert (tmp_path / "senses" / "touch" / "index.html").exists()
        assert (tmp_path / "cs2013" / "pd_parallelalgorithms" / "index.html").exists()
        assert stats.total_files > 5
        assert stats.duration_s >= 0

    def test_every_chip_target_exists(self, site, tmp_path):
        """No dangling term links: each chip href has a rendered page."""
        import re

        site.build(tmp_path)
        html = (tmp_path / "activities" / "findsmallestcard" / "index.html").read_text()
        for href in re.findall(r'href="(/[^"]+/)"', html):
            target = tmp_path / href.strip("/") / "index.html"
            assert target.exists(), href

    def test_duplicate_page_rejected(self, site):
        with pytest.raises(SiteError, match="duplicate"):
            site.add_page(Page.from_text("other", "---\ntitle: \"O\"\n---\n"))

    def test_duplicate_leaves_site_unchanged(self, site):
        original = site.page("other")
        with pytest.raises(SiteError, match="duplicate page name 'other'"):
            site.add_page(Page.from_text("other", "---\ntitle: \"O\"\n---\n"))
        assert site.page("other") is original
        assert [p.name for p in site.pages] == ["findsmallestcard", "other"]

    def test_page_lookup(self, site):
        assert site.page("findsmallestcard").title == "FindSmallestCard"
        with pytest.raises(SiteError, match="no page named 'missing'"):
            site.page("missing")

    def test_missing_content_dir_rejected(self):
        with pytest.raises(SiteError, match="does not exist"):
            Site().load_content("/nonexistent/path")

    def test_load_content_dir(self, tmp_path):
        (tmp_path / "activities").mkdir()
        (tmp_path / "activities" / "a.md").write_text(DOC)
        s = Site()
        assert s.load_content(tmp_path) == 1
        assert s.page("a").title == "FindSmallestCard"

    def test_theme_missing_template_rejected(self):
        with pytest.raises(SiteError, match="missing required template"):
            Site(theme={"base": "x"})

    def test_check_runs_invariants(self, site):
        site.check()


class TestRenderPlan:
    def test_plan_covers_every_output(self, site, tmp_path):
        plan = site.render_plan()
        stats = site.build(tmp_path / "out")
        assert len(plan) == stats.total_files
        assert len({t.rel_path for t in plan}) == len(plan)

    def test_urls_derived_from_paths(self, site):
        by_path = {t.rel_path: t for t in site.render_plan()}
        assert by_path["index.html"].url == "/"
        assert by_path["activities/findsmallestcard/index.html"].url == \
            "/activities/findsmallestcard/"

    def test_signatures_stable_across_instances(self):
        a, b = Site(), Site()
        for s in (a, b):
            s.add_page(Page.from_text("findsmallestcard", DOC))
        sigs_a = {t.rel_path: t.signature for t in a.render_plan()}
        sigs_b = {t.rel_path: t.signature for t in b.render_plan()}
        assert sigs_a == sigs_b

    def test_signature_tracks_content(self):
        a, b = Site(), Site()
        a.add_page(Page.from_text("findsmallestcard", DOC))
        b.add_page(Page.from_text("findsmallestcard", DOC + "\nExtra.\n"))
        sig = {t.rel_path: t.signature for t in a.render_plan()}
        sig_b = {t.rel_path: t.signature for t in b.render_plan()}
        changed = {p for p in sig if sig[p] != sig_b[p]}
        assert changed == {"activities/findsmallestcard/index.html"}

    def test_theme_change_dirties_everything(self):
        from repro.sitegen.site import DEFAULT_THEME

        theme = dict(DEFAULT_THEME)
        theme["base"] = theme["base"].replace("<!DOCTYPE html>", "<!DOCTYPE html><!-- v2 -->")
        a, b = Site(), Site(theme=theme)
        a.add_page(Page.from_text("findsmallestcard", DOC))
        b.add_page(Page.from_text("findsmallestcard", DOC))
        sig_a = {t.rel_path: t.signature for t in a.render_plan()}
        sig_b = {t.rel_path: t.signature for t in b.render_plan()}
        assert all(sig_a[p] != sig_b[p] for p in sig_a)

    def test_shared_page_signature_follows_theme_and_config(self):
        """A Page reused by sites with other settings is re-signed per site."""
        from dataclasses import replace

        from repro.sitegen.site import DEFAULT_THEME
        from repro.sitegen.taxonomy import DEFAULT_TAXONOMIES

        theme = dict(DEFAULT_THEME)
        theme["chips"] = theme["chips"].replace("activity-header", "chips-v2")
        recolored = tuple(
            replace(t, color="red") if t.name == "senses" else t
            for t in DEFAULT_TAXONOMIES
        )
        shared = Page.from_text("findsmallestcard", DOC)
        rel = "activities/findsmallestcard/index.html"

        def signature(page, **site_args):
            site = Site(**site_args)
            site.add_page(page)
            return {t.rel_path: t.signature for t in site.render_plan()}[rel]

        settings = [{}, {"theme": theme},
                    {"config": SiteConfig(taxonomies=recolored)}, {}]
        reused = [signature(shared, **kw) for kw in settings]
        fresh = [signature(Page.from_text("findsmallestcard", DOC), **kw)
                 for kw in settings]
        assert reused == fresh
        assert len(set(reused[:3])) == 3


class TestIncrementalBuild:
    def test_noop_rebuild_skips_everything(self, site, tmp_path):
        out = tmp_path / "out"
        full = site.build(out)
        second = site.build(out, incremental=True)
        assert second.total_files == 0
        assert second.total_skipped == full.total_files
        assert second.incremental

    def test_full_build_ignores_signatures(self, site, tmp_path):
        out = tmp_path / "out"
        first = site.build(out)
        again = site.build(out)                 # incremental=False
        assert again.total_files == first.total_files

    def test_missing_output_file_rerendered(self, site, tmp_path):
        out = tmp_path / "out"
        site.build(out)
        (out / "index.html").unlink()
        stats = site.build(out, incremental=True)
        assert stats.pages_rendered == 1        # just the home page

    def test_seeded_signatures_carry_over(self, site, tmp_path):
        out = tmp_path / "out"
        site.build(out)
        clone = Site()
        clone.add_page(Page.from_text("findsmallestcard", DOC))
        clone.add_page(Page.from_text(
            "other",
            '---\ntitle: "Other"\nsenses: ["touch"]\n---\n\n## Original Author/link\n\nX\n',
        ))
        clone.seed_signatures(site.built_signatures)
        stats = clone.build(out, incremental=True)
        assert stats.total_files == 0

    def test_removed_page_outputs_deleted(self, tmp_path):
        out = tmp_path / "out"
        two = Site()
        two.add_page(Page.from_text("findsmallestcard", DOC))
        two.add_page(Page.from_text(
            "other",
            '---\ntitle: "Other"\nsenses: ["touch"]\n---\n\n## Original Author/link\n\nX\n',
        ))
        two.build(out)
        assert (out / "activities" / "other" / "index.html").exists()

        one = Site()
        one.add_page(Page.from_text("findsmallestcard", DOC))
        one.seed_signatures(two.built_signatures)
        stats = one.build(out, incremental=True)
        assert stats.files_removed >= 1
        assert not (out / "activities" / "other" / "index.html").exists()
