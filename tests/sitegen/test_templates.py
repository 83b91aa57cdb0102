"""Template engine tests: interpolation, sections, partials, errors."""

from __future__ import annotations

import pytest

from repro.errors import TemplateError
from repro.sitegen.templates import Template, TemplateEnvironment, render


class TestInterpolation:
    def test_simple_variable(self):
        assert render("Hello {{ name }}!", {"name": "World"}) == "Hello World!"

    def test_html_escaped_by_default(self):
        assert render("{{ x }}", {"x": "<b>&"}) == "&lt;b&gt;&amp;"

    def test_triple_mustache_raw(self):
        assert render("{{{ x }}}", {"x": "<b>"}) == "<b>"

    def test_missing_variable_renders_empty(self):
        assert render("[{{ missing }}]", {}) == "[]"

    def test_dotted_path_through_dicts(self):
        assert render("{{ a.b.c }}", {"a": {"b": {"c": 42}}}) == "42"

    def test_non_dict_mapping_context_resolves(self):
        from types import MappingProxyType

        ctx = MappingProxyType({"a": MappingProxyType({"b": "deep"}), "x": 1})
        assert render("{{ a.b }}/{{ x }}/[{{ nope }}]", ctx) == "deep/1/[]"

    def test_dotted_path_through_attributes(self):
        class Obj:
            value = "attr"
        assert render("{{ o.value }}", {"o": Obj()}) == "attr"

    def test_list_index_path(self):
        assert render("{{ xs.1 }}", {"xs": ["a", "b"]}) == "b"

    def test_dot_is_current_context(self):
        assert render("{{# xs }}{{ . }},{{/ xs }}", {"xs": [1, 2]}) == "1,2,"

    def test_comment_ignored(self):
        assert render("a{{! this is a comment }}b", {}) == "ab"


class TestSections:
    def test_list_iteration(self):
        out = render("{{# items }}[{{ name }}]{{/ items }}",
                     {"items": [{"name": "x"}, {"name": "y"}]})
        assert out == "[x][y]"

    def test_truthy_conditional(self):
        assert render("{{# on }}yes{{/ on }}", {"on": True}) == "yes"
        assert render("{{# on }}yes{{/ on }}", {"on": False}) == ""

    def test_empty_list_skipped(self):
        assert render("{{# xs }}never{{/ xs }}", {"xs": []}) == ""

    def test_inverted_section(self):
        assert render("{{^ xs }}empty{{/ xs }}", {"xs": []}) == "empty"
        assert render("{{^ xs }}empty{{/ xs }}", {"xs": [1]}) == ""

    def test_dict_section_pushes_scope(self):
        out = render("{{# user }}{{ name }}{{/ user }}", {"user": {"name": "Ada"}})
        assert out == "Ada"

    def test_outer_scope_visible_inside_section(self):
        out = render("{{# inner }}{{ outer }}{{/ inner }}",
                     {"inner": {"x": 1}, "outer": "seen"})
        assert out == "seen"

    def test_nested_sections(self):
        ctx = {"rows": [{"cells": [1, 2]}, {"cells": [3]}]}
        out = render("{{# rows }}({{# cells }}{{ . }}{{/ cells }}){{/ rows }}", ctx)
        assert out == "(12)(3)"


class TestPartialsAndErrors:
    def test_partial_inclusion(self):
        env = TemplateEnvironment({
            "page": "header|{{> body }}|footer",
            "body": "content={{ x }}",
        })
        assert env.render("page", {"x": 9}) == "header|content=9|footer"

    def test_partial_without_env_rejected(self):
        with pytest.raises(TemplateError, match="without an environment"):
            Template("{{> p }}").render({})

    def test_unknown_partial_rejected(self):
        env = TemplateEnvironment({"page": "{{> ghost }}"})
        with pytest.raises(TemplateError, match="unknown template"):
            env.render("page", {})

    def test_unclosed_section_rejected(self):
        with pytest.raises(TemplateError, match="unclosed"):
            Template("{{# open }}never closed")

    def test_mismatched_section_rejected(self):
        with pytest.raises(TemplateError, match="mismatch"):
            Template("{{# a }}{{/ b }}")

    def test_close_without_open_rejected(self):
        with pytest.raises(TemplateError, match="unopened"):
            Template("{{/ a }}")

    def test_empty_tag_rejected(self):
        with pytest.raises(TemplateError, match="empty"):
            Template("{{ }}")

    def test_template_reusable(self):
        t = Template("{{ n }}")
        assert t.render({"n": 1}) == "1"
        assert t.render({"n": 2}) == "2"
