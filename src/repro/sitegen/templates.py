"""A minimal logic-light template engine (mustache dialect).

The site builder renders pages through templates so themes stay separate
from content, mirroring Hugo's layout system.  Supported syntax:

* ``{{ name }}`` -- HTML-escaped interpolation; dotted paths traverse
  mappings, object attributes, and list indices (``{{ item.0 }}``).
* ``{{{ name }}}`` -- raw (unescaped) interpolation, for pre-rendered HTML.
* ``{{# name }} ... {{/ name }}`` -- section: iterates a list (binding each
  element as the context), recurses into a mapping/object, or acts as a
  conditional for other truthy values.
* ``{{^ name }} ... {{/ name }}`` -- inverted section (rendered when the
  value is falsy or an empty list).
* ``{{> partial }}`` -- partial inclusion from the environment.
* ``{{! comment }}`` -- ignored.

Templates are compiled once to a node tree and can be rendered many times;
the site-build benchmark renders hundreds of pages per build.
"""

from __future__ import annotations

import html
import re
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any

from repro.errors import TemplateError

__all__ = ["Template", "TemplateEnvironment", "render"]

_TAG_RE = re.compile(r"\{\{(\{?)\s*([#^/>!]?)\s*([^}]*?)\s*\}\}(\})?")


@dataclass
class _Node:
    pass


@dataclass
class _TextNode(_Node):
    text: str


@dataclass
class _VarNode(_Node):
    path: str
    raw: bool


@dataclass
class _SectionNode(_Node):
    path: str
    inverted: bool
    children: list[_Node]


@dataclass
class _PartialNode(_Node):
    name: str


class Template:
    """A compiled template."""

    def __init__(self, source: str, name: str = "<template>"):
        self.name = name
        self.source = source
        self._nodes = self._compile(source)

    # -- compilation -------------------------------------------------------

    def _compile(self, source: str) -> list[_Node]:
        root: list[_Node] = []
        stack: list[tuple[str, list[_Node]]] = [("", root)]
        pos = 0
        for match in _TAG_RE.finditer(source):
            if match.start() > pos:
                stack[-1][1].append(_TextNode(source[pos : match.start()]))
            pos = match.end()
            triple_open, sigil, body, triple_close = match.groups()
            raw = bool(triple_open and triple_close)
            if triple_open and not triple_close:
                raise TemplateError(f"{self.name}: unbalanced triple mustache at {match.group(0)!r}")
            body = body.strip()
            if sigil == "!":
                continue
            if sigil == ">":
                stack[-1][1].append(_PartialNode(body))
            elif sigil in ("#", "^"):
                node = _SectionNode(body, sigil == "^", [])
                stack[-1][1].append(node)
                stack.append((body, node.children))
            elif sigil == "/":
                if len(stack) == 1:
                    raise TemplateError(f"{self.name}: closing unopened section {body!r}")
                open_name, _ = stack.pop()
                if open_name != body:
                    raise TemplateError(
                        f"{self.name}: section mismatch, opened {open_name!r} closed {body!r}"
                    )
            else:
                if not body:
                    raise TemplateError(f"{self.name}: empty interpolation tag")
                stack[-1][1].append(_VarNode(body, raw))
        if len(stack) != 1:
            raise TemplateError(f"{self.name}: unclosed section {stack[-1][0]!r}")
        if pos < len(source):
            root.append(_TextNode(source[pos:]))
        return root

    # -- static analysis ---------------------------------------------------

    def tag_positions(self) -> list[tuple[str, str, int, int]]:
        """Every mustache tag in source as ``(sigil, body, line, column)``.

        ``sigil`` is ``""`` for plain interpolation, else one of
        ``# ^ / > !``; positions are 1-based.  Used by the lint site pass
        to anchor diagnostics at the offending tag.
        """
        out: list[tuple[str, str, int, int]] = []
        for match in _TAG_RE.finditer(self.source):
            line = self.source.count("\n", 0, match.start()) + 1
            col = match.start() - self.source.rfind("\n", 0, match.start())
            out.append((match.group(2), match.group(3).strip(), line, col))
        return out

    def referenced_partials(self) -> list[str]:
        """Names of every ``{{> partial }}`` this template includes."""
        names: list[str] = []

        def walk(nodes: list[_Node]) -> None:
            for node in nodes:
                if isinstance(node, _PartialNode):
                    names.append(node.name)
                elif isinstance(node, _SectionNode):
                    walk(node.children)

        walk(self._nodes)
        return names

    def missing_references(
        self, context: Any, env: "TemplateEnvironment | None" = None
    ) -> list[tuple[str, str]]:
        """References that do not resolve against ``context``.

        Walks the node tree the way :meth:`render` does, but instead of
        producing output records every variable or section path for which
        :func:`_lookup` finds nothing, and every partial missing from
        ``env`` — as ``(kind, name)`` pairs with kind one of
        ``"variable"``, ``"section"``, ``"partial"``.  Sections binding a
        list are descended with the first element only (enough to type-check
        the loop body without rendering the whole site).
        """
        missing: list[tuple[str, str]] = []

        def walk(nodes: list[_Node], scopes: list[Any]) -> None:
            for node in nodes:
                if isinstance(node, _VarNode):
                    if _lookup(scopes, node.path) is None:
                        missing.append(("variable", node.path))
                elif isinstance(node, _PartialNode):
                    if env is None or node.name not in env:
                        missing.append(("partial", node.name))
                    else:
                        partial = env.get(node.name)
                        walk(partial._nodes, scopes)
                elif isinstance(node, _SectionNode):
                    value = _lookup(scopes, node.path)
                    if node.inverted:
                        # Testing for absence is an inverted section's job;
                        # an unresolved path is not suspicious here.
                        walk(node.children, scopes)
                        continue
                    if value is None:
                        missing.append(("section", node.path))
                        continue
                    if isinstance(value, (list, tuple)):
                        if value:
                            walk(node.children, scopes + [value[0]])
                    elif isinstance(value, bool):
                        walk(node.children, scopes)
                    else:
                        walk(node.children, scopes + [value])

        walk(self._nodes, [context] if context is not None else [])
        return missing

    # -- rendering ---------------------------------------------------------

    def render(self, context: Any = None, env: "TemplateEnvironment | None" = None) -> str:
        out: list[str] = []
        self._render_nodes(self._nodes, [context] if context is not None else [], env, out)
        return "".join(out)

    def _render_nodes(
        self,
        nodes: list[_Node],
        scopes: list[Any],
        env: "TemplateEnvironment | None",
        out: list[str],
    ) -> None:
        for node in nodes:
            if isinstance(node, _TextNode):
                out.append(node.text)
            elif isinstance(node, _VarNode):
                value = _lookup(scopes, node.path)
                if value is None:
                    continue
                text = value if isinstance(value, str) else str(value)
                out.append(text if node.raw else html.escape(text, quote=False))
            elif isinstance(node, _PartialNode):
                if env is None:
                    raise TemplateError(f"{self.name}: partial {node.name!r} used without an environment")
                partial = env.get(node.name)
                partial._render_nodes(partial._nodes, scopes, env, out)
            elif isinstance(node, _SectionNode):
                value = _lookup(scopes, node.path)
                truthy = _is_truthy(value)
                if node.inverted:
                    if not truthy:
                        self._render_nodes(node.children, scopes, env, out)
                    continue
                if not truthy:
                    continue
                if isinstance(value, (list, tuple)):
                    for item in value:
                        self._render_nodes(node.children, scopes + [item], env, out)
                elif isinstance(value, bool):
                    self._render_nodes(node.children, scopes, env, out)
                else:
                    self._render_nodes(node.children, scopes + [value], env, out)


def _is_truthy(value: Any) -> bool:
    if value is None:
        return False
    if isinstance(value, (list, tuple, str, dict)):
        return len(value) > 0
    return bool(value)


def _lookup(scopes: list[Any], path: str) -> Any:
    """Resolve a dotted path against the scope stack, innermost first."""
    if path == ".":
        return scopes[-1] if scopes else None
    head, *rest = path.split(".")
    for scope in reversed(scopes):
        value = _get(scope, head)
        if value is not _MISSING:
            for part in rest:
                value = _get(value, part)
                if value is _MISSING:
                    return None
            return value
    return None


class _Missing:
    def __repr__(self) -> str:  # pragma: no cover
        return "<missing>"


_MISSING = _Missing()


def _get(obj: Any, key: str) -> Any:
    if type(obj) is dict:  # render contexts are plain dicts: skip the ABC check
        return obj.get(key, _MISSING)
    if obj is None:
        return _MISSING
    if isinstance(obj, Mapping):
        return obj.get(key, _MISSING)
    if isinstance(obj, (list, tuple)):
        try:
            return obj[int(key)]
        except (ValueError, IndexError):
            return _MISSING
    if hasattr(obj, key):
        value = getattr(obj, key)
        return value() if callable(value) and getattr(value, "__self__", None) is obj and _is_simple_method(value) else value
    return _MISSING


def _is_simple_method(fn: Any) -> bool:
    """Only auto-call bound methods with no required arguments."""
    import inspect

    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):  # pragma: no cover - builtins
        return False
    return all(
        p.default is not inspect.Parameter.empty
        or p.kind in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        for p in sig.parameters.values()
    )


class TemplateEnvironment:
    """A named collection of templates supporting partial inclusion."""

    def __init__(self, templates: Mapping[str, str] | None = None):
        self._templates: dict[str, Template] = {}
        for name, source in (templates or {}).items():
            self.add(name, source)

    def add(self, name: str, source: str) -> Template:
        template = Template(source, name=name)
        self._templates[name] = template
        return template

    def get(self, name: str) -> Template:
        try:
            return self._templates[name]
        except KeyError:
            raise TemplateError(f"unknown template {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._templates

    def render(self, name: str, context: Any = None) -> str:
        return self.get(name).render(context, env=self)


def render(source: str, context: Any = None) -> str:
    """One-shot convenience render of a template string."""
    return Template(source).render(context)
