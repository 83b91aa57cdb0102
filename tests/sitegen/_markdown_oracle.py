"""Frozen copy of the inline Markdown parser as it was before run scanning.

Test-only oracle for the differential tests in ``test_markdown.py``: the
live :func:`repro.sitegen.markdown.parse_inlines` must build the same
nodes as this one-character-per-iteration reference for every input.
Nothing under ``src/`` imports this module; do not edit it to match the
live parser.
"""

from __future__ import annotations

import re

from repro.sitegen.markdown import (
    CodeSpan,
    Emphasis,
    HardBreak,
    Image,
    Inline,
    Link,
    Strong,
    Text,
)

_AUTOLINK_RE = re.compile(r"<(https?://[^ >]+)>")


def parse_inlines(text: str) -> list[Inline]:
    """Parse inline Markdown into a list of :class:`Inline` nodes."""
    nodes: list[Inline] = []
    buf: list[str] = []
    i = 0
    n = len(text)

    def flush() -> None:
        if buf:
            nodes.append(Text("".join(buf)))
            buf.clear()

    while i < n:
        ch = text[i]
        if ch == "\\" and i + 1 < n and text[i + 1] in r"\`*_{}[]()#+-.!|<>":
            buf.append(text[i + 1])
            i += 2
            continue
        if ch == "\n":
            flush()
            nodes.append(HardBreak())
            i += 1
            continue
        if ch == "`":
            run = len(text) - len(text[i:].lstrip("`"))
            ticks = 0
            while i + ticks < n and text[i + ticks] == "`":
                ticks += 1
            close = text.find("`" * ticks, i + ticks)
            if close != -1:
                flush()
                nodes.append(CodeSpan(text[i + ticks : close].strip()))
                i = close + ticks
                continue
        if ch == "!" and i + 1 < n and text[i + 1] == "[":
            parsed = _parse_link_like(text, i + 1)
            if parsed:
                label, url, title, nxt = parsed
                flush()
                nodes.append(Image(label, url, title))
                i = nxt
                continue
        if ch == "[":
            parsed = _parse_link_like(text, i)
            if parsed:
                label, url, title, nxt = parsed
                flush()
                nodes.append(Link(parse_inlines(label), url, title))
                i = nxt
                continue
        if ch == "<":
            m = _AUTOLINK_RE.match(text, i)
            if m:
                flush()
                nodes.append(Link([Text(m.group(1))], m.group(1)))
                i = m.end()
                continue
        if ch in "*_":
            delim = ch
            run = 1
            while i + run < n and text[i + run] == delim:
                run += 1
            run = min(run, 2)
            closer = text.find(delim * run, i + run)
            while closer != -1 and closer + run < n and text[closer + run] == delim and run == 1:
                closer = text.find(delim * run, closer + 1)
            if closer != -1 and closer > i + run:
                inner = text[i + run : closer]
                if inner.strip():
                    flush()
                    children = parse_inlines(inner)
                    nodes.append(Strong(children) if run == 2 else Emphasis(children))
                    i = closer + run
                    continue
        buf.append(ch)
        i += 1
    flush()
    return nodes


def _parse_link_like(text: str, start: int) -> tuple[str, str, str, int] | None:
    """Parse ``[label](url "title")`` starting at ``text[start] == '['``."""
    depth = 0
    i = start
    n = len(text)
    while i < n:
        if text[i] == "\\":
            i += 2
            continue
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                break
        i += 1
    if i >= n or depth != 0:
        return None
    label = text[start + 1 : i]
    if i + 1 >= n or text[i + 1] != "(":
        return None
    j = i + 2
    depth = 1
    while j < n:
        if text[j] == "\\":
            j += 2
            continue
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                break
        j += 1
    if j >= n:
        return None
    target = text[i + 2 : j].strip()
    title = ""
    if '"' in target:
        m = re.match(r'^(\S*)\s+"(.*)"$', target)
        if m:
            target, title = m.group(1), m.group(2)
    return label, target, title, j + 1
