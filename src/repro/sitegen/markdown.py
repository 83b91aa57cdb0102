"""A small, dependency-free Markdown engine.

PDCunplugged authors write activities "in near plain-text" Markdown
(paper §II).  This module implements the Markdown subset those documents
use -- and that Hugo renders for them -- as a two-stage pipeline:

1. :func:`parse` turns source text into a typed block AST
   (:class:`Document` of :class:`Block` nodes containing :class:`Inline`
   nodes), which the activity parser also walks directly to recover the
   seven structured sections of an activity body.
2. :func:`render_html` (or ``Document.to_html()``) renders the AST to
   HTML with correct escaping.

Supported block constructs: ATX headings (``#`` .. ``######``), thematic
breaks (``---`` / ``***`` / ``___`` -- these delimit activity sections),
fenced and indented code blocks, block quotes, unordered/ordered lists
with nesting, pipe tables, and paragraphs.  Supported inline constructs:
escapes, code spans, strong/emphasis, links, images, and autolinks.

The implementation favours clarity over speed, per the optimization
workflow in the HPC guides ("make it work, make it right, then measure"):
the site-build benchmark shows this renderer processes the whole corpus in
well under a second, so no further optimization is warranted.
"""

from __future__ import annotations

import html
import re
from dataclasses import dataclass, field

__all__ = [
    "Block",
    "BlockQuote",
    "CodeBlock",
    "CodeSpan",
    "Document",
    "Emphasis",
    "HardBreak",
    "Heading",
    "Image",
    "Inline",
    "Link",
    "ListBlock",
    "ListItem",
    "Paragraph",
    "Strong",
    "Table",
    "Text",
    "ThematicBreak",
    "parse",
    "parse_inlines",
    "render_html",
    "plain_text",
]


# ---------------------------------------------------------------------------
# AST node types
# ---------------------------------------------------------------------------


@dataclass
class Inline:
    """Base class for inline nodes."""

    def to_html(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def to_text(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass
class Text(Inline):
    text: str

    def to_html(self) -> str:
        return html.escape(self.text, quote=False)

    def to_text(self) -> str:
        return self.text


@dataclass
class CodeSpan(Inline):
    code: str

    def to_html(self) -> str:
        return f"<code>{html.escape(self.code, quote=False)}</code>"

    def to_text(self) -> str:
        return self.code


@dataclass
class Emphasis(Inline):
    children: list[Inline]

    def to_html(self) -> str:
        return "<em>" + "".join(c.to_html() for c in self.children) + "</em>"

    def to_text(self) -> str:
        return "".join(c.to_text() for c in self.children)


@dataclass
class Strong(Inline):
    children: list[Inline]

    def to_html(self) -> str:
        return "<strong>" + "".join(c.to_html() for c in self.children) + "</strong>"

    def to_text(self) -> str:
        return "".join(c.to_text() for c in self.children)


@dataclass
class Link(Inline):
    children: list[Inline]
    url: str
    title: str = ""

    def to_html(self) -> str:
        label = "".join(c.to_html() for c in self.children)
        title = f' title="{html.escape(self.title)}"' if self.title else ""
        return f'<a href="{html.escape(self.url)}"{title}>{label}</a>'

    def to_text(self) -> str:
        return "".join(c.to_text() for c in self.children)


@dataclass
class Image(Inline):
    alt: str
    url: str
    title: str = ""

    def to_html(self) -> str:
        title = f' title="{html.escape(self.title)}"' if self.title else ""
        return f'<img src="{html.escape(self.url)}" alt="{html.escape(self.alt)}"{title} />'

    def to_text(self) -> str:
        return self.alt


@dataclass
class HardBreak(Inline):
    def to_html(self) -> str:
        return "<br />"

    def to_text(self) -> str:
        return "\n"


@dataclass
class Block:
    """Base class for block nodes."""

    def to_html(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def to_text(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


@dataclass
class Heading(Block):
    level: int
    children: list[Inline]

    def to_html(self) -> str:
        inner = "".join(c.to_html() for c in self.children)
        return f"<h{self.level}>{inner}</h{self.level}>"

    def to_text(self) -> str:
        return "".join(c.to_text() for c in self.children)


@dataclass
class Paragraph(Block):
    children: list[Inline]

    def to_html(self) -> str:
        return "<p>" + "".join(c.to_html() for c in self.children) + "</p>"

    def to_text(self) -> str:
        return "".join(c.to_text() for c in self.children)


@dataclass
class ThematicBreak(Block):
    def to_html(self) -> str:
        return "<hr />"

    def to_text(self) -> str:
        return ""


@dataclass
class CodeBlock(Block):
    code: str
    language: str = ""

    def to_html(self) -> str:
        cls = f' class="language-{html.escape(self.language)}"' if self.language else ""
        return f"<pre><code{cls}>{html.escape(self.code, quote=False)}</code></pre>"

    def to_text(self) -> str:
        return self.code


@dataclass
class BlockQuote(Block):
    children: list[Block]

    def to_html(self) -> str:
        inner = "\n".join(c.to_html() for c in self.children)
        return f"<blockquote>\n{inner}\n</blockquote>"

    def to_text(self) -> str:
        return "\n".join(c.to_text() for c in self.children)


@dataclass
class ListItem(Block):
    children: list[Block]

    def to_html(self) -> str:
        # Tight list items render their single paragraph without <p>.
        if len(self.children) == 1 and isinstance(self.children[0], Paragraph):
            inner = "".join(c.to_html() for c in self.children[0].children)
        else:
            inner = "\n".join(c.to_html() for c in self.children)
        return f"<li>{inner}</li>"

    def to_text(self) -> str:
        return "\n".join(c.to_text() for c in self.children)


@dataclass
class ListBlock(Block):
    ordered: bool
    items: list[ListItem]
    start: int = 1

    def to_html(self) -> str:
        tag = "ol" if self.ordered else "ul"
        start = f' start="{self.start}"' if self.ordered and self.start != 1 else ""
        inner = "\n".join(i.to_html() for i in self.items)
        return f"<{tag}{start}>\n{inner}\n</{tag}>"

    def to_text(self) -> str:
        return "\n".join(i.to_text() for i in self.items)


@dataclass
class Table(Block):
    header: list[list[Inline]]
    rows: list[list[list[Inline]]]
    alignments: list[str] = field(default_factory=list)

    def _cell(self, cell: list[Inline], tag: str, align: str) -> str:
        attr = f' style="text-align:{align}"' if align else ""
        return f"<{tag}{attr}>" + "".join(c.to_html() for c in cell) + f"</{tag}>"

    def to_html(self) -> str:
        aligns = self.alignments or [""] * len(self.header)
        head = "".join(self._cell(c, "th", a) for c, a in zip(self.header, aligns))
        body_rows = []
        for row in self.rows:
            cells = "".join(self._cell(c, "td", a) for c, a in zip(row, aligns))
            body_rows.append(f"<tr>{cells}</tr>")
        body = "\n".join(body_rows)
        return f"<table>\n<thead><tr>{head}</tr></thead>\n<tbody>\n{body}\n</tbody>\n</table>"

    def to_text(self) -> str:
        parts = ["\t".join("".join(c.to_text() for c in cell) for cell in self.header)]
        for row in self.rows:
            parts.append("\t".join("".join(c.to_text() for c in cell) for cell in row))
        return "\n".join(parts)


@dataclass
class Document(Block):
    children: list[Block]

    def to_html(self) -> str:
        return "\n".join(c.to_html() for c in self.children)

    def to_text(self) -> str:
        return "\n".join(c.to_text() for c in self.children if c.to_text())


# ---------------------------------------------------------------------------
# Block parsing
# ---------------------------------------------------------------------------

_HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")
_THEMATIC_RE = re.compile(r"^ {0,3}((\*\s*){3,}|(-\s*){3,}|(_\s*){3,})$")
_FENCE_RE = re.compile(r"^ {0,3}(```+|~~~+)\s*(\S*)\s*$")
_ULIST_RE = re.compile(r"^( *)([-*+])\s+(.*)$")
_OLIST_RE = re.compile(r"^( *)(\d{1,9})([.)])\s+(.*)$")
_TABLE_SEP_RE = re.compile(r"^ {0,3}\|?\s*:?-+:?\s*(\|\s*:?-+:?\s*)*\|?\s*$")


def parse(text: str) -> Document:
    """Parse Markdown source into a :class:`Document` AST."""
    lines = text.replace("\r\n", "\n").split("\n")
    blocks, _ = _parse_blocks(lines, 0, len(lines))
    return Document(blocks)


def _parse_blocks(lines: list[str], start: int, end: int) -> tuple[list[Block], int]:
    blocks: list[Block] = []
    i = start
    while i < end:
        line = lines[i]
        if not line.strip():
            i += 1
            continue

        m = _FENCE_RE.match(line)
        if m:
            fence, lang = m.group(1), m.group(2)
            close = re.compile(rf"^ {{0,3}}{re.escape(fence[0])}{{{len(fence)},}}\s*$")
            j = i + 1
            code_lines = []
            while j < end and not close.match(lines[j]):
                code_lines.append(lines[j])
                j += 1
            blocks.append(CodeBlock("\n".join(code_lines) + ("\n" if code_lines else ""), lang))
            i = j + 1 if j < end else j
            continue

        if _THEMATIC_RE.match(line):
            blocks.append(ThematicBreak())
            i += 1
            continue

        m = _HEADING_RE.match(line)
        if m:
            blocks.append(Heading(len(m.group(1)), parse_inlines(m.group(2))))
            i += 1
            continue

        if line.startswith("    ") and not _ULIST_RE.match(line) and not _OLIST_RE.match(line):
            j = i
            code_lines = []
            while j < end and (lines[j].startswith("    ") or not lines[j].strip()):
                if not lines[j].strip() and (j + 1 >= end or not lines[j + 1].startswith("    ")):
                    break
                code_lines.append(lines[j][4:] if lines[j].startswith("    ") else "")
                j += 1
            while code_lines and not code_lines[-1].strip():
                code_lines.pop()
            blocks.append(CodeBlock("\n".join(code_lines) + "\n"))
            i = j
            continue

        if line.lstrip().startswith(">"):
            j = i
            quoted = []
            while j < end and lines[j].lstrip().startswith(">"):
                stripped = lines[j].lstrip()[1:]
                quoted.append(stripped[1:] if stripped.startswith(" ") else stripped)
                j += 1
            inner, _ = _parse_blocks(quoted, 0, len(quoted))
            blocks.append(BlockQuote(inner))
            i = j
            continue

        if _ULIST_RE.match(line) or _OLIST_RE.match(line):
            block, i = _parse_list(lines, i, end)
            blocks.append(block)
            continue

        if "|" in line and i + 1 < end and _TABLE_SEP_RE.match(lines[i + 1]) and "|" in lines[i + 1]:
            block, i = _parse_table(lines, i, end)
            blocks.append(block)
            continue

        # Paragraph: gather until a blank line or the start of another block.
        j = i
        para: list[str] = []
        while j < end and lines[j].strip():
            probe = lines[j]
            if j > i and (
                _THEMATIC_RE.match(probe)
                or _HEADING_RE.match(probe)
                or _FENCE_RE.match(probe)
                or _ULIST_RE.match(probe)
                or _OLIST_RE.match(probe)
                or probe.lstrip().startswith(">")
            ):
                break
            para.append(probe.strip())
            j += 1
        blocks.append(Paragraph(parse_inlines(_join_paragraph(para))))
        i = j
    return blocks, i


def _join_paragraph(lines: list[str]) -> str:
    """Join paragraph lines, turning two-space line endings into hard breaks."""
    out: list[str] = []
    for idx, line in enumerate(lines):
        out.append(line)
        if idx < len(lines) - 1:
            out.append("\n")
    return "".join(out)


def _parse_list(lines: list[str], start: int, end: int) -> tuple[ListBlock, int]:
    first = lines[start]
    ordered = bool(_OLIST_RE.match(first))
    marker = _OLIST_RE if ordered else _ULIST_RE
    base_indent = len(first) - len(first.lstrip())
    start_num = int(_OLIST_RE.match(first).group(2)) if ordered else 1

    items: list[ListItem] = []
    i = start
    while i < end:
        line = lines[i]
        if not line.strip():
            # A blank line ends the list unless the next line continues it.
            if i + 1 < end and (
                marker.match(lines[i + 1])
                or (lines[i + 1].startswith(" " * (base_indent + 2)) and lines[i + 1].strip())
            ):
                i += 1
                continue
            break
        m = marker.match(line)
        indent = len(line) - len(line.lstrip())
        if not m or indent > base_indent:
            if indent > base_indent and items:
                # Continuation / nested content of the current item.
                item_lines = [line[base_indent + 2 :] if len(line) > base_indent + 2 else line.strip()]
                j = i + 1
                while j < end and (not lines[j].strip() or (len(lines[j]) - len(lines[j].lstrip())) > base_indent):
                    if not lines[j].strip() and (j + 1 >= end or marker.match(lines[j + 1]) or not lines[j + 1].strip()):
                        break
                    item_lines.append(lines[j][base_indent + 2 :] if lines[j].strip() else "")
                    j += 1
                nested, _ = _parse_blocks(item_lines, 0, len(item_lines))
                items[-1].children.extend(nested)
                i = j
                continue
            break
        if indent < base_indent:
            break
        content = m.group(3) if not ordered else m.group(4)
        items.append(ListItem([Paragraph(parse_inlines(content))]))
        i += 1
    return ListBlock(ordered, items, start_num), i


def _split_table_row(line: str) -> list[str]:
    stripped = line.strip()
    if stripped.startswith("|"):
        stripped = stripped[1:]
    if stripped.endswith("|"):
        stripped = stripped[:-1]
    cells: list[str] = []
    current: list[str] = []
    escaped = False
    for ch in stripped:
        if escaped:
            current.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
            current.append(ch)
        elif ch == "|":
            cells.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    cells.append("".join(current).strip())
    return cells


def _parse_table(lines: list[str], start: int, end: int) -> tuple[Table, int]:
    header_cells = _split_table_row(lines[start])
    sep_cells = _split_table_row(lines[start + 1])
    alignments: list[str] = []
    for cell in sep_cells:
        left = cell.startswith(":")
        right = cell.endswith(":")
        if left and right:
            alignments.append("center")
        elif right:
            alignments.append("right")
        elif left:
            alignments.append("left")
        else:
            alignments.append("")
    rows: list[list[list[Inline]]] = []
    i = start + 2
    while i < end and lines[i].strip() and "|" in lines[i]:
        cells = _split_table_row(lines[i])
        cells += [""] * (len(header_cells) - len(cells))
        rows.append([parse_inlines(c) for c in cells[: len(header_cells)]])
        i += 1
    header = [parse_inlines(c) for c in header_cells]
    return Table(header, rows, alignments), i


# ---------------------------------------------------------------------------
# Inline parsing
# ---------------------------------------------------------------------------

_AUTOLINK_RE = re.compile(r"<(https?://[^ >]+)>")
_URL_RE = re.compile(r"https?://[^\s<>()\[\]]+[^\s<>()\[\].,;:!?'\"]")
#: Every character a branch of :func:`parse_inlines` handles; any other
#: character is plain text, copied a run at a time.
_INLINE_SPECIAL_RE = re.compile(r"[\\\n`!\[<*_]")


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
        special = _INLINE_SPECIAL_RE.search(text, i)
        end = special.start() if special else n
        if end > i:
            buf.append(text[i:end])
            i = end
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


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def render_html(text: str) -> str:
    """Render Markdown source straight to HTML."""
    return parse(text).to_html()


def plain_text(text: str) -> str:
    """Strip Markdown formatting, returning readable plain text."""
    return parse(text).to_text()


def find_urls(text: str) -> list[str]:
    """Extract all http(s) URLs from Markdown source (links + bare URLs)."""
    urls: list[str] = []

    def walk_inlines(inlines: list[Inline]) -> None:
        for node in inlines:
            if isinstance(node, Link):
                if node.url.startswith("http"):
                    urls.append(node.url)
                walk_inlines(node.children)
            elif isinstance(node, Image):
                if node.url.startswith("http"):
                    urls.append(node.url)
            elif isinstance(node, (Emphasis, Strong)):
                walk_inlines(node.children)
            elif isinstance(node, Text):
                urls.extend(_URL_RE.findall(node.text))

    def walk_blocks(blocks: list[Block]) -> None:
        for block in blocks:
            if isinstance(block, (Paragraph, Heading)):
                walk_inlines(block.children)
            elif isinstance(block, (BlockQuote, ListItem)):
                walk_blocks(block.children)
            elif isinstance(block, ListBlock):
                walk_blocks(list(block.items))
            elif isinstance(block, Table):
                for cell in block.header:
                    walk_inlines(cell)
                for row in block.rows:
                    for cell in row:
                        walk_inlines(cell)

    walk_blocks(parse(text).children)
    return urls
