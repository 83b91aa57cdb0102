"""Frozen copy of the front-matter parser as it was before its fast paths.

Test-only oracle for the differential test in ``test_frontmatter.py``:
the live parser in :mod:`repro.sitegen.frontmatter` must agree with this
per-character reference on values, :class:`KeySpan` positions, and error
type, message and line.  Nothing under ``src/`` imports this module; do
not edit it to match the live parser.
"""

from __future__ import annotations

from typing import Iterable

from repro.errors import FrontMatterError
from repro.sitegen.frontmatter import DELIMITER, KeySpan, Scalar, Value


def split_document_with_lines(text: str) -> tuple[str | None, str, int, int]:
    """:func:`split_document` plus source line positions.

    Returns ``(block, body, block_offset, body_offset)`` where the offsets
    are what must be *added* to a 1-based line number inside the block /
    body to obtain the 1-based line number in the original document.  With
    no front matter both offsets are 0.
    """
    lines = text.split("\n")
    if not lines or lines[0].strip() != DELIMITER:
        return None, text, 0, 0
    for idx in range(1, len(lines)):
        if lines[idx].strip() == DELIMITER:
            block = "\n".join(lines[1:idx])
            body = "\n".join(lines[idx + 1 :])
            body_offset = idx + 1                 # body line 1 == doc line idx+2
            if body.startswith("\n"):
                body = body[1:]
                body_offset += 1
            return block, body, 1, body_offset
    raise FrontMatterError("unterminated front matter: missing closing '---'", line=len(lines))


def parse(text: str) -> dict[str, Value]:
    """Parse a front-matter block (without delimiters) into a dict.

    Accepts either a whole document (leading ``---``) or a bare block; when
    given a whole document only the header is parsed.
    """
    return parse_with_spans(text)[0]


def parse_with_spans(
    text: str, line_offset: int = 0
) -> tuple[dict[str, Value], dict[str, KeySpan]]:
    """Parse a front-matter block, also returning per-key source spans.

    ``line_offset`` is added to every reported line number (spans *and*
    :class:`~repro.errors.FrontMatterError` positions) so callers parsing
    a block extracted from a larger document get document-absolute lines —
    pass the ``block_offset`` from :func:`split_document_with_lines`.
    """
    if text.lstrip("﻿").startswith(DELIMITER):
        block, _, block_offset, _ = split_document_with_lines(text.lstrip("﻿"))
        if block is None:  # pragma: no cover - startswith guarantees a block
            return {}, {}
        text = block
        line_offset += block_offset

    data: dict[str, Value] = {}
    spans: dict[str, KeySpan] = {}
    lines = _join_continuations(text.split("\n"))
    i = 0
    while i < len(lines):
        lineno, raw = lines[i]
        lineno += line_offset
        stripped = _strip_comment(raw).strip()
        if not stripped:
            i += 1
            continue
        if ":" not in stripped:
            raise FrontMatterError(f"expected 'key: value', got {raw!r}", line=lineno)
        key, _, rest = stripped.partition(":")
        key = key.strip()
        if not key or " " in key:
            raise FrontMatterError(f"invalid key {key!r}", line=lineno)
        if key in data:
            raise FrontMatterError(f"duplicate key {key!r}", line=lineno)
        column = raw.find(key) + 1
        rest = rest.strip()
        if rest:
            value = parse_value(rest, line=lineno)
            data[key] = value
            item_lines = (lineno,) * len(value) if isinstance(value, list) else ()
            spans[key] = KeySpan(lineno, column, item_lines)
            i += 1
            continue
        # Empty value: either a block list follows, or the value is "".
        items: list[Scalar] = []
        item_lines_list: list[int] = []
        saw_item = False
        j = i + 1
        while j < len(lines):
            nxt_lineno, nxt = lines[j]
            nxt_lineno += line_offset
            nxt_stripped = _strip_comment(nxt).strip()
            if not nxt_stripped:
                j += 1
                continue
            if not nxt_stripped.startswith("- "):
                break
            item = parse_value(nxt_stripped[2:].strip(), line=nxt_lineno)
            if isinstance(item, list):
                raise FrontMatterError("nested lists are not supported", line=nxt_lineno)
            items.append(item)
            item_lines_list.append(nxt_lineno)
            saw_item = True
            j += 1
        if saw_item:
            data[key] = items
            spans[key] = KeySpan(lineno, column, tuple(item_lines_list))
            i = j
        else:
            data[key] = ""
            spans[key] = KeySpan(lineno, column)
            i += 1
    return data, spans


def _join_continuations(lines: list[str]) -> list[tuple[int, str]]:
    """Merge backslash-continued lines, keeping original line numbers.

    Fig. 2 of the paper continues an inline list across lines with a
    trailing ``\\``; Hugo tolerates this and so do we.
    """
    out: list[tuple[int, str]] = []
    buffer = ""
    start = 0
    for idx, line in enumerate(lines, start=1):
        stripped = line.rstrip()
        if stripped.endswith("\\"):
            if not buffer:
                start = idx
            buffer += stripped[:-1].rstrip() + " "
            continue
        if buffer:
            out.append((start, buffer + line.strip()))
            buffer = ""
        else:
            out.append((idx, line))
    if buffer:
        raise FrontMatterError("dangling line continuation", line=start)
    return out


def _strip_comment(line: str) -> str:
    """Remove a trailing ``#`` comment that is not inside a quoted string."""
    quote: str | None = None
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if quote:
            if quote == '"' and ch == "\\" and i + 1 < n:
                i += 2
                continue
            if ch == quote:
                quote = None
        elif ch in ("'", '"'):
            quote = ch
        elif ch == "#":
            return line[:i]
        i += 1
    return line


def parse_value(text: str, line: int | None = None) -> Value:
    """Parse a single scalar or inline-list value."""
    text = text.strip()
    if not text:
        return ""
    if text.startswith("["):
        return _parse_inline_list(text, line)
    if text.startswith("{"):
        raise FrontMatterError("nested mappings are not supported", line=line)
    return _parse_scalar(text, line)


def _parse_scalar(text: str, line: int | None) -> Scalar:
    if text.startswith('"') or text.startswith("'"):
        quote = text[0]
        inner, end = _read_quoted(text, 0, line)
        if text[end:].strip():
            raise FrontMatterError(
                f"trailing characters after string: {text[end:]!r}", line=line
            )
        return inner
    low = text.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_inline_list(text: str, line: int | None) -> list[Scalar]:
    if not text.endswith("]"):
        raise FrontMatterError(f"unterminated inline list {text!r}", line=line)
    inner = text[1:-1]
    items: list[Scalar] = []
    for piece in _split_top_level_commas(inner, line):
        piece = piece.strip()
        if not piece:
            continue
        value = _parse_scalar(piece, line)
        items.append(value)
    return items


def _read_quoted(text: str, start: int, line: int | None) -> tuple[str, int]:
    """Read a quoted string starting at ``text[start]``.

    Returns (unescaped content, index just past the closing quote).
    Double-quoted strings honor ``\\\\`` and ``\\"`` escapes; single-quoted
    strings are literal.
    """
    quote = text[start]
    out: list[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if quote == '"' and ch == "\\" and i + 1 < n and text[i + 1] in ('"', "\\"):
            out.append(text[i + 1])
            i += 2
            continue
        if ch == quote:
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise FrontMatterError(f"unterminated string {text[start:]!r}", line=line)


def _split_top_level_commas(text: str, line: int | None) -> Iterable[str]:
    """Split a list body on commas, treating quoted strings as opaque."""
    current: list[str] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in ("'", '"'):
            _, end = _read_quoted(text, i, line)
            current.append(text[i:end])
            i = end
        elif ch == ",":
            yield "".join(current)
            current = []
            i += 1
        elif ch == "[":
            raise FrontMatterError("nested lists are not supported", line=line)
        else:
            current.append(ch)
            i += 1
    if current:
        yield "".join(current)
