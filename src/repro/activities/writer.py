"""Serialize an :class:`~repro.activities.schema.Activity` back to Markdown.

The writer emits the canonical PDCunplugged layout (Fig. 1 ordering, one
horizontal rule between sections) so ``parse(write(a)) == a`` -- the
round-trip property the test suite checks with hypothesis.

``repro.lint``'s fixit pipeline also rewrites activity files through this
writer: structural fixes (section reordering) are expressed as "serialize
the parsed activity canonically", so every applied fix round-trips through
the parser by construction.  ``extra_params`` lets that pipeline preserve
front-matter keys the schema does not know about (they are a *diagnostic*,
not something a rewrite may silently destroy).

:func:`activity_document` stops one step short of text: it returns the
header mapping and body that :func:`write_activity` serializes, so the
catalog can build a site page straight from them (see
:meth:`~repro.activities.catalog.Catalog.site`).
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from repro.activities.schema import SECTION_ORDER, Activity
from repro.sitegen import frontmatter

__all__ = ["activity_document", "write_activity", "write_activity_file"]


def write_activity(activity: Activity,
                   extra_params: Mapping[str, object] | None = None) -> str:
    """Render one activity to its canonical Markdown document.

    ``extra_params`` are additional front-matter entries appended after the
    schema keys, in their given order; keys that collide with schema keys
    are ignored (the activity's own values win).
    """
    return frontmatter.serialize(*activity_document(activity, extra_params))


def activity_document(
    activity: Activity, extra_params: Mapping[str, object] | None = None,
) -> tuple[dict[str, object], str]:
    """The ``(header, body)`` pair :func:`write_activity` serializes."""
    header: dict[str, object] = {"title": activity.title}
    if activity.date:
        header["date"] = activity.date
    for key in ("cs2013", "tcpp", "courses", "senses",
                "cs2013details", "tcppdetails", "medium"):
        values = getattr(activity, key)
        if values:
            header[key] = list(values)
    for key, value in (extra_params or {}).items():
        if key not in header and key not in ("title", "date"):
            header[key] = value

    parts: list[str] = []
    ordered = [s for s in SECTION_ORDER if s in activity.sections]
    extras = [s for s in activity.sections if s not in SECTION_ORDER]
    for idx, section in enumerate(ordered + extras):
        if idx:
            parts.append("---")
            parts.append("")
        parts.append(f"## {section}")
        text = activity.sections[section]
        parts.append("")
        if text:
            parts.append(text)
            parts.append("")
    return header, "\n".join(parts)


def write_activity_file(activity: Activity, content_dir: str | Path) -> Path:
    """Write an activity into ``<content_dir>/<name>.md``; returns the path."""
    directory = Path(content_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{activity.name}.md"
    path.write_text(write_activity(activity), encoding="utf-8")
    return path
