"""The fixit framework: machine-applicable remediations for lint findings.

Mechanical rules emit :class:`Fix` objects — span-anchored text edits (or
a file rename) keyed to the exact diagnostic they remediate.  The applier
(:func:`apply_edits`, :func:`fix_engine`) resolves overlapping edits,
rewrites activity files, and re-lints to a fixed point, so one
``pdcunplugged lint --fix`` invocation converges: a second invocation
changes zero bytes.

Design rules:

* A fix's coordinates ``(file, line, column, rule_id, message)`` must
  equal its diagnostic's :func:`~repro.lint.diagnostics.sort_key`, so the
  engine can drop fixes whose findings were suppressed, disabled, or
  baselined, and reporters can attach SARIF ``fixes`` objects to results.
* Structural fixes (Fig. 1 section reordering) are whole-file
  replacements produced by :func:`repro.activities.writer.write_activity`
  over the *parsed* activity — the fix round-trips through the parser by
  construction.  Unknown front-matter keys are preserved verbatim.
* After editing, a file that parsed before must still parse; otherwise
  every edit to it is reverted and counted as skipped.
* Overlap resolution is greedy by source position: the earliest edit
  wins, later overlapping edits are deferred to the next fix iteration
  (the driver loops until no fix makes progress).

Fixable rules: ``taxonomy-noncanonical-term`` (canonical respelling via
``standards.normalize``), ``frontmatter-schema`` (malformed dates
coerced to ISO), ``citation-missing`` (missing dates derived from the
earliest citation year), ``section-structure`` (Fig. 1 reordering),
``internal-link`` (dead-anchor rewrites), and ``duplicate-slug``
(file renames).
"""

from __future__ import annotations

import difflib
import re
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from repro.activities.parser import parse_activity
from repro.activities.writer import write_activity
from repro.errors import ReproError, SiteError
from repro.lint import links
from repro.lint.diagnostics import Diagnostic, sort_key
from repro.lint.document import DocumentInfo, ParsedDocument
from repro.lint.rules_content import (
    _KNOWN_KEYS,
    _STANDARDS_AXES,
    _VOCAB_AXES,
    _iter_terms,
    _section_line,
    bare_urls,
    heading_jumps,
    todo_markers,
)
from repro.sitegen.taxonomy import slugify
from repro.standards import normalize

__all__ = [
    "Edit",
    "Fix",
    "FixReport",
    "CheckReport",
    "FIXABLE_RULES",
    "fixes_for_document",
    "fixes_for_corpus",
    "apply_edits",
    "fix_engine",
    "check_fixes",
    "render_check_report",
]

#: Rules with at least one mechanical remediation.
FIXABLE_RULES = frozenset({
    "taxonomy-noncanonical-term",
    "frontmatter-schema",
    "citation-missing",
    "section-structure",
    "internal-link",
    "duplicate-slug",
    "prose-heading-jump",
    "prose-bare-url",
    "prose-todo-marker",
    "resource-lifecycle-unguarded",
})

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_YEAR_RE = re.compile(r"\b(1[89]\d{2}|20\d{2})\b")

_MONTHS = {
    name[:3]: index
    for index, name in enumerate(
        ("january", "february", "march", "april", "may", "june", "july",
         "august", "september", "october", "november", "december"),
        start=1,
    )
}


@dataclass(frozen=True)
class Edit:
    """One span-anchored text replacement (1-based, end-exclusive columns).

    ``start == end`` is a pure insertion.  Whole-file rewrites span the
    entire document (see :func:`whole_file_edit`).
    """

    start_line: int
    start_column: int
    end_line: int
    end_column: int
    replacement: str


@dataclass(frozen=True)
class Fix:
    """A machine-applicable remediation for exactly one diagnostic.

    ``(file, line, column, rule_id, message)`` mirror the diagnostic's
    identity so the two can be joined without carrying a severity (which
    report-time overrides may rewrite).
    """

    rule_id: str
    file: str
    line: int
    column: int
    message: str
    description: str
    edits: tuple[Edit, ...] = ()
    rename_to: str | None = None         # new file stem (duplicate-slug)

    @property
    def key(self) -> tuple:
        """Join key; equals ``sort_key`` of the matching diagnostic."""
        return (self.file, self.line, self.column, self.rule_id, self.message)

    def matches(self, diag: Diagnostic) -> bool:
        return self.key == sort_key(diag)

    def to_dict(self) -> dict:
        payload: dict = {
            "rule": self.rule_id,
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "description": self.description,
            "edits": [
                {
                    "start_line": e.start_line,
                    "start_column": e.start_column,
                    "end_line": e.end_line,
                    "end_column": e.end_column,
                    "replacement": e.replacement,
                }
                for e in self.edits
            ],
        }
        if self.rename_to is not None:
            payload["rename_to"] = self.rename_to
        return payload


def whole_file_edit(text: str, replacement: str) -> Edit:
    """An edit replacing the entire document."""
    lines = text.split("\n")
    return Edit(1, 1, len(lines), len(lines[-1]) + 1, replacement)


# -- per-file fix generation -------------------------------------------------


def fixes_for_document(doc: ParsedDocument) -> list[Fix]:
    """Every per-file fix for one parsed activity document.

    Files that do not parse get no fixes: every per-file remediation is
    defined in terms of the parsed activity, and the post-apply round-trip
    check needs a parseable baseline.
    """
    if doc.activity is None:
        return []
    out: list[Fix] = []
    out.extend(_fix_noncanonical_terms(doc))
    out.extend(_fix_malformed_date(doc))
    out.extend(_fix_missing_date(doc))
    out.extend(_fix_section_order(doc))
    out.extend(_fix_heading_jumps(doc))
    out.extend(_fix_bare_urls(doc))
    out.extend(_fix_todo_markers(doc))
    return out


def _fix_noncanonical_terms(doc: ParsedDocument) -> list[Fix]:
    out: list[Fix] = []
    cursor: dict[int, int] = {}          # per-line scan position
    for axis, _idx, term, line, col in _iter_terms(
            doc, _VOCAB_AXES + _STANDARDS_AXES):
        canonical = normalize.canonical_term(axis, term)
        if canonical is None or canonical == term:
            continue
        edit = _term_edit(doc.text, line, term, canonical, cursor)
        if edit is None:
            continue
        out.append(Fix(
            "taxonomy-noncanonical-term", doc.file, line, col,
            f"non-canonical {axis} term {term!r} (use {canonical!r})",
            f"replace {term!r} with the canonical spelling {canonical!r}",
            edits=(edit,)))
    return out


def _term_edit(text: str, line: int, term: str, canonical: str,
               cursor: dict[int, int]) -> Edit | None:
    """Locate one written occurrence of ``term`` on ``line`` and respell it.

    Quoted occurrences are preferred (unambiguous); bare occurrences must
    sit on word boundaries so a term never matches inside a longer one.
    ``cursor`` advances past each consumed occurrence, so repeated terms
    on one inline-list line resolve left to right.
    """
    lines = text.split("\n")
    if not 1 <= line <= len(lines):
        return None
    raw = lines[line - 1]
    start = cursor.get(line, 0)
    for quote in ('"', "'"):
        needle = f"{quote}{term}{quote}"
        pos = raw.find(needle, start)
        if pos != -1:
            cursor[line] = pos + len(needle)
            return Edit(line, pos + 2, line, pos + 2 + len(term), canonical)
    pos = raw.find(term, start)
    while pos != -1:
        before = raw[pos - 1] if pos > 0 else " "
        end = pos + len(term)
        after = raw[end] if end < len(raw) else " "
        if not (before.isalnum() or before == "_") \
                and not (after.isalnum() or after == "_"):
            cursor[line] = end
            return Edit(line, pos + 1, line, end + 1, canonical)
        pos = raw.find(term, pos + 1)
    return None


def _coerce_iso_date(text: str) -> str | None:
    """Mechanically recognizable date spellings, coerced to YYYY-MM-DD."""
    t = text.strip()
    match = re.fullmatch(r"(\d{4})[-/.](\d{1,2})[-/.](\d{1,2})", t)
    if match:
        return _iso(match.group(1), match.group(2), match.group(3))
    match = re.fullmatch(r"(\d{1,2})[-/.](\d{1,2})[-/.](\d{4})", t)
    if match:                            # US-style month/day/year
        return _iso(match.group(3), match.group(1), match.group(2))
    match = re.fullmatch(r"([A-Za-z]+)\.?\s+(\d{1,2}),?\s+(\d{4})", t)
    if match:
        month = _MONTHS.get(match.group(1)[:3].lower())
        if month is not None:
            return _iso(match.group(3), str(month), match.group(2))
    if re.fullmatch(r"\d{4}", t):
        return f"{t}-01-01"
    return None


def _iso(year: str, month: str, day: str) -> str | None:
    y, m, d = int(year), int(month), int(day)
    if not (1 <= m <= 12 and 1 <= d <= 31):
        return None
    return f"{y:04d}-{m:02d}-{d:02d}"


def _fix_malformed_date(doc: ParsedDocument) -> list[Fix]:
    date = doc.params.get("date")
    if not isinstance(date, str) or not date or _DATE_RE.match(date):
        return []
    iso = _coerce_iso_date(date)
    if iso is None:
        return []
    line = doc.key_line("date")
    lines = doc.text.split("\n")
    if not 1 <= line <= len(lines):
        return []
    raw = lines[line - 1]
    edit = None
    for quote in ('"', "'"):
        needle = f"{quote}{date}{quote}"
        pos = raw.find(needle)
        if pos != -1:
            edit = Edit(line, pos + 2, line, pos + 2 + len(date), iso)
            break
    if edit is None:
        pos = raw.find(date)
        if pos == -1:
            return []
        edit = Edit(line, pos + 1, line, pos + 1 + len(date), iso)
    return [Fix(
        "frontmatter-schema", doc.file, line, doc.key_column("date"),
        f"date {date!r} is not ISO formatted (YYYY-MM-DD)",
        f"rewrite date {date!r} as {iso!r}",
        edits=(edit,))]


def _fix_missing_date(doc: ParsedDocument) -> list[Fix]:
    if str(doc.params.get("date", "")).strip():
        return []
    citations = doc.activity.sections.get("Citations", "") \
        if doc.activity else ""
    years = _YEAR_RE.findall(citations)
    if not years:
        return []                        # nothing mechanical to derive
    derived = f"{min(years)}-01-01"
    lines = doc.text.split("\n")
    if "date" in doc.params:             # present but empty: rewrite the line
        line = doc.key_line("date")
        if not 1 <= line <= len(lines):
            return []
        edit = Edit(line, 1, line, len(lines[line - 1]) + 1,
                    f'date: "{derived}"')
    else:                                # absent: insert below the title
        title_line = doc.key_line("title")
        if not 1 <= title_line <= len(lines):
            return []
        edit = Edit(title_line + 1, 1, title_line + 1, 1,
                    f'date: "{derived}"\n')
    return [Fix(
        "citation-missing", doc.file,
        doc.key_line("date", doc.key_line("title")), 1,
        "activity has no date",
        f"set date to {derived!r} (earliest citation year)",
        edits=(edit,))]


def _fix_section_order(doc: ParsedDocument) -> list[Fix]:
    from repro.activities import schema

    activity = doc.activity
    known = set(schema.SECTION_ORDER)
    order = [s for s in activity.sections if s in known]
    expected = [s for s in schema.SECTION_ORDER if s in activity.sections]
    if order == expected:
        return []
    first_misplaced = next(
        (got for got, want in zip(order, expected) if got != want),
        order[0] if order else "")
    extras = {key: value for key, value in doc.params.items()
              if key not in _KNOWN_KEYS}
    canonical = write_activity(activity, extra_params=extras)
    return [Fix(
        "section-structure", doc.file,
        _section_line(doc, first_misplaced), 1,
        f"sections out of order: expected {expected}",
        "rewrite the file in canonical Fig. 1 section order",
        edits=(whole_file_edit(doc.text, canonical),))]


def _fix_heading_jumps(doc: ParsedDocument) -> list[Fix]:
    out: list[Fix] = []
    for line, prev, depth in heading_jumps(doc):
        want = prev + 1
        out.append(Fix(
            "prose-heading-jump", doc.file, line, 1,
            f"heading depth jumps from {prev} to {depth} "
            f"(use depth {want})",
            f"demote the heading to depth {want}",
            edits=(Edit(line, 1, line, depth + 1, "#" * want),)))
    return out


def _fix_bare_urls(doc: ParsedDocument) -> list[Fix]:
    out: list[Fix] = []
    for line, column, url in bare_urls(doc):
        out.append(Fix(
            "prose-bare-url", doc.file, line, column,
            f"bare URL {url} (wrap it as <{url}> or cite it as a link)",
            "wrap the bare URL in an autolink",
            edits=(Edit(line, column, line, column + len(url), f"<{url}>"),)))
    return out


def _fix_todo_markers(doc: ParsedDocument) -> list[Fix]:
    out: list[Fix] = []
    lines = doc.text.split("\n")
    for line, column, marker in todo_markers(doc):
        raw = lines[line - 1]
        end = column - 1 + len(marker)
        end += re.match(r":?\s*", raw[end:]).end()
        out.append(Fix(
            "prose-todo-marker", doc.file, line, column,
            f"{marker} marker left in activity text",
            f"remove the {marker} marker",
            edits=(Edit(line, column, line, end + 1, ""),)))
    return out


# -- corpus-scope fix generation ---------------------------------------------


def fixes_for_corpus(docs: list[DocumentInfo]) -> list[Fix]:
    """Fixes whose verdicts depend on the whole corpus."""
    return _fix_dead_anchors(docs) + _fix_duplicate_slugs(docs)


def _letters(text: str) -> str:
    return re.sub(r"[^a-z0-9]", "", text.lower())


def _fix_dead_anchors(docs: list[DocumentInfo]) -> list[Fix]:
    """Rewrite a broken ``#fragment`` when exactly one real anchor matches.

    "Matches" means the letters-and-digits skeleton is identical — the
    author wrote ``#Set_Up`` or ``#set--up`` for the heading anchored as
    ``set-up``.  Anything looser is a judgment call, not a mechanical fix.
    """
    anchors_by_url = {doc.url: doc.anchors for doc in docs}
    out: list[Fix] = []
    for doc, ref, problem in links.check_internal_refs(docs):
        if "broken anchor" not in problem or not ref.fragment:
            continue
        if ref.path:
            normalized = ref.path if ref.path.endswith("/") else ref.path + "/"
            anchors = anchors_by_url.get(normalized)
        else:
            anchors = doc.anchors
        if not anchors:
            continue
        want = _letters(ref.fragment)
        candidates = sorted(a for a in anchors if _letters(a) == want)
        if len(candidates) != 1:
            continue
        fragment_col = ref.column + len(ref.path) + 1
        out.append(Fix(
            "internal-link", doc.file, ref.line, ref.column, problem,
            f"rewrite anchor #{ref.fragment} as #{candidates[0]}",
            edits=(Edit(ref.line, fragment_col, ref.line,
                        fragment_col + len(ref.fragment), candidates[0]),)))
    return out


def _safe_slug(text: str) -> str:
    try:
        return slugify(text)
    except SiteError:
        return text


def _fix_duplicate_slugs(docs: list[DocumentInfo]) -> list[Fix]:
    by_slug: dict[str, list[DocumentInfo]] = {}
    for doc in docs:
        by_slug.setdefault(doc.slug, []).append(doc)
    taken = {doc.slug for doc in docs}
    out: list[Fix] = []
    for slug, group in sorted(by_slug.items()):
        if len(group) < 2:
            continue
        names = sorted(d.name for d in group)
        for doc in group[1:]:
            suffix = 2
            while _safe_slug(f"{doc.name}-{suffix}") in taken:
                suffix += 1
            new_name = f"{doc.name}-{suffix}"
            taken.add(_safe_slug(new_name))
            out.append(Fix(
                "duplicate-slug", doc.file, doc.title_line, 1,
                f"slug {slug!r} is shared by activities {names} "
                f"(URLs collide)",
                f"rename {Path(doc.file).name} to {new_name}.md",
                rename_to=new_name))
    return out


# -- applying ----------------------------------------------------------------


def apply_edits(text: str, edits: Iterable[Edit],
                ) -> tuple[str, set[Edit], set[Edit]]:
    """Apply non-overlapping edits to ``text``.

    Returns ``(new_text, applied, skipped)``.  Edits are deduplicated,
    ordered by source position, and applied greedily: an edit overlapping
    an already-accepted span is skipped (the caller re-generates fixes and
    retries on the rewritten text).
    """
    line_starts = [0]
    for line in text.split("\n")[:-1]:
        line_starts.append(line_starts[-1] + len(line) + 1)

    def offset(line: int, column: int) -> int:
        index = min(max(line, 1), len(line_starts)) - 1
        return min(line_starts[index] + max(column, 1) - 1, len(text))

    ordered = sorted(set(edits), key=lambda e: (
        offset(e.start_line, e.start_column),
        offset(e.end_line, e.end_column), e.replacement))
    applied: set[Edit] = set()
    skipped: set[Edit] = set()
    pieces: list[str] = []
    consumed = 0
    for edit in ordered:
        start = offset(edit.start_line, edit.start_column)
        end = offset(edit.end_line, edit.end_column)
        if end < start or start < consumed \
                or (start == consumed and pieces and start == end
                    and pieces[-1] == ""):
            skipped.add(edit)
            continue
        pieces.append(text[consumed:start])
        pieces.append(edit.replacement)
        consumed = end
        applied.add(edit)
    pieces.append(text[consumed:])
    return "".join(pieces), applied, skipped


@dataclass
class FixReport:
    """What one ``--fix`` run did."""

    applied: int = 0
    skipped: int = 0
    iterations: int = 0
    changed_files: list[str] = field(default_factory=list)
    renamed: list[tuple[str, str]] = field(default_factory=list)
    remaining: object = None             # final LintResult

    def note_changed(self, file: str) -> None:
        if file not in self.changed_files:
            self.changed_files.append(file)


def _roundtrip_ok(path: Path, before: str, after: str) -> bool:
    """A file that parsed before the edits must still parse after.

    Python sources round-trip through ``ast.parse`` (code-pass fixes),
    everything else through the activity parser.  A file that did not
    parse before carries no proof obligation.
    """
    if path.suffix == ".py":
        import ast

        try:
            ast.parse(before)
        except SyntaxError:
            return True
        try:
            ast.parse(after)
        except SyntaxError:
            return False
        return True
    try:
        parse_activity(path.stem, before)
    except ReproError:
        return True
    try:
        parse_activity(path.stem, after)
    except ReproError:
        return False
    return True


def _apply_file_fixes(path: Path, fixes: list[Fix],
                      report: FixReport) -> bool:
    """Apply every span edit for one file; returns True when it changed.

    Reverts the file (and counts every fix as skipped) when a previously
    parseable file stops parsing after the edits — the round-trip proof
    that a fix never trades a finding for a corrupt document.
    """
    edit_fixes = [fix for fix in fixes if fix.edits]
    if not edit_fixes:
        return False
    try:
        text = path.read_text(encoding="utf-8")
    except OSError:
        report.skipped += len(edit_fixes)
        return False
    all_edits = [edit for fix in edit_fixes for edit in fix.edits]
    new_text, applied, _ = apply_edits(text, all_edits)
    if new_text == text:
        report.skipped += len(edit_fixes)
        return False
    if not _roundtrip_ok(path, text, new_text):
        report.skipped += len(edit_fixes)
        return False
    path.write_text(new_text, encoding="utf-8")
    for fix in edit_fixes:
        if all(edit in applied for edit in fix.edits):
            report.applied += 1
        else:
            report.skipped += 1
    report.note_changed(str(path))
    return True


def _apply_renames(fixes: list[Fix], report: FixReport) -> bool:
    progressed = False
    for fix in fixes:
        if fix.rename_to is None:
            continue
        path = Path(fix.file)
        target = path.with_name(f"{fix.rename_to}.md")
        if not path.exists() or target.exists():
            report.skipped += 1
            continue
        path.rename(target)
        report.applied += 1
        report.renamed.append((str(path), str(target)))
        report.note_changed(str(path))
        progressed = True
    return progressed


def fix_engine(engine, max_iterations: int = 10) -> FixReport:
    """Drive ``engine`` to a fixed point, applying fixes on disk.

    Each iteration lints, applies every applicable fix, and repeats until
    a lint reports no fixes (or no fix makes progress).  The returned
    report carries the final :class:`~repro.lint.engine.LintResult` so
    callers can render what remains *after* remediation.
    """
    report = FixReport()
    result = engine.lint()
    for _ in range(max_iterations):
        fixes = result.fixes
        if not fixes:
            break
        report.iterations += 1
        by_file: dict[str, list[Fix]] = {}
        for fix in fixes:
            by_file.setdefault(fix.file, []).append(fix)
        progressed = False
        for file, file_fixes in sorted(by_file.items()):
            if _apply_file_fixes(Path(file), file_fixes, report):
                progressed = True
            if _apply_renames(file_fixes, report):
                progressed = True
        if not progressed:
            break
        result = engine.lint()
    report.remaining = result
    return report


@dataclass
class CheckReport:
    """What ``--fix --check`` *would* do (dry run)."""

    pending: int = 0                     # fixes that would apply
    diffs: list[str] = field(default_factory=list)
    renamed: list[tuple[str, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.pending == 0 and not self.diffs and not self.renamed


def check_fixes(config) -> CheckReport:
    """Dry-run the fixer over a scratch copy of the corpus.

    Copies the content directory into a temp dir, runs the real fixer
    there, and reports unified diffs against the originals — the check is
    exactly as strong as ``--fix`` itself because it *is* ``--fix``.
    """
    from repro.lint.engine import LintEngine

    report = CheckReport()
    content_dir = Path(config.content_dir)
    with tempfile.TemporaryDirectory(prefix="lint-fix-check-") as scratch:
        scratch_dir = Path(scratch) / "content"
        scratch_dir.mkdir()
        originals: dict[str, str] = {}
        for source in sorted(content_dir.glob("*.md")):
            text = source.read_text(encoding="utf-8")
            originals[source.name] = text
            (scratch_dir / source.name).write_text(text, encoding="utf-8")
        # The scratch copy holds only the content corpus: the code pass
        # must stay off or its (now fixable) findings would drive the
        # fixer at the *real* source tree.
        scratch_config = replace(config, content_dir=scratch_dir,
                                 cache_dir=None, code=False,
                                 changed_only=None)
        fix_report = fix_engine(LintEngine(scratch_config))
        report.pending = fix_report.applied
        for old, new in fix_report.renamed:
            report.renamed.append((Path(old).name, Path(new).name))
        fixed = {path.name: path.read_text(encoding="utf-8")
                 for path in sorted(scratch_dir.glob("*.md"))}
        for name in sorted(set(originals) | set(fixed)):
            before = originals.get(name, "")
            after = fixed.get(name, "")
            if before == after:
                continue
            diff = difflib.unified_diff(
                before.splitlines(keepends=True),
                after.splitlines(keepends=True),
                fromfile=f"a/{name}", tofile=f"b/{name}")
            report.diffs.append("".join(diff))
    return report


def render_check_report(report: CheckReport) -> str:
    """Human-readable ``--fix --check`` output."""
    lines: list[str] = []
    for old, new in report.renamed:
        lines.append(f"rename {old} -> {new}")
    lines.extend(diff.rstrip("\n") for diff in report.diffs)
    if report.clean:
        lines.append("no fixes pending")
    else:
        lines.append(f"{report.pending} fix(es) pending in "
                     f"{len(report.diffs)} file(s)"
                     + (f", {len(report.renamed)} rename(s)"
                        if report.renamed else ""))
    return "\n".join(lines) + "\n"
