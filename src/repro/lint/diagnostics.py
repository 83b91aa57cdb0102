"""Core lint vocabulary: severities, spans, diagnostics, the rule registry.

A *rule* is a named invariant with a default severity; a *diagnostic* is
one violation of a rule at a source location.  Rules live in one of three
passes:

* ``content`` — per-activity and corpus-wide checks over the Markdown
  corpus (front-matter schema, taxonomy/standards tags, sections,
  citations, internal links, duplicate slugs/titles),
* ``site``    — checks over the theme templates and site scaffolding
  (undefined partials/variables, archetype drift, orphan terms),
* ``code``    — concurrency-hygiene AST checks over the serving layer.

Diagnostics are value objects ordered by a stable key so a report does
not depend on the order files were analyzed in.  Severity overrides are
applied at *report* time, never baked into cached diagnostics, so a config
change does not invalidate the per-file cache.

Suppression comments (checked by the engine when filtering):

* Markdown: ``<!-- lint:disable=rule-a,rule-b -->`` anywhere in the file
  suppresses those rules file-wide; ``<!-- lint:disable-line=rule -->``
  suppresses on its own line and the next.
* Python: ``# lint: disable=rule`` on the flagged line or the line above.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field, replace

__all__ = [
    "Severity",
    "Span",
    "Diagnostic",
    "Rule",
    "RULES",
    "rule",
    "sort_key",
    "markdown_suppressions",
    "python_suppressions",
    "is_suppressed",
]


class Severity(enum.Enum):
    """Diagnostic severity, ordered ``info < warning < error``."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return ("info", "warning", "error").index(self.value)

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls(text.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown severity {text!r} (expected info, warning, or error)"
            ) from None


@dataclass(frozen=True)
class Span:
    """1-based source position; ``line=0`` marks a whole-file finding."""

    line: int = 0
    column: int = 0


@dataclass(frozen=True)
class Diagnostic:
    """One rule violation at one location."""

    rule_id: str
    severity: Severity
    file: str
    span: Span
    message: str

    def with_severity(self, severity: Severity) -> "Diagnostic":
        return replace(self, severity=severity)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "severity": self.severity.value,
            "file": self.file,
            "line": self.span.line,
            "column": self.span.column,
            "message": self.message,
        }


def sort_key(diag: Diagnostic) -> tuple:
    """Total order making lint output deterministic across schedules."""
    return (diag.file, diag.span.line, diag.span.column,
            diag.rule_id, diag.message)


@dataclass(frozen=True)
class Rule:
    """Registry entry for one lint rule."""

    id: str
    pass_name: str                       # "content" | "site" | "code"
    severity: Severity
    description: str
    per_file: bool = True                # False: needs the whole corpus


#: Every known rule, id -> :class:`Rule`.  Populated by :func:`rule` at
#: import time of the ``rules_*`` modules (re-registration is idempotent).
RULES: dict[str, Rule] = {}


def rule(rule_id: str, pass_name: str, severity: Severity,
         description: str, per_file: bool = True) -> Rule:
    """Register (or look up) a rule definition."""
    existing = RULES.get(rule_id)
    if existing is not None:
        return existing
    entry = Rule(rule_id, pass_name, severity, description, per_file)
    RULES[rule_id] = entry
    return entry


def make(rule_id: str, file: str, line: int, column: int, message: str,
         ) -> Diagnostic:
    """Build a diagnostic carrying its rule's default severity."""
    return Diagnostic(rule_id, RULES[rule_id].severity, file,
                      Span(line, column), message)


# -- suppression comments ----------------------------------------------------

_MD_FILE_RE = re.compile(r"<!--\s*lint:disable=([\w,\- ]+?)\s*-->")
_MD_LINE_RE = re.compile(r"<!--\s*lint:disable-line=([\w,\- ]+?)\s*-->")
_PY_LINE_RE = re.compile(r"#\s*lint:\s*disable=([\w,\-]+)")


def _split_rules(raw: str) -> frozenset[str]:
    return frozenset(part.strip() for part in raw.split(",") if part.strip())


@dataclass(frozen=True)
class Suppressions:
    """Parsed suppression comments for one source file."""

    file_rules: frozenset[str] = frozenset()
    line_rules: tuple[tuple[int, frozenset[str]], ...] = ()
    #: How far below the comment line a suppression reaches (markdown
    #: comments suppress the next line; python comments the line above).
    reach: int = 1

    def _rules_at(self, line: int) -> frozenset[str]:
        out: set[str] = set()
        for comment_line, rules in self.line_rules:
            if comment_line <= line <= comment_line + self.reach:
                out.update(rules)
        return frozenset(out)

    def suppresses(self, rule_id: str, line: int) -> bool:
        if rule_id in self.file_rules:
            return True
        return rule_id in self._rules_at(line)


def markdown_suppressions(text: str) -> Suppressions:
    """Suppressions for a Markdown source file."""
    file_rules: set[str] = set()
    line_rules: list[tuple[int, frozenset[str]]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        for match in _MD_LINE_RE.finditer(line):
            line_rules.append((lineno, _split_rules(match.group(1))))
        # Strip disable-line comments first so the file-wide pattern does
        # not also match them (`disable=` is a prefix of `disable-line=`).
        remaining = _MD_LINE_RE.sub("", line)
        for match in _MD_FILE_RE.finditer(remaining):
            file_rules.update(_split_rules(match.group(1)))
    return Suppressions(frozenset(file_rules), tuple(line_rules), reach=1)


def python_suppressions(text: str) -> Suppressions:
    """Suppressions for a Python source file (same line or line below)."""
    line_rules: list[tuple[int, frozenset[str]]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        match = _PY_LINE_RE.search(line)
        if match:
            line_rules.append((lineno, _split_rules(match.group(1))))
    return Suppressions(frozenset(), tuple(line_rules), reach=1)


def is_suppressed(diag: Diagnostic, suppressions: Suppressions | None) -> bool:
    if suppressions is None:
        return False
    return suppressions.suppresses(diag.rule_id, diag.span.line)
