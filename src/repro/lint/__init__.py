"""repro.lint — incremental static analysis for the repository.

Three passes over three artifact kinds:

* **content** — the activity corpus: front-matter schema, taxonomy and
  curriculum-standards vocabularies, section structure, citations,
  duplicate slugs/titles, internal links and anchors.
* **site** — the scaffolding: theme templates (undefined partials and
  variables), archetype drift against the schema, orphaned taxonomy
  terms.
* **code** — concurrency hygiene of :mod:`repro.serve`: unlocked writes
  to shared state, blocking I/O under a held lock, and deadlock-risk
  shapes in the per-class lock-acquisition graph
  (:mod:`~repro.lint.lockgraph`).

Beyond detection, mechanical rules carry remediations: the fixit
pipeline (:mod:`~repro.lint.fixes`, ``lint --fix``) applies
span-anchored edits and canonical rewrites that round-trip through the
activity parser.  The fingerprint cache persists across processes via
``--cache-dir`` (:mod:`~repro.lint.cachefile`), and a baseline file
(:mod:`~repro.lint.baseline`) lets new rules land warn-first.

Entry points: :class:`LintEngine` (library), ``pdcunplugged lint``
(CLI), and ``GET /api/lint`` (serve layer).
"""

from repro.lint.diagnostics import (
    RULES,
    Diagnostic,
    Rule,
    Severity,
    Span,
    sort_key,
)
from repro.lint.engine import LintConfig, LintEngine, LintResult, LintStats
from repro.lint.baseline import load_baseline, write_baseline
from repro.lint.fixes import (
    Edit,
    Fix,
    FixReport,
    CheckReport,
    check_fixes,
    fix_engine,
    render_check_report,
)

# Importing the rule modules registers every rule in RULES
# (rules_code pulls in lockgraph, forksafety, and resources).
from repro.lint import rules_code, rules_content, rules_site  # noqa: F401
from repro.lint.reporters import (
    REPORTERS,
    render_json,
    render_sarif,
    render_text,
)

__all__ = [
    "CheckReport",
    "Diagnostic",
    "Edit",
    "Fix",
    "FixReport",
    "LintConfig",
    "LintEngine",
    "LintResult",
    "LintStats",
    "REPORTERS",
    "RULES",
    "Rule",
    "Severity",
    "Span",
    "check_fixes",
    "fix_engine",
    "load_baseline",
    "render_check_report",
    "render_json",
    "render_sarif",
    "render_text",
    "sort_key",
    "write_baseline",
]
