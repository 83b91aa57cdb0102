"""The lint engine: incremental and deterministic.

Incrementality uses the same content fingerprint the activity catalog and
the serve layer's rebuild scanner key on — ``(name, mtime_ns, size)`` per
file, from :func:`repro.ioutil.file_fingerprint` — so all three
subsystems agree about what "changed" means.  The per-file cache stores
*raw* diagnostics (rule-default severities) plus the distilled
:class:`~repro.lint.document.DocumentInfo` and the file's
suppression comments; severity overrides, disabled rules, and suppression
filtering are applied at report time, so reconfiguring the linter never
invalidates the cache.

Corpus-scope rules (duplicate slugs, internal links, orphan terms) re-run
on every lint over the cached ``DocumentInfo`` set — they are cheap, and
their verdicts legitimately depend on files that did *not* change.

The final report is globally sorted by
:func:`~repro.lint.diagnostics.sort_key`, so output does not depend on
the order files are listed or analyzed in.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Mapping, TypeVar

from repro.ioutil import file_fingerprint
from repro.lint import (
    cachefile,
    forksafety,
    lockgraph,
    rules_code,
    rules_content,
    rules_site,
)
from repro.lint.baseline import baseline_key, load_baseline
from repro.lint.diagnostics import (
    RULES,
    Diagnostic,
    Severity,
    Suppressions,
    is_suppressed,
    make,
    python_suppressions,
    rule,
    sort_key,
)
from repro.lint.document import DocumentInfo, load_document
from repro.lint.fixes import Fix, fixes_for_corpus, fixes_for_document

__all__ = ["LintConfig", "LintStats", "LintResult", "LintEngine"]

# A rule or the engine itself crashing must not take the whole run down
# (or collapse into a bare exit-2 message): the failure surfaces as a
# synthetic ERROR diagnostic so SARIF consumers see it, with the full
# traceback on stderr.  Crashed rows are never cached.
rule("lint-internal-error", "engine", Severity.ERROR,
     "the lint engine analyzed every file without crashing")

_T = TypeVar("_T")

Fingerprint = tuple[str, int, int]      # repro.ioutil.file_fingerprint


@dataclass
class LintConfig:
    """What to lint and how to report it."""

    content_dir: Path
    code_dir: Path | None = None         # default: repro.serve package dir
    theme: Mapping[str, str] | None = None
    archetype_sections: tuple[str, ...] | None = None
    content: bool = True
    site: bool = True
    code: bool = True
    severity_overrides: dict[str, Severity] = field(default_factory=dict)
    disabled: frozenset[str] = frozenset()
    #: When set (``--select``): only these rule ids are reported.
    #: Report-time only, like ``disabled`` — composes with the cache
    #: (no invalidation) and with ``--changed`` scoping.
    selected: frozenset[str] | None = None
    cache_dir: Path | None = None        # persist the fingerprint table here
    baseline: Path | None = None         # .lintbaseline.json (warn-first)
    #: When set (``--changed <ref>``): resolved absolute paths that
    #: changed vs the ref.  Analysis is restricted to those files plus
    #: their cross-class dependents from the summary graph; unchanged
    #: files are served from cache when fresh and skipped otherwise.
    changed_only: frozenset[str] | None = None

    def validate(self) -> None:
        unknown = (set(self.severity_overrides) | set(self.disabled)
                   | set(self.selected or ())) - set(RULES)
        if unknown:
            raise ValueError(
                f"unknown lint rule(s): {', '.join(sorted(unknown))}")


@dataclass
class LintStats:
    """Where the work went — proves incrementality in tests and --stats."""

    files_total: int = 0
    files_analyzed: int = 0              # parsed / AST-visited this run
    files_cached: int = 0                # served from the fingerprint cache
    files_skipped: int = 0               # outside --changed scope, no cache
    baselined: int = 0                   # findings filtered by the baseline
    internal_errors: int = 0             # rule/engine crashes survived


@dataclass
class LintResult:
    """One lint run's report."""

    diagnostics: list[Diagnostic]
    stats: LintStats
    fixes: list[Fix] = field(default_factory=list)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def counts(self) -> dict[str, int]:
        return {s.value: self.count(s) for s in Severity}

    @property
    def fixable(self) -> int:
        """How many reported findings carry a machine-applicable fix."""
        return len(self.fixes)

    def exit_code(self, fail_on: Severity = Severity.ERROR) -> int:
        worst = max((d.severity.rank for d in self.diagnostics), default=-1)
        return 1 if worst >= fail_on.rank else 0


#: Cache rows: fingerprint -> (raw diagnostics, fixes, info, suppressions).
_ContentRow = tuple[Fingerprint, tuple[Diagnostic, ...], tuple[Fix, ...],
                    DocumentInfo, Suppressions]
_CodeRow = tuple[Fingerprint, tuple[Diagnostic, ...], tuple[Fix, ...],
                 Suppressions, tuple[lockgraph.ClassSummary, ...],
                 forksafety.ModuleSummary | None]


class LintEngine:
    """Reusable incremental linter; one instance per corpus."""

    def __init__(self, config: LintConfig):
        config.validate()
        self.config = config
        self._lock = threading.Lock()    # serializes lint(); caches below
        self._content_cache: dict[str, _ContentRow] = {}
        self._code_cache: dict[str, _CodeRow] = {}
        self._persistent_loaded = False
        self._cache_dirty = False

    # -- the persistent cache ------------------------------------------------

    def _load_persistent(self) -> None:
        """Warm the in-memory caches from ``cache_dir`` (once, lazily)."""
        if self._persistent_loaded or self.config.cache_dir is None:
            return
        self._persistent_loaded = True
        content, code = cachefile.load_cache(self.config.cache_dir)
        # Disk rows never clobber rows this process already computed.
        for key, row in content.items():
            self._content_cache.setdefault(key, row)
        for key, row in code.items():
            self._code_cache.setdefault(key, row)

    def _save_persistent(self, seen_content: set[str],
                         seen_code: set[str]) -> None:
        """Spill the caches back to disk, pruning rows for deleted files."""
        if self.config.cache_dir is None:
            return
        stale = ((set(self._content_cache) - seen_content)
                 | (set(self._code_cache) - seen_code))
        for key in stale:
            self._content_cache.pop(key, None)
            self._code_cache.pop(key, None)
        if not self._cache_dirty and not stale:
            return
        cachefile.save_cache(self.config.cache_dir,
                             self._content_cache, self._code_cache)
        self._cache_dirty = False

    # -- internal-error containment -----------------------------------------

    def _note_internal_error(self, label: str, file: str,
                             exc: BaseException) -> None:
        """Record a crash as a synthetic diagnostic + stderr traceback."""
        self._internal_stats_errors += 1
        self._internal_diags.append(make(
            "lint-internal-error", file, 0, 0,
            f"{label} crashed: {type(exc).__name__}: {exc}"))
        print(f"lint-internal-error [{label}] {file}:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)

    def _guard(self, label: str, file: str, fn: Callable[[], _T],
               fallback: _T) -> _T:
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - containment is the point
            self._note_internal_error(label, file, exc)
            return fallback

    # -- per-file analysis (cache-aware) ------------------------------------

    def _analyze_content(self, path: Path) -> tuple[_ContentRow, bool]:
        key = str(path)
        try:
            fingerprint = file_fingerprint(path)
            cached = self._content_cache.get(key)
            if cached is not None and cached[0] == fingerprint:
                return cached, True
            doc = load_document(path)
            row: _ContentRow = (fingerprint,
                                tuple(rules_content.run_per_file(doc)),
                                tuple(fixes_for_document(doc)),
                                doc.info, doc.suppressions)
        except Exception as exc:  # noqa: BLE001 - containment is the point
            self._note_internal_error(f"content:{path.name}", key, exc)
            # Degraded row: enough for corpus rules to skip it.  Never
            # cached, so the file is re-analyzed next run.
            info = DocumentInfo(
                file=key, name=path.stem, slug=path.stem, title="",
                title_line=0, url=f"/activities/{path.stem}/",
                anchors=frozenset(), internal_refs=(), terms=(),
                parse_failed=True)
            return ((key, -1, -1), (), (), info, Suppressions()), False
        self._content_cache[key] = row
        self._cache_dirty = True
        return row, False

    def _analyze_code(self, path: Path) -> tuple[_CodeRow, bool]:
        key = str(path)
        try:
            fingerprint = file_fingerprint(path)
            cached = self._code_cache.get(key)
            if cached is not None and cached[0] == fingerprint:
                return cached, True
            source = path.read_text(encoding="utf-8")
            diags, fixes, summaries, fork = rules_code.analyze_source_full(
                key, source)
            row: _CodeRow = (fingerprint, tuple(diags), tuple(fixes),
                             python_suppressions(source), summaries, fork)
        except Exception as exc:  # noqa: BLE001 - containment is the point
            self._note_internal_error(f"code:{path.name}", key, exc)
            return ((key, -1, -1), (), (), Suppressions(), (), None), False
        self._code_cache[key] = row
        self._cache_dirty = True
        return row, False

    def _map(self, paths: list[Path], analyze, stats: LintStats) -> list:
        """Apply ``analyze`` over ``paths``, tallying cached vs analyzed."""
        rows = []
        for path in paths:
            row, was_cached = analyze(path)
            if was_cached:
                stats.files_cached += 1
            else:
                stats.files_analyzed += 1
            rows.append(row)
        return rows

    # -- --changed restriction ----------------------------------------------

    def _partition_changed(
        self, paths: list[Path], allowed: set[str] | None,
        cache: dict, stats: LintStats,
    ) -> tuple[list[Path], list]:
        """Split ``paths`` into (to-analyze, cached rows) under --changed.

        Files outside the allowed set are served from the cache when the
        fingerprint still matches; otherwise they are skipped this run
        (and not reported on).  With no restriction every path is
        analyzed normally.
        """
        if allowed is None:
            return paths, []
        analyze: list[Path] = []
        reused: list = []
        # ``allowed`` holds resolved paths.  Resolve each directory once;
        # only a file that is itself a symlink needs a full resolve.
        resolved_dirs: dict[Path, Path] = {}
        for path in paths:
            if os.path.islink(path):
                resolved = path.resolve()
            else:
                parent = resolved_dirs.get(path.parent)
                if parent is None:
                    parent = resolved_dirs[path.parent] = path.parent.resolve()
                resolved = parent / path.name
            if str(resolved) in allowed:
                analyze.append(path)
                continue
            row = cache.get(str(path))
            try:
                fresh = row is not None and row[0] == file_fingerprint(path)
            except OSError:
                fresh = False
            if fresh:
                reused.append((str(path), row))
                stats.files_cached += 1
            else:
                stats.files_skipped += 1
        return analyze, reused

    def _code_dependents(self, changed: frozenset[str]) -> set[str]:
        """Resolved paths of files coupled to ``changed`` via class refs.

        Two files are coupled when one's functions call into a class the
        other defines (from the cached fork-safety module summaries —
        the same call edges the corpus pass resolves).  The closure is
        one hop: dependents of dependents did not change behaviorally.
        """
        defines: dict[str, set[str]] = {}      # class -> resolved files
        references: dict[str, set[str]] = {}   # resolved file -> classes
        for key, row in self._code_cache.items():
            summary = row[5]
            if summary is None:
                continue
            resolved = str(Path(key).resolve())
            for cls in summary.classes:
                defines.setdefault(cls, set()).add(resolved)
            refs = references.setdefault(resolved, set())
            for fn in summary.functions:
                for ev in fn.events:
                    if ev[0] == "call" and ev[1] in ("class", "ctor"):
                        refs.add(ev[2].split(".", 1)[0])
        out: set[str] = set()
        for file, classes in references.items():
            for cls in classes:
                deffiles = defines.get(cls, ())
                if file in changed:
                    out.update(deffiles)
                elif changed.intersection(deffiles):
                    out.add(file)
        return out

    # -- passes --------------------------------------------------------------

    def _content_pass(self, stats: LintStats) -> list[Diagnostic]:
        paths = sorted(Path(self.config.content_dir).glob("*.md"))
        stats.files_total += len(paths)
        self._seen_content = {str(path) for path in paths}
        allowed = (set(self.config.changed_only)
                   if self.config.changed_only is not None else None)
        self._allowed_content = allowed
        paths, reused = self._partition_changed(
            paths, allowed, self._content_cache, stats)
        rows = [row for _key, row in reused]
        rows += self._map(paths, self._analyze_content, stats)
        rows.sort(key=lambda row: row[3].file)
        suppressions = {row[3].file: row[4] for row in rows}
        diagnostics: list[Diagnostic] = []
        fixes: list[Fix] = []
        infos: list[DocumentInfo] = []
        for _fp, diags, file_fixes, info, _supp in rows:
            diagnostics.extend(diags)
            fixes.extend(file_fixes)
            infos.append(info)
        if self.config.content:
            diagnostics.extend(self._guard(
                "content-corpus", "<lint>",
                lambda: rules_content.run_corpus(infos), []))
            fixes.extend(self._guard(
                "content-corpus-fixes", "<lint>",
                lambda: fixes_for_corpus(infos), []))
        else:
            diagnostics = []
            fixes = []
        self._infos = infos
        self._content_suppressions = suppressions
        self._raw_fixes = fixes
        return diagnostics

    def _site_pass(self) -> list[Diagnostic]:
        return rules_site.run_site(
            self._infos,
            theme=self.config.theme,
            archetype_sections=self.config.archetype_sections,
        )

    def _code_pass(self, stats: LintStats) -> list[Diagnostic]:
        code_dir = self.config.code_dir
        if code_dir is not None:
            code_dirs = [Path(code_dir)]
        else:
            import repro.serve as serve
            import repro.sweep as sweep

            code_dirs = [Path(serve.__file__).parent,
                         Path(sweep.__file__).parent]
        paths = sorted(path for root in code_dirs
                       for path in Path(root).rglob("*.py"))
        stats.files_total += len(paths)
        self._seen_code = {str(path) for path in paths}
        allowed: set[str] | None = None
        if self.config.changed_only is not None:
            # Changed files plus their cross-class dependents, resolved
            # from the *cached* summaries (the coupling existed before
            # the edit; brand-new couplings surface on the next full run).
            allowed = set(self.config.changed_only)
            allowed |= self._code_dependents(self.config.changed_only)
        self._allowed_code = allowed
        paths, reused = self._partition_changed(
            paths, allowed, self._code_cache, stats)
        # Fans out like the content pass: rules_code._parse pauses cyclic
        # GC behind a *counting* guard (CPython 3.11 SystemError
        # workaround), so concurrent parses are safe.
        rows = {str(p): row for p, row in
                zip(paths, self._map(paths, self._analyze_code, stats))}
        rows.update(dict(reused))
        diagnostics: list[Diagnostic] = []
        summaries: list[lockgraph.ClassSummary] = []
        fork_summaries: list[forksafety.ModuleSummary | None] = []
        for key in sorted(rows):
            _fp, diags, fixes, supp, file_summaries, fork = rows[key]
            self._code_suppressions[key] = supp
            diagnostics.extend(diags)
            self._raw_fixes.extend(fixes)
            summaries.extend(file_summaries)
            fork_summaries.append(fork)
        # Corpus scope, like the content corpus rules: cheap to re-run
        # over cached summaries, and their verdicts legitimately depend
        # on files that did not change.
        diagnostics.extend(self._guard(
            "cross-class-locks", "<lint>",
            lambda: lockgraph.analyze_cross_class(summaries), []))
        diagnostics.extend(self._guard(
            "fork-safety", "<lint>",
            lambda: forksafety.analyze_corpus(fork_summaries), []))
        return diagnostics

    # -- the run -------------------------------------------------------------

    def lint(self) -> LintResult:
        """Run every enabled pass; thread-safe, incremental, deterministic."""
        with self._lock:
            self._load_persistent()
            stats = LintStats()
            self._infos = []
            self._content_suppressions: dict[str, Suppressions] = {}
            self._code_suppressions: dict[str, Suppressions] = {}
            self._raw_fixes: list[Fix] = []
            self._seen_content: set[str] = set()
            self._seen_code: set[str] = set()
            self._internal_diags: list[Diagnostic] = []
            self._internal_stats_errors = 0
            self._allowed_content: set[str] | None = None
            self._allowed_code: set[str] | None = None
            raw: list[Diagnostic] = []
            # The content files are always *scanned* (site rules need the
            # DocumentInfos) even when the content pass itself is disabled.
            raw.extend(self._content_pass(stats))
            if self.config.site:
                raw.extend(self._guard("site", "<lint>",
                                       self._site_pass, []))
            if self.config.code:
                raw.extend(self._code_pass(stats))
            raw.extend(self._internal_diags)
            stats.internal_errors = self._internal_stats_errors
            diagnostics, fixes = self._finalize(raw, self._raw_fixes, stats)
            self._save_persistent(self._seen_content, self._seen_code)
            return LintResult(diagnostics=diagnostics, stats=stats,
                              fixes=fixes)

    def _finalize(self, raw: Iterable[Diagnostic], raw_fixes: list[Fix],
                  stats: LintStats) -> tuple[list[Diagnostic], list[Fix]]:
        """Report-time filtering: suppressions, disables, baseline, config.

        Fixes survive only when their diagnostic does — a suppressed,
        disabled, or baselined finding must not be auto-"fixed" behind
        the author's back.  The join key is the diagnostic sort key, not
        object identity, so severity overrides don't sever the link.
        """
        baselined = (load_baseline(self.config.baseline)
                     if self.config.baseline is not None else frozenset())
        allowed_report: set[str] | None = None
        if self.config.changed_only is not None:
            allowed_report = ((self._allowed_content or set())
                              | (self._allowed_code or set()))
        out: list[Diagnostic] = []
        for diag in raw:
            if (allowed_report is not None and diag.file != "<lint>"
                    and str(Path(diag.file).resolve()) not in allowed_report):
                continue
            if diag.rule_id in self.config.disabled:
                continue
            if (self.config.selected is not None
                    and diag.rule_id not in self.config.selected):
                continue
            suppressions = (self._content_suppressions.get(diag.file)
                            or self._code_suppressions.get(diag.file))
            if suppressions is not None and is_suppressed(diag, suppressions):
                continue
            if baselined and baseline_key(diag) in baselined:
                stats.baselined += 1
                continue
            override = self.config.severity_overrides.get(diag.rule_id)
            if override is not None and override is not diag.severity:
                diag = diag.with_severity(override)
            out.append(diag)
        out.sort(key=sort_key)
        surviving = {sort_key(diag) for diag in out}
        fixes = sorted((fix for fix in raw_fixes if fix.key in surviving),
                       key=lambda fix: fix.key)
        return out, fixes
