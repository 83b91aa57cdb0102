"""Code-pass rules: concurrency hygiene for the serve layer.

An AST pass over ``src/repro/serve/`` (or any Python tree) that encodes
the locking conventions the serving code actually follows, so drift shows
up as a diagnostic instead of a race:

* ``serve-unlocked-write`` — a method of a lock-owning class assigns to
  an instance attribute outside any lock scope.
* ``serve-blocking-io-under-lock`` — a known blocking call (``open``,
  ``time.sleep``, ``Path.read_text`` …) happens lexically inside a held
  lock, stalling every other thread contending for it.
* ``serve-lock-order`` — the lock-acquisition graph has a deadlock
  shape: a non-reentrant lock nested inside itself, a held-before cycle
  between two locks, or — at corpus scope, stitched across class
  boundaries via attribute bindings — a cycle spanning classes
  (see :mod:`repro.lint.lockgraph`).

Heuristics, deliberately conservative (convention-encoding, not proof):

* A class "owns locks" when ``__init__`` assigns
  ``self.X = threading.Lock()`` / ``RLock()`` / ``Condition()``, or a
  dataclass class body declares
  ``X: ... = field(default_factory=threading.Lock)``.  A ``Condition``
  is a lock plus a wait queue, so ``with self._cond:`` scopes count
  exactly like ``with self._lock:``.
* A lock scope is ``with self.<lock-attr>:`` or a ``with
  self.<anything>_locked():`` context-manager call; methods whose *own*
  name ends in ``_locked`` are callee-side critical sections and exempt
  in full, as is ``__init__`` (no concurrent access before construction
  completes).
* A lexical ``self.X.acquire(...)`` earlier in the function covers later
  writes (the manual acquire/release idiom).

Classes without locks are exempt: single-threaded by design is a choice,
not a bug.
"""

from __future__ import annotations

import ast
import gc
import threading
from pathlib import Path

from repro.lint import forksafety, lockgraph, resources
from repro.lint.diagnostics import Diagnostic, Severity, make, rule
from repro.lint.fixes import Fix

__all__ = ["analyze_source", "analyze_source_full", "analyze_tree"]

rule("serve-unlocked-write", "code", Severity.WARNING,
     "instance attributes of lock-owning classes are written under a lock")
rule("serve-blocking-io-under-lock", "code", Severity.WARNING,
     "no blocking I/O while holding a lock")

#: Bare-name calls treated as blocking.
_BLOCKING_NAMES = frozenset({"open", "input"})

#: Attribute-call names treated as blocking (``x.sleep(...)`` etc.).
_BLOCKING_ATTRS = frozenset({
    "sleep", "read_text", "write_text", "read_bytes", "write_bytes",
    "urlopen", "urlretrieve", "getaddrinfo", "gethostbyname",
})

def _self_attr(node: ast.AST) -> str | None:
    """Return ``attr`` when ``node`` is ``self.attr``, else ``None``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _lock_attr_kinds(cls: ast.ClassDef) -> dict[str, str]:
    """Instance lock attributes, attr -> kind (``lockgraph._LOCK_KINDS``)."""
    return lockgraph.lock_attr_kinds(cls)


def _lock_attrs(cls: ast.ClassDef) -> set[str]:
    """Names of instance attributes holding locks."""
    return set(_lock_attr_kinds(cls))


def _is_lock_context(item: ast.withitem, locks: set[str]) -> bool:
    """``with self.<lock>:`` or ``with self.<name>_locked():``."""
    expr = item.context_expr
    attr = _self_attr(expr)
    if attr is not None and attr in locks:
        return True
    if isinstance(expr, ast.Call):
        attr = _self_attr(expr.func)
        if attr is not None and (attr in locks or attr.endswith("_locked")):
            return True
    return False


def _blocking_call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name) and func.id in _BLOCKING_NAMES:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _BLOCKING_ATTRS:
        return func.attr
    return None


class _MethodVisitor(ast.NodeVisitor):
    """One pass over a method body tracking lexical lock depth."""

    def __init__(self, file: str, cls: str, method: str, locks: set[str]):
        self.file = file
        self.cls = cls
        self.method = method
        self.locks = locks
        self.lock_depth = 0
        self.acquired_at: int | None = None   # lineno of first .acquire()
        self.diagnostics: list[Diagnostic] = []

    # -- lock scopes --------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        held = any(_is_lock_context(item, self.locks) for item in node.items)
        for item in node.items:
            self.visit(item.context_expr)
        if held:
            self.lock_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if held:
            self.lock_depth -= 1

    visit_AsyncWith = visit_With  # type: ignore[assignment]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested function body runs later, possibly on another thread;
        # do not carry the enclosing lock scope into it.
        saved, self.lock_depth = self.lock_depth, 0
        self.generic_visit(node)
        self.lock_depth = saved

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- findings -----------------------------------------------------------

    def _note_write(self, target: ast.AST, lineno: int, col: int) -> None:
        attr = _self_attr(target)
        if attr is None or attr in self.locks:
            return
        if self.lock_depth > 0:
            return
        if self.acquired_at is not None and lineno >= self.acquired_at:
            return
        self.diagnostics.append(make(
            "serve-unlocked-write", self.file, lineno, col + 1,
            f"{self.cls}.{self.method} writes self.{attr} outside a lock "
            f"scope (class owns {sorted(self.locks)})"))

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._note_write(target, node.lineno, node.col_offset)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_write(node.target, node.lineno, node.col_offset)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._note_write(node.target, node.lineno, node.col_offset)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "acquire":
            owner = _self_attr(func.value)
            if owner is not None and owner in self.locks:
                if self.acquired_at is None:
                    self.acquired_at = node.lineno
        blocking = _blocking_call_name(node)
        if blocking is not None and self.lock_depth > 0:
            self.diagnostics.append(make(
                "serve-blocking-io-under-lock", self.file,
                node.lineno, node.col_offset + 1,
                f"{self.cls}.{self.method} calls blocking {blocking}() "
                f"while holding a lock"))
        self.generic_visit(node)


class _GcPause:
    """Counting guard: cyclic GC stays paused while any parse is in flight.

    Unlike a plain lock around the parse, the guard does not serialize
    parsers — any number of threads parse concurrently; only the
    first-in disables collection and only the last-out restores it, so
    overlapping holders can never re-enable GC under each other.
    Reentrant within a thread (it is just a counter).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> "_GcPause":
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                if self._was_enabled:
                    gc.disable()
            self._depth += 1
        return self

    def __exit__(self, *exc_info: object) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()

    @property
    def depth(self) -> int:
        with self._lock:
            return self._depth


_PARSE_GUARD = _GcPause()


def _parse(source: str) -> ast.Module:
    """``ast.parse`` with the cyclic GC paused for the duration.

    On CPython 3.11, a garbage collection that fires while the parser is
    converting the C AST to Python objects — easy to hit once anything
    (e.g. hypothesis) has registered Python-level ``gc.callbacks`` — dies
    with ``SystemError: AST constructor recursion depth mismatch``.  It is
    not a real syntax problem: pausing collection around the parse
    (reference counting still runs) avoids it entirely.  The counting
    guard keeps that true for concurrent callers of :func:`analyze_source`
    (GC is off while *any* parse runs, restored when the last finishes); a
    fresh-thread retry backstops anything that still slips through.
    """
    with _PARSE_GUARD:
        try:
            return ast.parse(source)
        except (RecursionError, SystemError):
            result: list = []

            def worker() -> None:
                try:
                    result.append(ast.parse(source))
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    result.append(exc)

            thread = threading.Thread(target=worker, name="lint-ast-retry")
            thread.start()
            thread.join()
            if result and isinstance(result[0], ast.Module):
                return result[0]
            raise


def analyze_source_full(
    file: str, source: str,
) -> tuple[list[Diagnostic], tuple[Fix, ...],
           tuple[lockgraph.ClassSummary, ...],
           forksafety.ModuleSummary | None]:
    """Run the per-file code rules; also distill corpus summaries.

    Returns ``(diagnostics, fixes, class summaries, module summary)``.
    The class summaries feed
    :func:`repro.lint.lockgraph.analyze_cross_class` and the module
    summary feeds :func:`repro.lint.forksafety.analyze_corpus` at corpus
    scope — both are cached alongside the diagnostics, so an incremental
    run re-summarizes only changed files.
    """
    try:
        tree = _parse(source)
    except SyntaxError as exc:
        return [make("serve-unlocked-write", file, exc.lineno or 1,
                     (exc.offset or 0) + 1,
                     f"file does not parse: {exc.msg}")], (), (), None
    out: list[Diagnostic] = []
    summaries: list[lockgraph.ClassSummary] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        kinds = _lock_attr_kinds(node)
        locks = set(kinds)
        if not locks:
            continue
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name == "__init__" or stmt.name.endswith("_locked"):
                continue
            visitor = _MethodVisitor(file, node.name, stmt.name, locks)
            for inner in stmt.body:
                visitor.visit(inner)
            out.extend(visitor.diagnostics)
        out.extend(lockgraph.analyze_class(file, node, kinds))
        summaries.append(lockgraph.summarize_class(file, node, kinds))
    resource_diags, resource_fixes = resources.run_file(file, tree, source)
    out.extend(resource_diags)
    fork_summary = forksafety.summarize_module(file, tree)
    return out, tuple(resource_fixes), tuple(summaries), fork_summary


def analyze_source(file: str, source: str) -> list[Diagnostic]:
    """Run the per-file code rules over one Python source file."""
    return analyze_source_full(file, source)[0]


def analyze_tree(root: str | Path) -> list[Diagnostic]:
    """Run the code pass — per-file rules plus the cross-class lock and
    fork-safety corpus passes — over every ``*.py`` under ``root``."""
    out: list[Diagnostic] = []
    summaries: list[lockgraph.ClassSummary] = []
    fork_summaries: list[forksafety.ModuleSummary | None] = []
    for path in sorted(Path(root).rglob("*.py")):
        diags, _fixes, file_summaries, fork_summary = analyze_source_full(
            str(path), path.read_text(encoding="utf-8"))
        out.extend(diags)
        summaries.extend(file_summaries)
        fork_summaries.append(fork_summary)
    out.extend(lockgraph.analyze_cross_class(summaries))
    out.extend(forksafety.analyze_corpus(fork_summaries))
    return out
