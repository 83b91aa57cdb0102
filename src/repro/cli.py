"""The ``pdcunplugged`` command-line interface.

Subcommands::

    pdcunplugged report [table1|table2|courses|accessibility|resources|categories|gaps|all]
    pdcunplugged build <output-dir>          # render the static site
    pdcunplugged new <name> <content-dir>    # scaffold an activity (Fig. 1)
    pdcunplugged validate                    # validate the shipped corpus
    pdcunplugged simulate <activity> [-n N] [--seed S]
    pdcunplugged sweep <slug> [...] [--sizes 4,8,16] [--seeds 0,1]
                      [--param name=v1,v2] [--sweep-workers N]
                      [--cache-dir D] [--format table|json]
                                             # batch parameter sweep + compare
    pdcunplugged list                        # list corpus activities + sims
    pdcunplugged serve [--port P] [--workers N] [--cache-dir D]
                       [--worker-model thread|process]
                       [--request-timeout-ms B] [--fault-spec SPEC]
                       [--sweep-workers N] [--sweep-max-jobs J]
                                             # live site + JSON API server
    pdcunplugged lint [--format text|json|sarif] [--fix]
                      [--cache-dir D] [--baseline F]
                                             # static analysis (repro.lint)
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdcunplugged",
        description="PDCunplugged reproduction: corpus, coverage analytics, "
                    "site builder, and classroom simulations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser("report", help="print a reproduced table or statistic")
    report.add_argument(
        "which",
        nargs="?",
        default="all",
        choices=["table1", "table2", "courses", "accessibility",
                 "resources", "categories", "gaps", "all"],
    )

    build = sub.add_parser("build", help="render the static site")
    build.add_argument("output", help="output directory")
    build.add_argument("--strategy", choices=["indexed", "scan"], default="indexed")

    new = sub.add_parser("new", help="scaffold a new activity from the template")
    new.add_argument("name")
    new.add_argument("content_dir")
    new.add_argument("--title", default=None)

    sub.add_parser("validate", help="validate the shipped corpus")
    sub.add_parser("verify", help="verify the corpus reproduces the paper's numbers")
    sub.add_parser("list", help="list corpus activities and their simulations")

    search = sub.add_parser("search", help="full-text search over the curation")
    search.add_argument("query", nargs="+")
    search.add_argument("--limit", type=int, default=10)

    sub.add_parser("trends", help="historical trends over the curation")

    simulate = sub.add_parser("simulate", help="run an activity simulation")
    simulate.add_argument("activity", help="activity slug (see `list`)")
    simulate.add_argument("-n", "--students", type=int, default=16)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--gantt", action="store_true",
                          help="render the trace as a text Gantt chart")

    sweep = sub.add_parser(
        "sweep", help="run a batch parameter sweep and compare the results")
    sweep.add_argument("slugs", nargs="+", metavar="slug",
                       help="simulation slug(s) to sweep (see `list`)")
    sweep.add_argument("--sizes", default=None, metavar="N,N,...",
                       help="comma-separated classroom sizes (default: 16)")
    sweep.add_argument("--seeds", default=None, metavar="S,S,...",
                       help="comma-separated RNG seeds (default: 0)")
    sweep.add_argument("--param", action="append", default=[],
                       metavar="NAME=V1,V2,...",
                       help="sweep a classroom parameter over these values "
                            "(repeatable; e.g. step_time_jitter=0.0,0.2)")
    sweep.add_argument("--sweep-workers", type=int, default=1,
                       help="execute points on N worker processes")
    sweep.add_argument("--cache-dir", default=None,
                       help="persist point results here (identical points "
                            "are never re-executed across runs)")
    sweep.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="stop the sweep after this budget; remaining "
                            "points are skipped and reported")
    sweep.add_argument("--format", choices=["table", "json"], default="table",
                       help="output format")

    serve = sub.add_parser(
        "serve", help="serve the live site and JSON API (repro.serve)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--content-dir", default=None,
                       help="content directory (default: the packaged corpus)")
    serve.add_argument("--workers", type=int, default=1,
                       help="service connections on a pool of N threads "
                            "(thread model) or N forked worker processes "
                            "(process model)")
    serve.add_argument("--worker-model", choices=["thread", "process"],
                       default="thread",
                       help="'thread' (default) shares one process; "
                            "'process' pre-forks --workers processes that "
                            "accept on a shared socket — multi-core "
                            "rendering, crash isolation, per-process caches")
    serve.add_argument("--threads-per-worker", type=int, default=2,
                       help="threads inside each forked worker "
                            "(process model only)")
    serve.add_argument("--cache-size", type=int, default=512,
                       help="page-cache capacity in entries")
    serve.add_argument("--cache-shards", type=int, default=8,
                       help="lock-striping shard count for the page cache")
    serve.add_argument("--cache-dir", default=None,
                       help="persist the page cache here for warm restarts")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the page cache (for benchmarking)")
    serve.add_argument("--watch-interval", type=float, default=1.0,
                       help="seconds between content-change checks: the "
                            "rebuild thread polls this often and requests "
                            "never wake it")
    serve.add_argument("--no-watch", action="store_true",
                       help="never rescan the content directory")
    serve.add_argument("--debounce", type=float, default=0.05,
                       metavar="SECONDS",
                       help="coalesce the pokes pre-fork peers send after a "
                            "generation swap within this window")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive rebuild failures before the circuit "
                            "breaker opens and the server pins the last good "
                            "generation")
    serve.add_argument("--breaker-reset-s", type=float, default=1.0,
                       help="initial open-state timeout before a half-open "
                            "rebuild probe (doubles per repeated failure)")
    serve.add_argument("--request-timeout-ms", type=int, default=None,
                       help="per-request render budget; over-budget requests "
                            "get 503 + Retry-After instead of piling up")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="shed requests with 503 once this many are being "
                            "serviced at once")
    serve.add_argument("--queue-limit", type=int, default=None,
                       help="bound the worker-pool accept queue; excess "
                            "connections get a raw 503 + Retry-After")
    serve.add_argument("--fault-spec", default=None, metavar="SPEC",
                       help="inject faults for chaos testing, e.g. "
                            "'rebuild:error@0.3,cache-read:latency@0.05:ms=50'")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the fault plan's RNG (deterministic runs)")
    serve.add_argument("--sweep-workers", type=int, default=1,
                       help="worker processes for /api/sweeps batch jobs")
    serve.add_argument("--sweep-max-jobs", type=int, default=4,
                       help="concurrent sweep jobs before submissions are "
                            "shed with 429 + Retry-After")
    serve.add_argument("--tenants", default=None, metavar="FILE",
                       help="enable the multi-tenant admission edge: path to "
                            "a tenants JSON file (tiers, window, API keys), "
                            "or the literal 'default' for the built-in "
                            "free/standard/unlimited tiers; over-quota keys "
                            "get 429 + Retry-After before any render")
    serve.add_argument("--sanitize", action="store_true",
                       help="serve under the runtime concurrency sanitizer: "
                            "every registered lock is instrumented and "
                            "/api/metrics grows a 'sanitizer' section "
                            "(races, stalls, per-site hold/wait histograms)")
    serve.add_argument("--sanitize-budget-ms", type=float, default=250.0,
                       help="lock-stall watchdog budget with --sanitize "
                            "(default 250)")

    lint = sub.add_parser(
        "lint", help="static analysis over corpus, site, and serve code")
    lint.add_argument("--content-dir", default=None,
                      help="content directory (default: the packaged corpus)")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text", help="report format")
    lint.add_argument("--fail-on", choices=["info", "warning", "error"],
                      default="error",
                      help="exit 1 when a finding at or above this severity "
                           "exists (default: error)")
    lint.add_argument("--severity", action="append", default=[],
                      metavar="RULE=LEVEL",
                      help="override one rule's severity (repeatable)")
    lint.add_argument("--disable", action="append", default=[],
                      metavar="RULES",
                      help="disable these rule ids (repeatable, "
                           "comma-separable)")
    lint.add_argument("--select", action="append", default=[],
                      metavar="RULES",
                      help="report only these rule ids (repeatable, "
                           "comma-separable); report-time filtering that "
                           "composes with the cache")
    lint.add_argument("--no-site", action="store_true",
                      help="skip the site pass (templates, archetype, terms)")
    lint.add_argument("--no-code", action="store_true",
                      help="skip the code pass over repro.serve")
    lint.add_argument("--stats", action="store_true",
                      help="append analyzed/cached file counts to the report")
    lint.add_argument("--output", default=None,
                      help="write the report here instead of stdout")
    lint.add_argument("--fix", action="store_true",
                      help="apply machine-applicable fixes to the corpus, "
                           "then report what remains")
    lint.add_argument("--check", action="store_true",
                      help="with --fix: dry run — print the diff of pending "
                           "fixes and exit 1 if any (corpus is not touched)")
    lint.add_argument("--cache-dir", default=None,
                      help="persist the lint cache here so warm runs "
                           "re-analyze only changed files across processes")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="baseline file (.lintbaseline.json): matching "
                           "findings are filtered from the report")
    lint.add_argument("--write-baseline", action="store_true",
                      help="regenerate --baseline from the current findings "
                           "and exit 0")
    lint.add_argument("--changed", default=None, metavar="GIT_REF",
                      help="analyze only files changed vs GIT_REF (plus "
                           "their cross-class dependents); unchanged files "
                           "come from cache or are skipped")

    san = sub.add_parser(
        "sanitize",
        help="run a target under the runtime concurrency sanitizer "
             "(lockset race detection + lock-stall watchdog)")
    san.add_argument("target",
                     help="what to run instrumented: 'module:callable' "
                          "(imported and called with no arguments), a "
                          "test file/directory path (run under pytest), "
                          "or a bare module (imported; its main() is "
                          "called when present)")
    san.add_argument("--budget-ms", type=float, default=250.0,
                     help="lock-stall watchdog budget (default 250)")
    san.add_argument("--format", choices=["text", "json", "sarif"],
                     default="text", help="report format")
    san.add_argument("--output", default=None,
                     help="write the report here instead of stdout")
    san.add_argument("--fail-on", choices=["info", "warning", "error"],
                     default="warning",
                     help="exit 1 when a finding at or above this severity "
                          "exists (default: warning — races and stalls)")
    san.add_argument("--severity", action="append", default=[],
                     metavar="RULE=LEVEL",
                     help="override one rule's severity (repeatable)")
    san.add_argument("--disable", action="append", default=[],
                     metavar="RULES",
                     help="disable these rule ids (repeatable, "
                          "comma-separable)")
    san.add_argument("--select", action="append", default=[],
                     metavar="RULES",
                     help="report only these rule ids (repeatable, "
                          "comma-separable)")
    san.add_argument("--baseline", default=None, metavar="FILE",
                     help="baseline file: matching findings are filtered")
    san.add_argument("--write-baseline", action="store_true",
                     help="regenerate --baseline from the current findings "
                          "and exit 0")
    san.add_argument("--no-crossref", action="store_true",
                     help="skip cross-referencing static serve-lock-order/"
                          "serve-blocking-io-under-lock findings as "
                          "confirmed/unobserved")
    san.add_argument("--counters", action="store_true",
                     help="append the sanitizer counter snapshot (JSON) "
                          "to the report")
    return parser


def _split_rule_args(values: list[str]) -> frozenset[str]:
    """``--select a,b --select c`` -> {'a', 'b', 'c'}."""
    return frozenset(
        rule_id.strip()
        for chunk in values
        for rule_id in chunk.split(",") if rule_id.strip())


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    from repro.activities import load_default_catalog

    if args.command == "report":
        from repro import analytics

        catalog = load_default_catalog()
        sections = {
            "table1": ("TABLE I: CS2013 coverage", analytics.render_table1),
            "table2": ("TABLE II: TCPP coverage", analytics.render_table2),
            "courses": ("Course distribution (Sec. III-A)", analytics.render_course_counts),
            "accessibility": ("Accessibility (Sec. III-D)", analytics.render_accessibility),
            "resources": ("External resources (Sec. III-A)", analytics.render_resources),
            "categories": ("TCPP category drill-down (Sec. III-C)",
                           analytics.render_category_table),
        }
        if args.which == "gaps":
            _print_gaps(catalog)
            return 0
        chosen = sections if args.which == "all" else {args.which: sections[args.which]}
        first = True
        for _key, (title, renderer) in chosen.items():
            if not first:
                print()
            first = False
            print(title)
            print("=" * len(title))
            print(renderer(catalog))
        if args.which == "all":
            print()
            _print_gaps(catalog)
        return 0

    if args.command == "build":
        from repro.sitegen.site import SiteConfig

        catalog = load_default_catalog()
        site = catalog.site(SiteConfig(strategy=args.strategy))
        stats = site.build(args.output)
        print(f"rendered {stats.total_files} files to {stats.output_dir} "
              f"in {stats.duration_s * 1000:.1f} ms")
        return 0

    if args.command == "new":
        from repro.sitegen.archetypes import new_activity

        path = new_activity(args.name, args.content_dir, title=args.title)
        print(f"created {path}")
        return 0

    if args.command == "validate":
        catalog = load_default_catalog(validate_corpus=False)
        catalog.validate_all()
        index = catalog.taxonomy_index()
        index.check_invariants()
        print(f"{len(catalog)} activities valid; taxonomy index consistent.")
        return 0

    if args.command == "verify":
        from repro.analytics import compare_to_paper

        diffs = compare_to_paper(load_default_catalog())
        if diffs:
            print(f"{len(diffs)} difference(s) from the paper's numbers:")
            for diff in diffs:
                print("  -", diff)
            return 1
        print("all paper targets reproduced exactly.")
        return 0

    if args.command == "list":
        from repro.unplugged import SIMULATIONS

        catalog = load_default_catalog()
        for activity in catalog:
            sim = "simulation: yes" if activity.name in SIMULATIONS else "simulation: -"
            print(f"{activity.name:32} {activity.title:36} {sim}")
        return 0

    if args.command == "trends":
        from repro.analytics.trends import (
            assessment_trend,
            publication_histogram,
            resource_trend,
        )

        catalog = load_default_catalog()
        print("Activities by first-publication decade:")
        for decade, count in publication_histogram(catalog).items():
            print(f"  {decade}: {'#' * count} ({count})")
        for label, trend in (("Assessment", assessment_trend(catalog)),
                             ("External resources", resource_trend(catalog))):
            print(f"{label}: {trend.describe()}")
            p = trend.mannwhitney_p()
            if p is not None:
                print(f"  Mann-Whitney (more recent): p = {p:.4f}")
        return 0

    if args.command == "search":
        from repro.sitegen.search import SearchIndex

        index = SearchIndex.from_catalog(load_default_catalog())
        hits = index.search(" ".join(args.query), limit=args.limit)
        if not hits:
            print("no matches")
            return 1
        for hit in hits:
            print(f"{hit.score:7.4f}  {hit.name:32} {hit.title}  "
                  f"[{', '.join(hit.matched_terms)}]")
        return 0

    if args.command == "simulate":
        from repro.unplugged import SIMULATIONS, Classroom
        from repro.unplugged.sim.trace import render_gantt

        if args.activity not in SIMULATIONS:
            print(f"no simulation for {args.activity!r}; available:",
                  ", ".join(sorted(SIMULATIONS)), file=sys.stderr)
            return 2
        classroom = Classroom(size=args.students, seed=args.seed,
                              step_time_jitter=0.2)
        result = SIMULATIONS[args.activity](classroom)
        print(result.summary())
        if args.gantt and len(result.trace):
            print()
            print(render_gantt(result.trace))
        return 0 if result.all_checks_pass else 1

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "lint":
        return _run_lint(args)

    if args.command == "sanitize":
        return _run_sanitize(args)

    if args.command == "serve":
        from repro import serve as serve_mod

        return serve_mod.run(
            host=args.host,
            port=args.port,
            workers=args.workers,
            worker_model=args.worker_model,
            threads_per_worker=args.threads_per_worker,
            content_dir=args.content_dir,
            cache_size=args.cache_size,
            cache_shards=args.cache_shards,
            cache_dir=args.cache_dir,
            cache_enabled=not args.no_cache,
            watch_interval_s=args.watch_interval,
            watch=not args.no_watch,
            debounce_s=args.debounce,
            breaker_threshold=args.breaker_threshold,
            breaker_reset_s=args.breaker_reset_s,
            request_timeout_ms=args.request_timeout_ms,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            fault_spec=args.fault_spec,
            fault_seed=args.fault_seed,
            sweep_workers=args.sweep_workers,
            sweep_max_jobs=args.sweep_max_jobs,
            tenants=args.tenants,
            sanitize_locks=args.sanitize,
            sanitize_budget_ms=args.sanitize_budget_ms,
        )

    raise AssertionError("unreachable")


def _run_sweep(args) -> int:
    """``pdcunplugged sweep``: exit 0 done, 1 failed/partial, 2 bad spec."""
    import json
    from pathlib import Path

    from repro.sweep import (ResultStore, SweepManager, SweepSpec,
                             SweepSpecError, compare)

    payload: dict = {"slugs": args.slugs}
    try:
        if args.sizes:
            payload["sizes"] = [int(v) for v in args.sizes.split(",") if v]
        if args.seeds:
            payload["seeds"] = [int(v) for v in args.seeds.split(",") if v]
    except ValueError:
        print("--sizes and --seeds expect comma-separated integers",
              file=sys.stderr)
        return 2
    params: dict = {}
    for spec_text in args.param:
        name, sep, values = spec_text.partition("=")
        if not sep or not name or not values:
            print(f"--param expects NAME=V1,V2,..., got {spec_text!r}",
                  file=sys.stderr)
            return 2
        try:
            params[name] = [float(v) for v in values.split(",") if v]
        except ValueError:
            print(f"--param {name}: values must be numbers", file=sys.stderr)
            return 2
    if params:
        payload["params"] = params
    if args.deadline is not None:
        payload["deadline_s"] = args.deadline

    try:
        spec = SweepSpec.parse(payload)
    except SweepSpecError as exc:
        print(f"invalid sweep spec: {exc}", file=sys.stderr)
        return 2

    store = (ResultStore(Path(args.cache_dir) / "sweeps")
             if args.cache_dir else None)
    manager = SweepManager(store=store, workers=args.sweep_workers)
    try:
        job = manager.submit(spec)
        job.wait()
        progress = job.progress()
        results = job.results()
    finally:
        manager.close()
    comparison = compare(results)

    if args.format == "json":
        json.dump({"job": progress, "results": results,
                   "compare": comparison},
                  sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(f"sweep {job.id}: {progress['status']} — "
              f"{progress['total']} point(s): {progress['executed']} "
              f"executed, {progress['cached']} cached, "
              f"{progress['failed']} failed, {progress['skipped']} skipped "
              f"in {progress['elapsed_s']:.2f}s")
        for group in comparison["groups"]:
            params_text = ", ".join(f"{k}={v}"
                                    for k, v in sorted(group["params"].items()))
            print(f"\n{group['slug']} ({params_text}) — "
                  f"{group['points']} point(s), "
                  f"{group['checks_passed']} checks passed")
            if not group["curve"]:
                print("  (no speedup metric for this simulation)")
                continue
            print(f"  {'n':>4} {'seeds':>5} {'speedup':>8} {'min':>8} "
                  f"{'max':>8} {'stddev':>8} {'efficiency':>10}")
            for row in group["curve"]:
                print(f"  {row['n']:>4} {row['seeds']:>5} "
                      f"{row['mean']:>8.3f} {row['min']:>8.3f} "
                      f"{row['max']:>8.3f} {row['stddev']:>8.3f} "
                      f"{row['efficiency']:>10.3f}")
    return 0 if (progress["status"] == "done"
                 and progress["failed"] == 0) else 1


def _git_changed_files(ref: str) -> frozenset | None:
    """Resolved paths changed vs ``ref`` (tracked diff + untracked files).

    Returns ``None`` — the caller exits 2 — when git is unavailable, the
    working directory is not a repository, or the ref does not resolve:
    a silently-empty changed set would report "clean" without looking.
    """
    import subprocess
    from pathlib import Path

    def run(*argv: str) -> str:
        return subprocess.run(
            ["git", *argv], capture_output=True, text=True, check=True,
        ).stdout

    try:
        top = Path(run("rev-parse", "--show-toplevel").strip())
        diff = run("diff", "--name-only", ref, "--")
        untracked = run("ls-files", "--others", "--exclude-standard")
    except (OSError, subprocess.CalledProcessError) as exc:
        stderr = getattr(exc, "stderr", "") or ""
        print(f"--changed {ref}: git failed: "
              f"{stderr.strip() or exc}", file=sys.stderr)
        return None
    names = [line for line in (diff + untracked).splitlines() if line]
    return frozenset(str((top / name).resolve()) for name in names)


def _run_lint(args) -> int:
    """``pdcunplugged lint``: exit 0 clean, 1 findings, 2 usage error."""
    from pathlib import Path

    from repro.activities.catalog import corpus_dir
    from repro.lint import (
        LintConfig,
        LintEngine,
        REPORTERS,
        Severity,
        check_fixes,
        fix_engine,
        render_check_report,
        write_baseline,
    )
    from repro.lint.baseline import BaselineError

    if args.check and not args.fix:
        print("--check requires --fix", file=sys.stderr)
        return 2
    if args.write_baseline and not args.baseline:
        print("--write-baseline requires --baseline FILE", file=sys.stderr)
        return 2
    overrides = _parse_severity_overrides(args.severity, Severity)
    if overrides is None:
        return 2
    changed_only: frozenset | None = None
    if args.changed is not None:
        changed_only = _git_changed_files(args.changed)
        if changed_only is None:
            return 2
    config = LintConfig(
        content_dir=Path(args.content_dir) if args.content_dir
        else corpus_dir(),
        site=not args.no_site,
        code=not args.no_code,
        severity_overrides=overrides,
        disabled=_split_rule_args(args.disable),
        selected=_split_rule_args(args.select) or None,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        baseline=(Path(args.baseline)
                  if args.baseline and not args.write_baseline else None),
        changed_only=changed_only,
    )
    try:
        engine = LintEngine(config)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    try:
        if args.fix and args.check:
            check = check_fixes(config)
            sys.stdout.write(render_check_report(check))
            return 0 if check.clean else 1
        if args.fix:
            fix_report = fix_engine(engine)
            renames = "".join(f"renamed {old} -> {new}\n"
                              for old, new in fix_report.renamed)
            sys.stdout.write(
                renames
                + f"applied {fix_report.applied} fix(es) in "
                  f"{len(fix_report.changed_files)} file(s)\n")
            result = fix_report.remaining
        else:
            result = engine.lint()
    except BaselineError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.write_baseline:
        target = write_baseline(args.baseline, result.diagnostics)
        print(f"baseline written: {target} "
              f"({len(result.diagnostics)} finding(s))")
        return 0
    report = REPORTERS[args.format](result, stats=args.stats)
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return result.exit_code(Severity.parse(args.fail_on))


def _parse_severity_overrides(specs, severity_cls):
    """Parse repeated ``RULE=LEVEL`` args; ``None`` on a usage error."""
    overrides = {}
    for spec in specs:
        rule_id, sep, level = spec.partition("=")
        if not sep or not rule_id or not level:
            print(f"--severity expects RULE=LEVEL, got {spec!r}",
                  file=sys.stderr)
            return None
        try:
            overrides[rule_id] = severity_cls.parse(level)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return None
    return overrides


def _run_sanitize(args) -> int:
    """``pdcunplugged sanitize``: exit 0 clean, 1 findings, 2 usage error."""
    import importlib
    import json
    from pathlib import Path

    from repro import sanitize as sanitize_mod
    from repro.lint import REPORTERS, Severity, write_baseline
    from repro.lint.baseline import BaselineError
    from repro.sanitize.crossref import crossref
    from repro.sanitize.report import finalize

    if args.write_baseline and not args.baseline:
        print("--write-baseline requires --baseline FILE", file=sys.stderr)
        return 2
    overrides = _parse_severity_overrides(args.severity, Severity)
    if overrides is None:
        return 2

    try:
        san = sanitize_mod.activate(hold_budget_ms=args.budget_ms)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        module_name, sep, attr = args.target.partition(":")
        if not sep and (args.target.endswith(".py")
                        or Path(args.target).is_dir()):
            import pytest

            pytest.main(["-q", "-p", "no:cacheprovider", args.target])
        else:
            module = importlib.import_module(module_name)
            if sep:
                fn = module
                for part in attr.split("."):
                    fn = getattr(fn, part)
                fn()
            elif hasattr(module, "main"):
                module.main()
    except SystemExit:
        pass                              # target managed its own exit
    except Exception as exc:
        sanitize_mod.deactivate()
        print(f"sanitize target {args.target!r} failed: {exc}",
              file=sys.stderr)
        return 2
    finally:
        if sanitize_mod.current() is san:
            sanitize_mod.deactivate()

    diagnostics = san.diagnostics()
    if not args.no_crossref:
        diagnostics.extend(crossref(san))
    try:
        result = finalize(
            diagnostics,
            severity_overrides=overrides,
            disabled=_split_rule_args(args.disable),
            selected=_split_rule_args(args.select) or None,
            baseline=(Path(args.baseline)
                      if args.baseline and not args.write_baseline
                      else None))
    except (ValueError, BaselineError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.write_baseline:
        target = write_baseline(args.baseline, result.diagnostics)
        print(f"baseline written: {target} "
              f"({len(result.diagnostics)} finding(s))")
        return 0
    report = REPORTERS[args.format](result)
    if args.counters:
        report += json.dumps({"sanitizer": san.counters()}, indent=2,
                             sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(report, encoding="utf-8")
    else:
        sys.stdout.write(report)
    return result.exit_code(Severity.parse(args.fail_on))


def _print_gaps(catalog) -> None:
    from repro.analytics import gap_report
    from repro.standards import cs2013, tcpp

    report = gap_report(catalog)
    title = "Gap analysis (Sec. III-B/C/E)"
    print(title)
    print("=" * len(title))
    print(f"uncovered CS2013 outcomes: {report.total_uncovered_outcomes}")
    for term, missing in report.cs2013_gaps.items():
        print(f"  {cs2013.knowledge_unit(term).name}: {', '.join(missing)}")
    print(f"uncovered TCPP topics: {report.total_uncovered_topics}")
    for term, missing in report.tcpp_gaps.items():
        print(f"  {tcpp.topic_area(term).name}: {', '.join(missing)}")
    print("empty categories:", "; ".join(report.empty_categories) or "none")
    print("units below CS2013 tier targets:",
          ", ".join(report.units_below_tier_targets) or "none")
    print("sparse senses:", report.sparse_senses)
    print(f"activities without assessment: "
          f"{len(report.activities_without_assessment)}/{len(catalog)}")


if __name__ == "__main__":
    raise SystemExit(main())
