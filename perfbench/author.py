"""The ``author`` workload: one contributor editing a copy of the corpus.

Runs in process, like a contributor's preview server.  Each operation
applies one seeded edit, lints the changed file with a warm
:class:`~repro.lint.LintEngine`, refreshes the served generation
(:meth:`RebuildManager.refresh` + :meth:`ServeApp.on_rebuild`) and
fetches every dirty URL through the app.  The operation is timed from
the edit to the last fetched byte; checking what the fetches returned
happens outside the timed region.  Set-up and edits are timed on
:class:`measure.StealFreeClock`, as in ``batch``: both run on one core
at a time, and the host's steal would otherwise sit in their times.
The loop ends after ``--seconds`` of edits on the wall clock.
"""

from __future__ import annotations

import os
import statistics
import time
from pathlib import Path

import inputs
import measure
import spans

#: Set-up repetitions (the median is reported), half before and half
#: after the measured loop, so that they sample the whole run.  One
#: more runs first, unmeasured, so imports and first-use caches are not
#: in any sample.
SETUP_REPS = 12

#: Throughput is the median over windows of this many consecutive edits
#: (two cycles of the four edit kinds), so a few slow seconds on a
#: shared machine do not move it.
WINDOW_EDITS = 8


def _setup(root: Path, work: Path, index: int):
    """create_app + cold lint + initial export on a fresh corpus copy."""
    from repro.lint import LintConfig, LintEngine
    from repro.serve import create_app

    content = inputs.copy_corpus(root, work / f"corpus-{index}")
    export = work / f"export-{index}"
    clock = measure.StealFreeClock()
    app = create_app(content_dir=content, watch=False)
    engine = LintEngine(LintConfig(content_dir=content, code=False))
    lint = engine.lint()
    app.state.site.build(export)
    elapsed = clock.now()
    return app, engine, lint, content, export, elapsed


def _touch(path: Path, last_ns: list[int]) -> None:
    """Give an edited file a strictly newer mtime than any earlier edit."""
    stamp = max(time.time_ns(), last_ns[0] + 1_000_000)
    last_ns[0] = stamp
    os.utime(path, ns=(stamp, stamp))


def _edit_loop(app, engine, content: Path, seed: int, seconds: float,
               problems: list[str], tracer=None) -> dict:
    from repro.lint import Severity
    from repro.serve import call_app

    script = inputs.EditScript(content, seed)
    last_ns = [0]

    def operation():
        edit = script.next_edit()
        _touch(edit["path"], last_ns)
        engine.config.changed_only = frozenset({str(edit["path"].resolve())})
        lint = engine.lint()
        result = app.rebuilder.refresh()
        if result is None or not result.ok:
            raise RuntimeError(f"refresh after {edit['kind']} edit failed: "
                               f"{result and result.error}")
        app.on_rebuild(result)
        fetched = {url: call_app(app, url) for url in result.dirty_urls}
        return edit, lint, result, fetched

    if tracer is not None:
        operation = tracer.wrap(operation, "author.edit", root=True)

    latencies, dirty, cached_share = [], [], []
    failed = 0
    elapsed = 0.0
    clock = measure.StealFreeClock()
    while elapsed < seconds:
        started, wall = clock.now(), time.perf_counter()
        edit, lint, result, fetched = operation()
        latencies.append(clock.now() - started)
        elapsed += time.perf_counter() - wall
        dirty.append(len(result.dirty_urls))
        cached_share.append(lint.stats.files_cached / lint.stats.files_total)
        known = len(problems)
        if lint.count(Severity.ERROR):
            problems.append(f"lint errors after a valid {edit['kind']} edit: "
                            f"{[d.rule_id for d in lint.diagnostics]}")
        _check_edit(app, edit, fetched, problems)
        failed += len(problems) > known
    return {"latencies": latencies, "dirty": dirty, "failed": failed,
            "cached_share": cached_share, "elapsed": elapsed}


def _check_edit(app, edit: dict, fetched: dict, problems: list[str]) -> None:
    """The edit shows on its page, every dirty URL serves the fresh
    render of the new generation, and pages that left the site are 404."""
    page = fetched.get(edit["url"])
    if page is None or page.status != 200 \
            or edit["marker"].encode() not in page.body:
        problems.append(f"{edit['kind']} edit not visible at {edit['url']}")
    plan = app.state.plan_by_url
    for url, response in fetched.items():
        if url not in plan:       # a deleted copy, or an emptied listing
            if response.status != 404:
                problems.append(f"{url} left the site but answers "
                                f"{response.status}")
        elif response.status != 200 or \
                response.body != plan[url].render().encode("utf-8"):
            problems.append(f"{url} is not the fresh render after a "
                            f"{edit['kind']} edit")


def _compare_trees(left: Path, right: Path) -> list[str]:
    def files(base):
        return {p.relative_to(base): p for p in base.rglob("*") if p.is_file()}

    a, b = files(left), files(right)
    if set(a) != set(b):
        return [f"export file sets differ: {sorted(map(str, set(a) ^ set(b)))[:5]}"]
    return [f"export of {rel} differs" for rel in sorted(a)
            if a[rel].read_bytes() != b[rel].read_bytes()]


def _window_rate(latencies: list[float]) -> float:
    """Median over windows of WINDOW_EDITS consecutive edits of edits
    published per second.

    Every window counts, not only the least-stolen ones: the corpus
    grows by one activity every four edits until it holds
    ``EditScript.MAX_COPIES`` new ones, so early windows are not like
    later ones and choosing some of them would move the figure.
    """
    return statistics.median([
        WINDOW_EDITS / sum(latencies[i:i + WINDOW_EDITS])
        for i in range(0, len(latencies) - WINDOW_EDITS + 1, WINDOW_EDITS)])


def run(root: Path, work: Path, seed: int, seconds: float,
        trace: bool) -> dict:
    from repro.activities.catalog import Catalog
    from repro.lint import Severity
    from repro.serve import call_app

    problems: list[str] = []
    samples: list[dict] = []
    reps = 1 if trace else SETUP_REPS

    def timed_setup(index):
        steal = measure.StealMeter()
        app, engine, lint, content, export, elapsed = _setup(root, work, index)
        samples.append({"value": elapsed, "steal": steal.share()})
        if lint.count(Severity.ERROR):
            problems.append("cold lint of the packaged corpus reports errors")
        return app, engine, content, export

    _setup(root, work, "first")[0].close()
    for index in range(reps // 2):
        timed_setup(index)[0].close()
    app, engine, content, export = timed_setup(reps // 2)
    for task in app.state.plan:       # let the page cache fill first
        call_app(app, task.url)
    measure.reset_peak_rss(os.getpid())
    loop = _edit_loop(app, engine, content, seed, seconds, problems)
    rss = measure.peak_rss_mb(os.getpid())

    # An incremental export after the edits equals a full export.
    app.state.site.build(export, incremental=True)
    full = Catalog.from_directory(content).site().build(work / "export-full")
    problems.extend(_compare_trees(export, work / "export-full"))
    app.close()
    for index in range(reps // 2 + 1, reps):
        timed_setup(index)[0].close()

    latencies_ms = [s * 1e3 for s in loop["latencies"]]
    p90, beyond = measure.tail(latencies_ms, 90)
    metrics = {
        "setup_s": measure.median_sample(samples),
        "throughput_per_s": _window_rate(loop["latencies"]),
        "p50_ms": measure.percentile(latencies_ms, 50),
        "tail_ms": p90,
        "rss_mb": rss,
    }
    notes = [f"author: {len(latencies_ms)} edits in {loop['elapsed']:.2f} s; "
             f"throughput is the median over windows of {WINDOW_EDITS} "
             f"edits; tail_ms is p90 with {beyond} samples "
             f"beyond it; setup " + measure.describe_samples(samples)]
    layers = None
    if trace:
        layers = {
            "rebuild.dirty_urls": sum(loop["dirty"]) / len(loop["dirty"]),
            "lint.cached_share": (sum(loop["cached_share"])
                                  / len(loop["cached_share"])),
            "sitegen.build_ms_per_file": (full.duration_s * 1e3
                                          / full.total_files),
        }
        tracer = spans.Tracer(work / "spans")
        spans.install(tracer)
        app, engine, _lint, content, _export, _ = _setup(root, work, 99)
        for task in app.state.plan:
            call_app(app, task.url)
        tracer.take()                 # set-up and cache fill
        traced = _edit_loop(app, engine, content, seed, seconds, problems,
                            tracer=tracer)
        measured = tracer.take()
        app.close()
        common = min(len(traced["dirty"]), len(loop["dirty"]))
        if traced["dirty"][:common] != loop["dirty"][:common]:
            problems.append("dirty URL counts differ between replays of "
                            "one edit script")
        tracer.dump(measured)
        names = spans.summarize(spans.load(work / "spans"))
        edits = len(traced["latencies"])
        layers.update({
            "rebuild.refresh_ms": spans.mean_ms(names, "rebuild.refresh"),
            "activities.catalog_parse_ms": spans.mean_ms(
                names, "activities.catalog_parse"),
            "lint.lint_ms": spans.mean_ms(names, "lint.lint"),
            "cache.get_us": spans.mean_ms(names, "cache.get") * 1e3,
            "cache.put_us": spans.mean_ms(names, "cache.put") * 1e3,
            "metrics.record_us": spans.mean_ms(names, "metrics.record") * 1e3,
            "sitegen.renders": float(names.get("sitegen.render", {})
                                     .get("outer", 0)),
        })
        for kind in ("home", "page", "term", "taxonomy", "view"):
            layers[f"sitegen.render_ms.{kind}"] = spans.mean_ms(
                names, "sitegen.render", tag=kind)
        for layer, value in spans.layer_self_ms(names, edits).items():
            layers[f"self_ms.{layer}"] = value
        traced_rate = _window_rate(traced["latencies"])
        layers["trace.overhead_pct"] = (
            metrics["throughput_per_s"] / traced_rate - 1.0) * 100.0
        notes.append(f"author: tracing overhead "
                     f"{layers['trace.overhead_pct']:.1f}%")
    return {"attempted": len(latencies_ms), "failed": loop["failed"],
            "problems": problems, "metrics": metrics, "layers": layers,
            "notes": notes}
