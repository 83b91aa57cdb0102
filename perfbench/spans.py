"""Span tracing from outside the program: wrappers around its public calls.

A :class:`Tracer` replaces chosen functions and methods with wrappers
that record one span per call: name, tag, start, end, parent span and
operation id (the id of the outermost span of the call tree).  Spans
stay in memory and are written out as JSON lines when the run ends;
spans of set-up and warm-up are taken out before the measured part.
Traced runs stay in one process.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Span name -> layer.  ``None`` marks the benchmark's own operation
#: spans, and ``SweepJob.wait``: a job runs on a thread of its own, so a
#: wait's self time is the whole job, already counted on that thread.
LAYERS = {
    "app.call": "app",
    "tenancy.admit": "tenancy",
    "cache.get": "cache",
    "cache.put": "cache",
    "cache.invalidate": "cache",
    "sitegen.render": "render",
    "sitegen.search": "search",
    "metrics.record": "metrics",
    "persist.warm_load": "persist",
    "rebuild.refresh": "rebuild",
    "activities.catalog_parse": "catalog",
    "lint.lint": "lint",
    "sitegen.build": "build",
    "sweep.submit": "sweep",
    "sweep.wait": None,
    "sweep.store_get": "store",
    "sweep.store_put": "store",
    "sweep.run_point": "runner",
    "sim.run": "sim",
    "author.edit": None,
    "batch.job": None,
}


class Tracer:
    """In-memory span recorder with function and method wrappers."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, tag=None, root: bool = False):
        """``fn`` recording a span per call; ``tag`` may be a callable of
        the call's positional arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            op = parent[1] if parent is not None and not root else sid
            stack.append((sid, op))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                label = tag(args) if callable(tag) else tag
                tracer.spans.append((sid, parent[0] if parent else None, op,
                                     name, label, start, end))
        return traced

    def patch(self, owner, attr: str, name: str, tag=None,
              root: bool = False) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, tag,
                                                root))
        else:
            replacement = self.wrap(original, name, tag, root)
        setattr(owner, attr, replacement)

    # -- output ------------------------------------------------------------

    def take(self) -> list[dict]:
        """Remove and return the spans recorded so far.  Set-up and
        warm-up spans are taken and dropped, or analysed on their own,
        so that only measured operations are written out."""
        taken, self.spans = self.spans, []
        return [{"pid": self.pid, "id": sid, "parent": parent, "op": op,
                 "name": name, "tag": tag, "start": start, "end": end}
                for sid, parent, op, name, tag, start, end in taken]

    def dump(self, records: list[dict]) -> None:
        """Write taken spans as JSON lines."""
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")


# -- installing the wrappers ---------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap every public call the per-layer metrics are derived from."""
    from repro.activities.catalog import Catalog
    from repro.lint.engine import LintEngine
    from repro.serve import app as app_mod
    from repro.serve.cache import PageCache, ShardedPageCache
    from repro.serve.metrics import MetricsRegistry
    from repro.serve.persist import CacheStore
    from repro.serve.rebuild import RebuildManager
    from repro.serve.tenancy import TenantGate
    from repro.sitegen.search import SearchIndex
    from repro.sitegen.site import Site
    from repro.sweep import manager as manager_mod
    from repro.sweep.store import ResultStore
    from repro.unplugged import SIMULATIONS

    tracer.patch(app_mod.ServeApp, "__call__", "app.call", root=True)
    tracer.patch(TenantGate, "admit", "tenancy.admit")
    for cls in (PageCache, ShardedPageCache):
        tracer.patch(cls, "get", "cache.get")
        tracer.patch(cls, "put", "cache.put")
        tracer.patch(cls, "invalidate", "cache.invalidate")
    tracer.patch(SearchIndex, "search", "sitegen.search")
    tracer.patch(MetricsRegistry, "record_request", "metrics.record")
    tracer.patch(CacheStore, "warm_load", "persist.warm_load")
    tracer.patch(RebuildManager, "refresh", "rebuild.refresh")
    tracer.patch(Catalog, "from_directory", "activities.catalog_parse")
    tracer.patch(LintEngine, "lint", "lint.lint")
    tracer.patch(Site, "build", "sitegen.build")
    tracer.patch(manager_mod.SweepManager, "submit", "sweep.submit")
    tracer.patch(manager_mod.SweepJob, "wait", "sweep.wait")
    tracer.patch(ResultStore, "get", "sweep.store_get")
    tracer.patch(ResultStore, "put", "sweep.store_put")
    # The manager calls run_point through its own module's name.
    tracer.patch(manager_mod, "run_point", "sweep.run_point")
    for slug in list(SIMULATIONS):
        SIMULATIONS[slug] = tracer.wrap(
            SIMULATIONS[slug], "sim.run", tag=lambda args: args[0].size)

    # A RenderTask carries its render closure as a field: wrap the
    # closures of every plan the site hands out, tagged with the kind.
    render_plan = Site.render_plan

    def traced_plan(site):
        return [dataclasses.replace(
                    task, render=tracer.wrap(task.render, "sitegen.render",
                                             tag=task.kind))
                for task in render_plan(site)]

    Site.render_plan = functools.wraps(render_plan)(traced_plan)


# -- analysis ----------------------------------------------------------------


def load(out_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            spans.append(json.loads(line))
    return spans


def summarize(spans: list[dict]) -> dict:
    """Per span name: count, total and self seconds, split by tag.

    Self time is a span's duration minus the time its direct children
    cover; children of one span run on its thread, inside its interval.
    ``outer`` counts only spans whose parent has a different name, so a
    sharded cache delegating to its shard is one lookup, not two.
    """
    by_key = {(s["pid"], s["id"]): s for s in spans}
    child_time: dict[tuple, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[(span["pid"], span["parent"])] += span["end"] - span["start"]
    names: dict[str, dict] = {}
    for span in spans:
        key = (span["pid"], span["id"])
        duration = span["end"] - span["start"]
        entry = names.setdefault(span["name"], {
            "count": 0, "total_s": 0.0, "self_s": 0.0, "outer": 0,
            "outer_s": 0.0, "by_tag": defaultdict(lambda: [0, 0.0])})
        entry["count"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child_time.get(key, 0.0)
        parent = by_key.get((span["pid"], span["parent"]))
        if parent is None or parent["name"] != span["name"]:
            entry["outer"] += 1
            entry["outer_s"] += duration
            cell = entry["by_tag"][span["tag"]]
            cell[0] += 1
            cell[1] += duration
    return names


def layer_self_ms(names: dict, operations: int) -> dict[str, float]:
    """Self time per layer, in ms per operation (0 for absent layers)."""
    out = {layer: 0.0 for layer in LAYERS.values() if layer is not None}
    for name, entry in names.items():
        layer = LAYERS.get(name)
        if layer is not None:
            out[layer] += entry["self_s"] * 1e3 / max(1, operations)
    return out


def mean_ms(names: dict, name: str, tag=None) -> float:
    """Mean duration of the outermost ``name`` spans (optionally one tag)."""
    entry = names.get(name)
    if entry is None:
        return 0.0
    if tag is None:
        return entry["outer_s"] * 1e3 / entry["outer"] if entry["outer"] else 0.0
    count, total = entry["by_tag"].get(tag, (0, 0.0))
    return total * 1e3 / count if count else 0.0
