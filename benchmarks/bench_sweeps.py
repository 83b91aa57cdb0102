"""EXPERIMENT S-SWEEP -- the sweep process pool against serial execution.

A 64-point grid on a 4-worker pool vs the same grid run serially: the
parallel path must actually buy wall-clock time on multicore hosts.
perfbench's ``sweep.pool_speedup`` records the same ratio on the
``batch`` workload without a floor; this file holds the floor.

All grids are seeded -- identical points, identical records, across
runs and across the serial/parallel split.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.sweep import SweepManager, SweepSpec

GRID = {
    "slugs": ["findsmallestcard", "paralleladditioncards"],
    "sizes": [4, 8, 16, 32],
    "seeds": [0, 1, 2, 3],
    "params": {"step_time_jitter": [0.0, 0.2]},
}
POINTS = 64
POOL_WORKERS = 4


def _grid_spec() -> SweepSpec:
    spec = SweepSpec.parse(GRID)
    assert len(spec.points) == POINTS
    return spec


def _run_grid(workers: int) -> float:
    manager = SweepManager(workers=workers)
    try:
        start = time.perf_counter()
        job = manager.submit(_grid_spec())
        assert job.wait(300.0)
        elapsed = time.perf_counter() - start
        progress = job.progress()
        assert progress["status"] == "done"
        assert progress["failed"] == 0
        return elapsed
    finally:
        manager.close()


@pytest.mark.benchmark(group="sweep-grid")
@pytest.mark.skipif(os.cpu_count() < 2, reason="needs a multicore host")
def test_pooled_grid(benchmark):
    """The same grid on a process pool; must beat serial on >=4 cores."""
    serial_s = _run_grid(1)
    parallel_s = benchmark.pedantic(
        _run_grid, args=(POOL_WORKERS,), rounds=1, iterations=1)
    if parallel_s is None:                   # --benchmark-disable path
        parallel_s = _run_grid(POOL_WORKERS)
    speedup = serial_s / parallel_s
    print()
    print(f"serial {serial_s:.2f}s, pool[{POOL_WORKERS}] {parallel_s:.2f}s "
          f"-> speedup {speedup:.2f}x")
    if (os.cpu_count() or 1) >= POOL_WORKERS:
        assert speedup >= 2.0, (
            f"pool of {POOL_WORKERS} only {speedup:.2f}x over serial")

