"""SweepManager: jobs, caching, cancellation, deadlines, admission."""

from __future__ import annotations

import time

import pytest

from repro.serve.faults import parse_fault_spec
from repro.serve.retrypolicy import RetryPolicy
from repro.sweep import ResultStore, SweepManager, SweepRejected, SweepSpec

WAIT_S = 60.0


def spec(slugs=("findsmallestcard",), sizes=(4, 8), seeds=(0, 1), **extra):
    return SweepSpec.parse({"slugs": list(slugs), "sizes": list(sizes),
                            "seeds": list(seeds), **extra})


@pytest.fixture()
def manager(tmp_path):
    mgr = SweepManager(store=ResultStore(tmp_path / "sweeps"), workers=1)
    yield mgr
    mgr.close()


def run(manager, sweep_spec):
    job = manager.submit(sweep_spec)
    assert job.wait(WAIT_S)
    return job


class TestExecution:
    def test_small_grid_runs_to_done(self, manager):
        job = run(manager, spec())
        progress = job.progress()
        assert progress["status"] == "done"
        assert progress["total"] == 4
        assert progress["executed"] == 4
        assert progress["cached"] == 0
        assert progress["failed"] == 0
        assert progress["remaining"] == 0
        records = job.results()
        assert [(r["n"], r["seed"]) for r in records] == \
            [(4, 0), (4, 1), (8, 0), (8, 1)]
        assert all(r["status"] == "ok" for r in records)

    def test_results_come_back_in_grid_order(self, manager):
        job = run(manager, spec(sizes=(8, 4), seeds=(1, 0)))
        assert [(r["n"], r["seed"]) for r in job.results()] == \
            [(8, 1), (8, 0), (4, 1), (4, 0)]

    def test_job_ids_are_sequential(self, manager):
        first = run(manager, spec(sizes=(4,), seeds=(0,)))
        second = run(manager, spec(sizes=(4,), seeds=(1,)))
        assert first.id == "sweep-0001"
        assert second.id == "sweep-0002"


class TestCaching:
    def test_resubmit_executes_zero_points(self, manager):
        run(manager, spec())
        job = run(manager, spec())
        progress = job.progress()
        assert progress["status"] == "done"
        assert progress["executed"] == 0
        assert progress["cached"] == 4

    def test_results_survive_a_fresh_manager(self, tmp_path, manager):
        first = run(manager, spec())
        other = SweepManager(store=ResultStore(tmp_path / "sweeps"),
                             workers=1)
        try:
            job = run(other, spec())
            progress = job.progress()
            assert progress["executed"] == 0
            assert progress["cached"] == 4
            assert job.results() == first.results()
        finally:
            other.close()

    def test_overlapping_grids_share_points(self, manager):
        run(manager, spec(sizes=(4, 8)))
        job = run(manager, spec(sizes=(8, 12)))
        progress = job.progress()
        assert progress["cached"] == 2          # the n=8 points
        assert progress["executed"] == 2        # the n=12 points

    def test_no_store_still_memoizes_in_process(self, tmp_path):
        manager = SweepManager(store=None, workers=1)
        try:
            run(manager, spec(sizes=(4,), seeds=(0,)))
            job = run(manager, spec(sizes=(4,), seeds=(0,)))
            assert job.progress()["cached"] == 1
        finally:
            manager.close()


class TestInterruption:
    def test_deadline_stops_at_a_point_boundary(self, manager):
        job = manager.submit(spec(sizes=(4, 6, 8, 10, 12, 16),
                                  seeds=(0, 1, 2), deadline_s=1e-6))
        assert job.wait(WAIT_S)
        progress = job.progress()
        assert progress["status"] == "deadline"
        assert progress["skipped"] > 0
        assert progress["completed"] + progress["skipped"] == progress["total"]

    def test_cancel_takes_effect_and_reports_skips(self, manager):
        big = spec(sizes=tuple(range(4, 44)), seeds=(0, 1, 2, 3, 4))
        job = manager.submit(big)
        assert job.cancel() is True
        assert job.wait(WAIT_S)
        progress = job.progress()
        assert progress["status"] == "cancelled"
        assert progress["skipped"] > 0

    def test_cancel_after_completion_is_refused(self, manager):
        job = run(manager, spec(sizes=(4,), seeds=(0,)))
        assert job.cancel() is False


class TestAdmission:
    def test_closed_manager_rejects_submissions(self, tmp_path):
        manager = SweepManager(workers=1)
        manager.close()
        with pytest.raises(SweepRejected) as excinfo:
            manager.submit(spec())
        assert excinfo.value.retry_after_s > 0

    def test_capacity_rejection_counts(self, tmp_path):
        manager = SweepManager(workers=1, max_active_jobs=1)
        try:
            slow = manager.submit(spec(sizes=tuple(range(4, 44)),
                                       seeds=(0, 1, 2, 3, 4)))
            with pytest.raises(SweepRejected):
                manager.submit(spec(sizes=(4,), seeds=(0,)))
            assert manager.stats()["jobs_rejected"] == 1
            slow.cancel()
            assert slow.wait(WAIT_S)
        finally:
            manager.close()

    def test_unknown_job_lookup(self, manager):
        assert manager.job("sweep-9999") is None


class TestFaults:
    def test_exhausted_run_faults_become_failed_records(self, tmp_path):
        faults = parse_fault_spec("sweep-run:error@1.0", seed=5)
        manager = SweepManager(store=ResultStore(tmp_path / "s"),
                               faults=faults, retry=RetryPolicy(retries=1),
                               workers=1)
        try:
            job = run(manager, spec(sizes=(4,), seeds=(0, 1)))
            progress = job.progress()
            assert progress["status"] == "done"  # the job survives
            assert progress["failed"] == 2
            assert all(r["status"] == "error" for r in job.results())
            # Failures are not persisted: resubmitting retries them.
            faults.disable()
            retry_job = run(manager, spec(sizes=(4,), seeds=(0, 1)))
            assert retry_job.progress()["executed"] == 2
        finally:
            manager.close()

    def test_transient_run_faults_are_retried_away(self, tmp_path):
        # At 10 % a small grid can draw no fault at all; seed 7 on this
        # 12-point grid draws several, and the last assertion pins that.
        faults = parse_fault_spec("sweep-run:error@0.1", seed=7)
        manager = SweepManager(store=ResultStore(tmp_path / "s"),
                               faults=faults, workers=1)
        try:
            job = run(manager, spec(
                slugs=("findsmallestcard", "paralleladditioncards"),
                sizes=(4, 8, 16), seeds=(0, 1)))
            progress = job.progress()
            assert progress["status"] == "done"
            assert progress["failed"] == 0      # retries absorbed the 10%
            assert progress["executed"] == 12
            assert faults.total_injected > 0    # ...that were injected
        finally:
            manager.close()


class TestObservability:
    def test_stats_track_the_lifecycle(self, manager):
        run(manager, spec())
        run(manager, spec())                    # fully cached
        stats = manager.stats()
        assert stats["jobs_submitted"] == 2
        assert stats["jobs_completed"] == 2
        assert stats["points_executed"] == 4
        assert stats["points_cached"] == 4
        assert stats["jobs_active"] == 0
        assert stats["workers"] == 1
        assert stats["memo_entries"] == 4
        assert stats["store"]["saves"] == 4

    def test_memo_is_bounded(self, tmp_path):
        manager = SweepManager(workers=1, memo_limit=2)
        try:
            run(manager, spec(sizes=(4, 6, 8), seeds=(0,)))
            assert manager.stats()["memo_entries"] == 2
        finally:
            manager.close()


class TestPoolLifecycle:
    """The shared process pool: one cold start amortized across jobs,
    idle-timeout teardown when the batch plane goes quiet."""

    def test_pool_cold_starts_once_and_is_reused(self):
        manager = SweepManager(store=None, workers=2,
                               pool_idle_timeout_s=None)
        try:
            run(manager, spec(sizes=(4,), seeds=(0,)))
            run(manager, spec(sizes=(4,), seeds=(1,)))
            stats = manager.stats()
            assert stats["pool_cold_starts"] == 1
            assert stats["pool_reuses"] >= 1
            assert stats["pool_active"] is True
            assert stats["pool_idle_teardowns"] == 0
        finally:
            manager.close()

    def test_idle_timeout_tears_the_pool_down(self):
        manager = SweepManager(store=None, workers=2,
                               pool_idle_timeout_s=0.05)
        try:
            run(manager, spec(sizes=(4,), seeds=(0,)))
            deadline = time.monotonic() + 10.0
            while manager.stats()["pool_active"]:
                assert time.monotonic() < deadline, \
                    "idle pool never torn down"
                time.sleep(0.01)
            stats = manager.stats()
            assert stats["pool_idle_teardowns"] == 1
            # The next job pays a fresh cold start — teardown is real.
            run(manager, spec(sizes=(6,), seeds=(0,)))
            assert manager.stats()["pool_cold_starts"] == 2
        finally:
            manager.close()

    def test_inline_mode_never_starts_a_pool(self, manager):
        run(manager, spec(sizes=(4,), seeds=(0,)))
        stats = manager.stats()
        assert stats["pool_cold_starts"] == 0
        assert stats["pool_active"] is False
        assert stats["pool_idle_timeout_s"] == 30.0


@pytest.mark.skipif(__import__("os").cpu_count() < 2,
                    reason="needs a multi-core host")
def test_process_pool_produces_identical_records(tmp_path):
    serial = SweepManager(store=None, workers=1)
    pooled = SweepManager(store=None, workers=2)
    try:
        a = run(serial, spec(sizes=(4, 8), seeds=(0, 1)))
        b = run(pooled, spec(sizes=(4, 8), seeds=(0, 1)))
        strip = lambda rs: [{k: v for k, v in r.items() if k != "elapsed_ms"}
                            for r in rs]
        assert strip(a.results()) == strip(b.results())
        assert b.progress()["executed"] == 4
    finally:
        serial.close()
        pooled.close()
