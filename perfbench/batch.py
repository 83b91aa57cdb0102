"""The ``batch`` workload: instructors running classroom sweeps.

In process, through :class:`~repro.sweep.SweepManager` and an on-disk
:class:`~repro.sweep.ResultStore`.  A caller submits one seeded job,
waits for it, then submits the next (a closed loop).  The operation is
one job; throughput counts sweep points, executed and cached alike.

The end-to-end figures come from one caller and one worker (points run
inline).  With ``nproc`` pool workers and ``nproc`` callers the run uses
both cores of a shared two-core virtual machine, and between runs of one
configuration the spread reached 0.3-0.5 whenever the host took CPU time
from the guest, against 0.2-0.35 inline at the same time.  A traced run
adds a side run with the ``nproc``-worker pool for the pool figures,
without a bound.

Every time here (set-up, job latency, the run's length for throughput)
is read on :class:`measure.StealFreeClock`: wall time less the CPU time
the host stole from the virtual machine.  On wall time a job the host
preempts for a few milliseconds moves from the bulk of the jobs into
their top tenth, so the p90 rose with the host's load about twice as
fast as throughput fell, and across ten seeds its spread reached 0.37
of its median.  Over ten runs at 10-15 % steal, the p90 of steal-free
latencies spread 0.025 where the wall p90 spread 0.13 (p50 0.029
against 0.077, throughput 0.034 against 0.13); README.md gives a set
that straddled a change in the host's load.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import inputs
import measure
import spans

#: Set-up repetitions (the median is reported), half before and half
#: after the measured loop, so that they sample the whole run.
SETUP_REPS = 16

#: Workers and callers of the measured runs (see the module docstring).
WORKERS = 1

#: Seeds of the pool warm-up job: outside the range jobs draw from, so
#: warming never pre-fills a measured point.
_WARM_SEED = 2_000_000

#: Fresh re-runs compared with cached records after a run.
_RECHECKED = 8

#: (slug, n, check) triples that the program's simulations fail for a
#: few seeds at the sweep plane's default parameters (base_step_time
#: 1.0, step_time_jitter 0.2).  Over 3000 seeds per ordinary slug and
#: 600 per heavy one at n in {8, 32}, only these failed: exam grading
#: in about 9 % of seeds, garbage collection in about 6 % at n=32 and
#: 0.7 % at n=8, the multicore kitchen in 0.3 %.  They are
#: deterministic findings in the simulations, not in the sweep plane.
#: A point failing only these is counted and named in the notes; any
#: other failing check fails the run.
KNOWN_CHECK_FAILURES = frozenset(
    (slug, n, check)
    for slug, check in (
        ("examgradingspeedup", "karp_flatt_recovers_serial_fraction"),
        ("examgradingspeedup", "speedup_monotone"),
        ("multicorekitchen", "locality_speeds_service"),
        ("parallelgarbagecollection", "naive_pass_misses_live_objects"))
    for n in (8, 32))


def _setup(work: Path, index: int, workers: int):
    """A manager over a fresh store, warm: one small point of every
    simulation has run on it (on its pool, when it has one).  Also
    returns how long that took, steal-free."""
    from repro.sweep import ResultStore, SweepManager, SweepSpec
    from repro.unplugged import SIMULATIONS

    clock = measure.StealFreeClock()
    manager = SweepManager(store=ResultStore(work / f"store-{index}"),
                           workers=workers)
    warm = manager.submit(SweepSpec.parse({
        "slugs": sorted(SIMULATIONS), "sizes": [4], "seeds": [_WARM_SEED]}))
    if not warm.wait(timeout=60) or warm.status != "done":
        raise RuntimeError(f"warm-up job ended {warm.status}")
    return manager, clock.now()


def _job_loop(manager, seed: int, callers: int, seconds: float,
              tracer=None) -> dict:
    from repro.sweep import SweepSpec
    from repro.unplugged import SIMULATIONS

    jobs = inputs.sweep_jobs(sorted(SIMULATIONS), seed)
    jobs_lock = threading.Lock()
    stop = threading.Event()
    done: list[dict] = []

    def one_job(spec):
        job = manager.submit(spec)
        job.wait()
        return job

    if tracer is not None:
        one_job = tracer.wrap(one_job, "batch.job", root=True)

    def caller():
        while not stop.is_set():
            with jobs_lock:
                spec = SweepSpec.parse(next(jobs))
            issued, wall = clock.now(), time.perf_counter()
            job = one_job(spec)
            done.append({"latency": clock.now() - issued,
                         "wall": time.perf_counter() - wall,
                         "progress": job.progress(),
                         "results": job.results(), "workers": manager.workers})

    threads = [threading.Thread(target=caller, name=f"caller-{i}")
               for i in range(callers)]
    clock = measure.StealFreeClock()
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(seconds)
    stop.set()
    for thread in threads:
        thread.join(timeout=120)
        if thread.is_alive():
            raise RuntimeError("a sweep job did not finish within 120 s")
    return {"jobs": done, "elapsed": time.perf_counter() - started,
            "steal_free": clock.now()}


def _check(loop: dict, problems: list[str],
           notes: list[str]) -> tuple[int, int]:
    """Every point ran and passed its simulation's own checks; executed +
    cached = submitted; cached records equal a fresh run.  Returns the
    failed jobs and the distinct points that failed a check listed in
    ``KNOWN_CHECK_FAILURES``.

    A point that fails a listed check is a known finding in the
    simulation, returned faithfully by the sweep plane: it is counted
    and named in ``notes`` on every run, and the job does not fail.  A
    point failing any other check fails its job and the run.
    """
    from repro.sweep import run_point

    failed = 0
    cached_records = []
    known = set()
    for job in loop["jobs"]:
        progress = job["progress"]
        bad = [r for r in job["results"] if r["status"] != "ok"]
        for record in job["results"]:
            if record["status"] != "ok" or record["all_checks_pass"]:
                continue
            failing = {(record["slug"], record["n"], check)
                       for check, passed in record["checks"].items()
                       if not passed}
            if failing and failing <= KNOWN_CHECK_FAILURES:
                known.add((record["slug"], record["n"], record["seed"]))
            else:
                bad.append(record)
        if (progress["status"] != "done" or bad
                or progress["executed"] + progress["cached"]
                != progress["total"]):
            failed += 1
            problems.append(f"job {progress['id']}: {progress['status']}, "
                            f"{len(bad)} point(s) not ok or failing an "
                            f"unlisted check, executed "
                            f"{progress['executed']} + cached "
                            f"{progress['cached']} of {progress['total']}")
        if progress["cached"] == progress["total"]:
            cached_records.extend(job["results"])
    for record in cached_records[:_RECHECKED]:
        fresh = run_point({key: record[key] for key in
                           ("key", "slug", "n", "seed", "params")})
        if _stable(fresh) != _stable(record):
            problems.append(f"cached point {record['key'][:12]} differs "
                            f"from a fresh run")
    if not cached_records:
        problems.append("no job was served from the result store")
    notes.append(f"batch: {len(known)} distinct point(s) failed a known "
                 f"simulation check (KNOWN_CHECK_FAILURES): "
                 f"{sorted(known)[:6]}")
    return failed, len(known)


def _stable(record: dict) -> str:
    """A record without its wall-clock field, canonically encoded."""
    return json.dumps({k: v for k, v in record.items() if k != "elapsed_ms"},
                      sort_keys=True)


def _dispatch_wait_ms(loop: dict) -> float:
    """Mean over jobs of wall time minus its executed points' run time
    per worker; a point counts as executed in the first job to return it."""
    seen: set[str] = set()
    waits = []
    for job in sorted(loop["jobs"], key=lambda j: j["progress"]["id"]):
        run_ms = sum(r["elapsed_ms"] for r in job["results"]
                     if r["key"] not in seen)
        seen.update(r["key"] for r in job["results"])
        waits.append(job["wall"] * 1e3 - run_ms / job["workers"])
    return sum(waits) / len(waits)


def _figures(loop: dict) -> tuple[dict, int]:
    """Points per steal-free second over the whole run, and the p50 and
    p90 of every job's steal-free latency.  Also returns how many
    samples lie beyond the p90."""
    points = sum(j["progress"]["total"] for j in loop["jobs"])
    latencies = [j["latency"] * 1e3 for j in loop["jobs"]]
    p90, beyond = measure.tail(latencies, 90)
    return {"throughput_per_s": points / loop["steal_free"],
            "p50_ms": measure.percentile(latencies, 50),
            "tail_ms": p90}, beyond


def _wall_rate(loop: dict) -> float:
    """Points per wall-clock second.  The pool keeps both CPUs busy, and
    steal summed over them would be taken out of one clock twice, so the
    pool and the inline run are compared on wall time."""
    return sum(j["progress"]["total"] for j in loop["jobs"]) / loop["elapsed"]


def _pool_side_run(work: Path, seed: int, seconds: float) -> dict:
    """The pool figures: ``nproc`` workers and ``nproc`` callers."""
    workers = measure.nproc()
    manager, _ = _setup(work, 98, workers)
    try:
        loop = _job_loop(manager, seed, workers, seconds)
        stats = manager.stats()
    finally:
        manager.close()
    return {"rate": _wall_rate(loop),
            "sweep.dispatch_wait_ms": _dispatch_wait_ms(loop),
            "sweep.pool_cold_starts": float(stats["pool_cold_starts"]),
            "sweep.points_failed": float(stats["points_failed"])}


def run(root: Path, work: Path, seed: int, seconds: float,
        trace: bool) -> dict:
    reps = 1 if trace else SETUP_REPS
    samples: list[dict] = []

    def timed_setup(index: int):
        steal = measure.StealMeter()
        manager, elapsed = _setup(work, index, WORKERS)
        samples.append({"value": elapsed, "steal": steal.share()})
        return manager

    for index in range(reps // 2):
        timed_setup(index).close()
    manager = timed_setup(reps // 2)
    try:
        measure.reset_peak_rss(os.getpid())
        loop = _job_loop(manager, seed, WORKERS, seconds)
        rss = measure.tree_peak_rss_mb(os.getpid())
        stats = manager.stats()
    finally:
        manager.close()
    for index in range(reps // 2 + 1, reps):
        timed_setup(index).close()
    problems: list[str] = []
    notes: list[str] = []
    failed, verdicts = _check(loop, problems, notes)

    jobs = loop["jobs"]
    points = sum(j["progress"]["executed"] + j["progress"]["cached"]
                 for j in jobs)
    figures, beyond = _figures(loop)
    metrics = dict(figures, setup_s=measure.median_sample(samples),
                   rss_mb=rss)
    notes.insert(0, f"batch: {len(jobs)} jobs, {points} points in "
                    f"{loop['elapsed']:.2f} s ({loop['steal_free']:.2f} s "
                    f"steal-free), {WORKERS} caller and worker; tail_ms is "
                    f"p90 with {beyond} samples beyond it; setup "
                    + measure.describe_samples(samples))
    layers = None
    if trace:
        cached = sum(j["progress"]["cached"] for j in jobs)
        pool = _pool_side_run(work, seed, seconds)
        layers = {
            "sweep.cached_share": cached / points,
            "sweep.pool_speedup": pool.pop("rate") / _wall_rate(loop),
            "sim.checks_failed": float(verdicts),
            **pool,
        }
        layers["sweep.points_failed"] += stats["points_failed"]
        tracer = spans.Tracer(work / "spans")
        spans.install(tracer)
        manager, _ = _setup(work, 99, WORKERS)
        tracer.take()                 # the warm-up job is set-up
        try:
            traced = _job_loop(manager, seed, WORKERS, seconds, tracer=tracer)
            measured = tracer.take()
        finally:
            manager.close()
        tracer.dump(measured)
        names = spans.summarize(spans.load(work / "spans"))
        layers.update({
            "sweep.store_get_ms": spans.mean_ms(names, "sweep.store_get"),
            "sweep.store_put_ms": spans.mean_ms(names, "sweep.store_put"),
            "sweep.point_ms": spans.mean_ms(names, "sweep.run_point"),
            "sim.run_ms.cheap": spans.mean_ms(names, "sim.run", tag=8),
            "sim.run_ms.heavy": spans.mean_ms(names, "sim.run", tag=32),
        })
        for layer, value in spans.layer_self_ms(
                names, len(traced["jobs"])).items():
            layers[f"self_ms.{layer}"] = value
        traced_rate = _figures(traced)[0]["throughput_per_s"]
        layers["trace.overhead_pct"] = (
            metrics["throughput_per_s"] / traced_rate - 1.0) * 100.0
        notes.append(f"batch: tracing overhead "
                     f"{layers['trace.overhead_pct']:.1f}% (traced: "
                     f"{len(traced['jobs'])} jobs in {traced['elapsed']:.2f} "
                     f"s, {traced['steal_free']:.2f} s steal-free)")
    return {"attempted": len(jobs), "failed": failed, "problems": problems,
            "metrics": metrics, "layers": layers, "notes": notes}
