#!/usr/bin/env python
"""Run alternating parent/change pairs of the benchmark and keep a ledger.

Each side is a fresh export: a git revision goes through ``git archive``,
and ``WORKTREE`` copies the checkout's tracked and untracked-but-not-
ignored files as they are now.  Exports land in their own directories,
so neither side reuses the other's ``.pb/`` files and the repository's
``.git`` gains nothing.  For every seed the two sides run
``perfbench/run.py --trace 0`` back to back, the side that goes first
alternating from seed to seed.  Per workload, one record is appended to
``BENCH_<workload>.json`` at the repository root: both revisions, the
seeds, ``nproc``, each side's median and quartiles of every end-to-end
metric, the parent's interquartile range and the change's win count
(ties count for neither side).

Usage::

    python tools/bench_pairs.py --workloads fleet --seeds 201-210
    python tools/bench_pairs.py --workloads browse,author,batch \\
        --seeds 301-303 --parent HEAD~1 --change HEAD

The ledger records; it gates nothing.  On a shared two-core host runs
of one commit spread by up to the benchmark's bounds, which is why a
record carries the parent's spread beside the medians.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = "WORKTREE"


def parse_seeds(text: str) -> list[int]:
    """``"201-205,300"`` -> ``[201, 202, 203, 204, 205, 300]``."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def side_order(pair_index: int) -> tuple[str, str]:
    """Which side runs first in a pair: the parent on even pairs."""
    return (("parent", "change") if pair_index % 2 == 0
            else ("change", "parent"))


def last_json(stdout: str) -> dict | None:
    """The JSON object ``perfbench/run.py`` prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) else None


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Aggregate run outputs into the per-metric part of a ledger record.

    ``pairs`` holds ``{"seed", "parent", "change"}`` with each side the
    parsed last line of a run, or ``None`` when the run crashed.  A pair
    counts only when both sides ran and passed their correctness checks;
    ``metrics`` is ``BENCHMARK.json``'s ``end_to_end`` list.
    """
    good = [p for p in pairs
            if all(p[side] is not None and p[side].get("correct")
                   for side in ("parent", "change"))]
    failed = {side: sum(1 for p in pairs
                        if p[side] is None or not p[side].get("correct"))
              for side in ("parent", "change")}
    summary: dict = {"pairs": len(good), "failed_runs": failed,
                     "metrics": {}}
    if not good:
        return summary
    for spec in metrics:
        name, better = spec["name"], spec["better"]
        parent = [p["parent"]["metrics"][name]["value"] for p in good]
        change = [p["change"]["metrics"][name]["value"] for p in good]
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
        ties = sum(1 for a, b in zip(parent, change) if a == b)
        parent_q, change_q = _quartiles(parent), _quartiles(change)
        parent_iqr = parent_q["q3"] - parent_q["q1"]
        gain = sign * (change_q["median"] - parent_q["median"])
        summary["metrics"][name] = {
            "unit": spec["unit"], "better": better,
            "parent": parent_q, "change": change_q,
            "parent_iqr": parent_iqr,
            "change_wins": wins, "ties": ties,
            # The claim rule: at least nine tenths of the pairs won, and
            # the medians apart by more than the parent's own spread.
            "gain_clears_parent_iqr": gain > parent_iqr,
        }
    return summary


def append_record(path: Path, record: dict) -> None:
    """Append ``record`` to the JSON list in ``path`` (created if absent)."""
    records = json.loads(path.read_text(encoding="utf-8")) \
        if path.exists() else []
    records.append(record)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def describe(source: str) -> str:
    """The commit a side runs: a full hash, ``+worktree`` when uncommitted."""
    if source != WORKTREE:
        return _git("rev-parse", source).decode().strip()
    head = _git("rev-parse", "HEAD").decode().strip()
    dirty = _git("status", "--porcelain", "--untracked-files=normal")
    return head + ("+worktree" if dirty.strip() else "")


def export(source: str, dest: Path) -> None:
    """Write the files of ``source`` (a revision or ``WORKTREE``) to ``dest``."""
    dest.mkdir(parents=True)
    if source != WORKTREE:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", source))) as tar:
            tar.extractall(dest)
        return
    listed = _git("ls-files", "-z", "--cached", "--others",
                  "--exclude-standard").decode().split("\0")
    for name in filter(None, listed):
        src = ROOT / name
        if src.is_file():                  # tracked but deleted: skip
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict | None:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    result = last_json(proc.stdout)
    if result is None:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return result


def _table(workload: str, summary: dict) -> str:
    lines = [f"{workload}: {summary['pairs']} pair(s), failed runs "
             f"{summary['failed_runs']}"]
    for name, m in summary["metrics"].items():
        lines.append(
            f"  {name:18} parent {m['parent']['median']:10.4g} "
            f"(IQR {m['parent_iqr']:.3g})  change {m['change']['median']:10.4g}"
            f"  wins {m['change_wins']}/{summary['pairs']}"
            f"{'  clears IQR' if m['gain_clears_parent_iqr'] else ''}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True,
                        help="comma-separated perfbench workloads")
    parser.add_argument("--seeds", required=True, type=parse_seeds,
                        help="one pair per seed, e.g. 201-210")
    parser.add_argument("--parent", default="HEAD",
                        help="revision of the parent side (default HEAD)")
    parser.add_argument("--change", default=WORKTREE,
                        help="revision of the change side, or WORKTREE "
                             "(default) for the checkout as it is")
    parser.add_argument("--note", default="",
                        help="free text stored with each record")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]          # every record at one run length
    workloads = args.workloads.split(",")
    known = {w["name"] for w in spec["workloads"]}
    if not set(workloads) <= known:
        parser.error(f"unknown workload(s): {sorted(set(workloads) - known)}")

    revs = {"parent": describe(args.parent), "change": describe(args.change)}
    work = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {"parent": work / "parent", "change": work / "change"}
    try:
        export(args.parent, checkouts["parent"])
        export(args.change, checkouts["change"])
        for workload in workloads:
            pairs = []
            for index, seed in enumerate(args.seeds):
                pair = {"seed": seed}
                for side in side_order(index):
                    pair[side] = run_once(checkouts[side], workload, seed,
                                          seconds)
                    print(f"{workload} seed {seed} {side}: "
                          f"{json.dumps(pair[side])}", flush=True)
                pairs.append(pair)
            summary = summarize(pairs, spec["end_to_end"])
            record = {
                "rev": revs["change"], "parent": revs["parent"],
                "workload": workload, "seeds": args.seeds,
                "seconds": seconds, "nproc": len(os.sched_getaffinity(0)),
                "date": datetime.date.today().isoformat(),
                "note": args.note, **summary,
            }
            append_record(ROOT / f"BENCH_{workload}.json", record)
            print(_table(workload, summary), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
