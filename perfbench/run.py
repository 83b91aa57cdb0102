"""Benchmark of the PDCunplugged serving, authoring and sweep stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 15 --trace 0

Workloads: ``browse``, ``fleet``, ``author`` and ``batch``; see
README.md beside this file.  ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` repeats the run untraced, adds the unbounded
side runs, replays it traced, and reports the per-layer metrics and the
tracing overhead.
Human-readable notes go to standard output first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path

import author
import batch
import serving

WORKLOADS = {
    "browse": functools.partial(serving.run, name="browse"),
    "fleet": functools.partial(serving.run, name="fleet"),
    "author": author.run,
    "batch": batch.run,
}

#: Everything a run writes lives here (ignored by git).  Each run gets
#: a directory of its own, and no run deletes another's: deleting the
#: previous author run's files (about 5000) at the start of a run slowed
#: the set-up that followed, which writes files, by up to 2x, and the
#: slowdown grew over back-to-back runs.  A run leaves at most about
#: 25 MB behind.
WORK_DIR = ".pb"


def _metric_specs(root: Path) -> tuple[dict, dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("run from the root of a checkout: src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    end_to_end, per_layer = _metric_specs(root)

    runs = root / WORK_DIR / args.workload
    runs.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"seed{args.seed}-", dir=runs))
    # Temporary files of the program and its servers stay in the checkout.
    tmp = root / WORK_DIR / "t"
    tmp.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    try:
        result = WORKLOADS[args.workload](root, work, args.seed, args.seconds,
                                          bool(args.trace))
    except Exception:                 # noqa: BLE001 - report, exit non-zero
        traceback.print_exc()
        return 1

    for note in result["notes"]:
        print(note)
    for problem in result["problems"]:
        print("CHECK FAILED:", problem)
    if args.trace:
        values = dict.fromkeys(per_layer, 0.0)
        values.update(result["layers"])
        units = per_layer
    else:
        values, units = result["metrics"], end_to_end
    unknown = set(values) - set(units)
    if unknown:
        print(f"unlisted metrics: {sorted(unknown)}", file=sys.stderr)
        return 1
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
