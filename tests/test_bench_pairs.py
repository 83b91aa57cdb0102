"""``tools/bench_pairs.py`` aggregation, on canned benchmark outputs.

Nothing here runs the benchmark: the run outputs are the JSON lines
``perfbench/run.py`` prints last, written out by hand.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "throughput_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "tail_ms", "unit": "ms", "better": "lower", "bound": 0.25},
]


def run(throughput, tail, correct=True):
    return {"correct": correct, "attempted": 100, "failed": 0,
            "metrics": {"throughput_per_s": {"value": throughput,
                                             "unit": "1/s"},
                        "tail_ms": {"value": tail, "unit": "ms"}}}


def test_last_json_skips_the_notes(bench_pairs):
    stdout = "note: 3 windows\nCHECK FAILED: x\n" + json.dumps(run(1, 2))
    assert bench_pairs.last_json(stdout) == run(1, 2)
    assert bench_pairs.last_json("Traceback ...\nValueError: boom\n") is None
    assert bench_pairs.last_json("") is None


def test_seeds_and_alternating_order(bench_pairs):
    assert bench_pairs.parse_seeds("201-203,7") == [201, 202, 203, 7]
    orders = [bench_pairs.side_order(i) for i in range(4)]
    assert orders == [("parent", "change"), ("change", "parent")] * 2


def test_summary_medians_quartiles_and_wins(bench_pairs):
    parent = [(100, 6.0), (110, 5.0), (120, 7.0), (130, 6.5), (140, 5.5)]
    change = [(105, 3.0), (110, 3.5), (118, 2.5), (150, 7.5), (160, 3.2)]
    pairs = [{"seed": i, "parent": run(*p), "change": run(*c)}
             for i, (p, c) in enumerate(zip(parent, change))]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["pairs"] == 5
    assert summary["failed_runs"] == {"parent": 0, "change": 0}

    tail = summary["metrics"]["tail_ms"]
    assert tail["parent"] == {"median": 6.0, "q1": 5.5, "q3": 6.5}
    assert tail["change"]["median"] == 3.2
    assert tail["parent_iqr"] == pytest.approx(1.0)
    assert tail["change_wins"] == 4            # lower is better
    assert tail["gain_clears_parent_iqr"] is True

    throughput = summary["metrics"]["throughput_per_s"]
    assert throughput["parent"]["median"] == 120
    assert throughput["change_wins"] == 3      # higher is better
    assert throughput["ties"] == 1             # 110 vs 110 counts for neither
    assert throughput["parent_iqr"] == pytest.approx(20.0)
    assert throughput["gain_clears_parent_iqr"] is False


def test_failed_runs_leave_the_pair_out(bench_pairs):
    pairs = [
        {"seed": 1, "parent": run(100, 5.0), "change": run(120, 4.0)},
        {"seed": 2, "parent": None, "change": run(1, 99.0)},
        {"seed": 3, "parent": run(1, 99.0), "change": run(1, 1.0,
                                                          correct=False)},
    ]
    summary = bench_pairs.summarize(pairs, METRICS)
    assert summary["pairs"] == 1
    assert summary["failed_runs"] == {"parent": 1, "change": 1}
    tail = summary["metrics"]["tail_ms"]
    assert tail["parent"] == {"median": 5.0, "q1": 5.0, "q3": 5.0}
    assert tail["change_wins"] == 1
    assert bench_pairs.summarize(pairs[1:], METRICS)["metrics"] == {}


def test_records_append_to_the_ledger(bench_pairs, tmp_path):
    ledger = tmp_path / "BENCH_fleet.json"
    bench_pairs.append_record(ledger, {"rev": "a"})
    bench_pairs.append_record(ledger, {"rev": "b"})
    assert json.loads(ledger.read_text(encoding="utf-8")) == [
        {"rev": "a"}, {"rev": "b"}]
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_fleet.json"]
