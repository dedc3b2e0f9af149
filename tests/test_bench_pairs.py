"""tools/bench_pairs.py's parsing and summary, on fixed synthetic results;
no benchmark runs."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = [
    {"name": "instances_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_p90_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def result(rate, p90, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 88,
        "failed": failed,
        "metrics": {
            "instances_per_s": {"value": rate, "unit": "1/s"},
            "latency_p90_s": {"value": p90, "unit": "s"},
        },
    }


def test_parse_result_reads_only_a_result_on_the_last_line():
    line = json.dumps(result(100.0, 0.002))
    assert bench_pairs.parse_result(f"setup_s 0.1 s\n{line}\n") == json.loads(line)
    assert bench_pairs.parse_result(f"{line}\nTraceback (most recent call last):\n") is None
    assert bench_pairs.parse_result("") is None
    assert bench_pairs.parse_result('{"correct": true}') is None
    assert bench_pairs.parse_result("[1, 2]") is None


def test_summarise_gives_quartiles_ratio_and_pair_wins_by_direction():
    rates = [(100.0, 110.0), (104.0, 103.0), (96.0, 120.0), (100.0, 100.0)]
    p90s = [(0.004, 0.003), (0.004, 0.005), (0.004, 0.003), (0.004, 0.003)]
    pairs = [
        {"parent": result(rp, lp), "change": result(rc, lc, failed=1), "bad": []}
        for (rp, rc), (lp, lc) in zip(rates, p90s)
    ]
    entry = bench_pairs.summarise(pairs, SPEC, 9)
    assert entry["seed"] == 9 and entry["pairs"] == 4 and entry["attempted_per_run"] == 88
    assert entry["failed"] == {"parent": 0, "change": 4}
    assert entry["correct"] is True and "bad_runs" not in entry
    rate = entry["instances_per_s"]
    assert rate["unit"] == "1/s"
    assert rate["parent_q1_median_q3"] == [99.0, 100.0, 101.0] and rate["parent_iqr"] == 2.0
    assert rate["change_q1_median_q3"] == [102.25, 106.5, 112.5] and rate["change_iqr"] == 10.25
    assert rate["ratio"] == 1.065
    # a tie counts for neither side; higher is better here
    assert rate["change_better_pairs"] == "2/4"
    assert rate["runs"] == {"parent": [r for r, _ in rates], "change": [c for _, c in rates]}
    # lower is better for a latency
    assert entry["latency_p90_s"]["change_better_pairs"] == "3/4"
    assert entry["latency_p90_s"]["ratio"] == 0.75


def test_summarise_reports_a_bad_run_and_leaves_its_pair_out():
    bad = {"pair": 1, "side": "change", "problem": "incorrect answers"}
    pairs = [
        {"parent": result(100.0, 0.004), "change": result(110.0, 0.003), "bad": []},
        {"parent": result(100.0, 0.004), "change": result(900.0, 0.001, correct=False), "bad": [bad]},
    ]
    entry = bench_pairs.summarise(pairs, SPEC, 1)
    assert entry["bad_runs"] == [bad] and entry["correct"] is False
    assert entry["pairs"] == 1
    assert entry["instances_per_s"]["runs"] == {"parent": [100.0], "change": [110.0]}
    # with no complete pair nothing is summarised
    entry = bench_pairs.summarise(pairs[1:], SPEC, 1)
    assert entry["correct"] is False and entry["pairs"] == 0
    assert "instances_per_s" not in entry and "failed" not in entry
