"""Alternating parent/change runs of perfbench, summarised into a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W
                                 --seeds 1 9 --pairs 10 --out BENCH_N.json

Each tree is a checkout of the repository (parent and change), and each run
is that tree's own, unchanged ``perfbench/run.py --workload W --seed S
--seconds 12 --trace 0``, started in the tree under PYTHONDONTWRITEBYTECODE=1
so that both sides compile their sources alike.  Runs go one at a time; in
pair k (0-based) the parent runs first when k is even and the change first
when k is odd.

For each seed the output file gets ``end_to_end.<W>_seed<S>``: per end-to-end
metric of the parent's BENCHMARK.json, each side's quartiles (inclusive
method) and interquartile range, the ratio of the medians (change over
parent), ``change_better_pairs`` (the direction from the metric's
``better``; ties count for neither side) and every run; and per seed the
failed counts of each side and whether every answer was correct.  Entries
already in the file for other workloads or seeds are kept.

A run whose last line of stdout is not a result, or whose result is not
correct, is reported under ``bad_runs`` and its pair is left out of every
summary; the command then exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 12
SIDES = ("parent", "change")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_result(stdout: str) -> dict | None:
    """The result object on the last line of a run's stdout, or None when
    that line is not one."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or not RESULT_KEYS <= result.keys():
        return None
    return result


def run_once(tree: Path, workload: str, seed: int) -> tuple[dict | None, str]:
    """(result or None, what went wrong) for one perfbench run in tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(SECONDS), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    result = parse_result(done.stdout)
    if result is None:
        tail = (done.stdout.strip().splitlines() or [""])[-1][:200]
        return None, f"exit {done.returncode}, last line {tail!r}, stderr {done.stderr.strip()[-300:]!r}"
    if result["correct"] is not True:
        return result, "incorrect answers"
    return result, ""


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarise(pairs: list[dict], spec: list[dict], seed: int) -> dict:
    """The end_to_end entry of one seed.  pairs holds one dict per pair:
    {"parent": result or None, "change": result or None, "bad": [reports]},
    results as parse_result gives them; spec is BENCHMARK.json's
    end_to_end list."""
    bad = [report for pair in pairs for report in pair["bad"]]
    good = [pair for pair in pairs if not pair["bad"]]
    entry = {
        "seed": seed,
        "pairs": len(good),
        "order": "pair k (0-based): parent first when k is even, change first when k is odd",
    }
    if bad:
        entry["bad_runs"] = bad
    if not good:
        entry["correct"] = False
        return entry
    attempted = {pair[side]["attempted"] for pair in good for side in SIDES}
    entry["attempted_per_run"] = attempted.pop() if len(attempted) == 1 else sorted(attempted)
    entry["failed"] = {side: sum(pair[side]["failed"] for pair in good) for side in SIDES}
    entry["correct"] = not bad
    for metric in spec:
        name = metric["name"]
        runs = {side: [pair[side]["metrics"][name]["value"] for pair in good] for side in SIDES}
        summary = {"unit": metric["unit"]}
        for side in SIDES:
            q = quartiles(runs[side])
            summary[f"{side}_q1_median_q3"] = [round(v, 7) for v in q]
            summary[f"{side}_iqr"] = round(q[2] - q[0], 7)
        parent_median, change_median = (statistics.median(runs[side]) for side in SIDES)
        summary["ratio"] = round(change_median / parent_median, 4) if parent_median else None
        sign = 1 if metric["better"] == "higher" else -1
        better = sum(1 for p, c in zip(runs["parent"], runs["change"]) if sign * (c - p) > 0)
        summary["change_better_pairs"] = f"{better}/{len(good)}"
        summary["runs"] = {side: [round(v, 7) for v in runs[side]] for side in SIDES}
        entry[name] = summary
    return entry


def run_pairs(trees: dict[str, Path], workload: str, seed: int, count: int) -> list[dict]:
    pairs = []
    for k in range(count):
        pair = {"bad": []}
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            result, problem = run_once(trees[side], workload, seed)
            pair[side] = result
            if problem:
                pair["bad"].append({"pair": k, "side": side, "problem": problem})
                print(f"{workload} seed {seed} pair {k} {side}: {problem}", file=sys.stderr)
        pairs.append(pair)
        print(f"{workload} seed {seed}: pair {k + 1}/{count} done", file=sys.stderr)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True, choices=("decode", "minrank", "solve"))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())["end_to_end"]
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    clean = True
    for seed in args.seeds:
        entry = summarise(run_pairs(trees, args.workload, seed, args.pairs), spec, seed)
        clean = clean and "bad_runs" not in entry
        doc.setdefault("end_to_end", {})[f"{args.workload}_seed{seed}"] = entry
        args.out.write_text(json.dumps(doc, indent=2, ensure_ascii=False) + "\n")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
