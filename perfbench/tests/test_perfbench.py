"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.load_library()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from chainring import SolutionSet  # noqa: E402
from chainring.rankdecode import DecodeResult  # noqa: E402

E2E = {"setup_s", "instances_per_s", "latency_p50_s", "latency_p90_s", "peak_rss_mb"}


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def cases_of(name: str, rounds: int = 1, seed: int = 7):
    wl = workloads.WORKLOADS[name]
    return wl, wl.generate(wl.build_rings(), random.Random(seed), rounds)


@pytest.mark.parametrize("name", ["solve", "decode", "minrank"])
def test_workload_runs_end_to_end(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.1"]) == 0
    result = last_json(capsys.readouterr().out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == E2E
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "decode", "--seed", "3", "--seconds", "0.1", "--trace", "1"]) == 0
    result = last_json(capsys.readouterr().out)
    expected = set(tracing.layer_metrics(tracing.Tracer())) | {"host.probe_s", "trace.overhead_ratio"}
    assert set(result["metrics"]) == expected
    assert result["correct"] is True and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # the ambiguous words fall through linearization to Support-Minors
    pattern = workloads.DecodeWorkload.pattern
    assert m["rankdecode.linearization_inconclusive"] == pattern.count("ambiguous")
    assert m["rankdecode.sm_s"] > 0 and m["linalg.hermite_form_calls"] >= len(pattern)


def test_same_seed_same_instances():
    _, a = cases_of("decode", seed=11)
    _, b = cases_of("decode", seed=11)
    assert [c.payload.received for c in a] == [c.payload.received for c in b]
    assert [c.stratum for c in a] == list(workloads.DecodeWorkload.pattern)


def test_decode_set_leaves_the_oracle_out_of_the_process():
    # the oracle (and numpy) load only in the classifying child, so they do
    # not count in the benchmark process's peak memory
    code = (
        "import random, sys; sys.path.insert(0, 'perfbench'); import run; run.load_library(); "
        "import workloads; wl = workloads.WORKLOADS['decode']; "
        "cases = wl.generate(wl.build_rings(), random.Random(5), 1); "
        "print(len(cases), 'chainring.oracles' in sys.modules, 'numpy' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], cwd=BENCH.parent, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == [str(len(workloads.DecodeWorkload.pattern)), "False", "False"]


# -- the checkers reject tampered answers -----------------------------------------


def _tamperings(R, points, expected, canon):
    """Point sets with one solution dropped, one coordinate of a solution
    changed, and one non-solution added."""
    points = sorted(points, key=canon)
    elems = sorted(R.elements(), key=R.sort_key)
    original, changed = next(
        (p, p[:i] + (v,) + p[i + 1:])
        for p in points
        for i in range(len(p))
        for v in elems
        if v != p[i] and canon(p[:i] + (v,) + p[i + 1:]) not in expected
    )
    return [
        points[1:],
        [changed if p is original else p for p in points],
        points + [changed],
    ]


def test_solve_checker_rejects_tampering():
    wl, cases = cases_of("solve", rounds=2)
    case = next(
        c for c in cases
        if not c.stratum.startswith("local/") and 0 < len(wl.oracle(c)) < 50
    )
    answer = wl.run(case)
    assert wl.check(case, answer)
    R = case.payload[0].ring.ring
    names = case.payload[0].ring.variables
    canon = lambda p: workloads._canon(R, p)  # noqa: E731
    for points in _tamperings(R, answer.explicit(), case.expected, canon):
        assert not wl.check(case, SolutionSet(R, names, frozenset(points)))


def test_local_solve_checker_rejects_tampering():
    wl, cases = cases_of("solve", rounds=3)
    case = next(c for c in cases if c.stratum.startswith("local/") and wl.oracle(c))
    answer = wl.run(case)
    assert wl.check(case, answer)
    R = case.payload[0].ring.ring
    canon = lambda p: workloads._canon(R, p)  # noqa: E731
    for points in _tamperings(R, answer, case.expected, canon):
        assert not wl.check(case, frozenset(points))


def test_decode_checker_rejects_tampering():
    wl, cases = cases_of("decode")
    case = next(c for c in cases if c.stratum == "ambiguous")
    answer = wl.run(case)
    assert wl.check(case, answer)
    rd = case.payload
    S = rd.ext
    canon = lambda p: workloads._canon(S, p)  # noqa: E731
    for xs in _tamperings(S, [sol[0] for sol in answer.solutions], case.expected, canon):
        tampered = DecodeResult(tuple((x, rd.codeword(x), rd.error_of(x)) for x in xs), "sm")
        assert not wl.check(case, tampered)


def test_decode_checker_requires_the_planted_word():
    wl, cases = cases_of("decode")
    case = next(c for c in cases if c.stratum == "unique")
    answer = wl.run(case)
    assert wl.check(case, answer)
    case.planted = ("not", "planted")
    assert not wl.check(case, answer)


def test_minrank_checker_rejects_tampering():
    wl, cases = cases_of("minrank")
    case = cases[0]
    answer = wl.run(case)
    assert wl.check(case, answer)
    R = case.payload.ring
    canon = lambda p: workloads._canon(R, p)  # noqa: E731
    for xs in _tamperings(R, answer, case.expected, canon):
        assert not wl.check(case, xs)


# -- tracing -----------------------------------------------------------------------------


def test_traced_counters_add_up_and_spans_nest():
    wl, cases = cases_of("minrank")
    import chainring
    from chainring import groebner, solve

    originals = (chainring.buchberger, solve.buchberger, groebner.strong_reduce)
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        for case in cases:
            assert wl.check(case, tr.operation(wl.run, case))
    finally:
        tr.uninstall()
    assert (chainring.buchberger, solve.buchberger, groebner.strong_reduce) == originals

    m = tracing.layer_metrics(tr)
    assert m["groebner.head_reductions"] >= m["groebner.zero_reductions"] > 0
    assert 0 < m["groebner.useful_reduction_ratio"] < 1
    assert m["polys.strong_reduce_calls"] >= m["groebner.head_reductions"]
    assert m["groebner.buchberger_calls"] > 0 and m["minrank.model_s"] > 0
    assert m["rings.mul_calls"] > 0 and m["linalg.smith_normal_form_calls"] > 0
    assert tr.nesting_violations() == 0
    # every span hangs under the root span of its operation
    roots = {i for i, s in enumerate(tr.spans) if s[tracing.NAME] == "bench.operation"}
    assert len(roots) == len(cases)
    assert all(s[tracing.ROOT] in roots for s in tr.spans)
    # self times partition the root spans' time
    total = sum(tr.spans[i][tracing.END] - tr.spans[i][tracing.START] for i in roots)
    assert sum(tr.self_seconds_by_layer().values()) == pytest.approx(total, rel=1e-6)


def test_solution_tuples_counts_outermost_calls_expanded():
    import chainring

    P = chainring.PolyRing(chainring.integer_ring(12), ("x", "y"), "lex")
    system = [P.parse("2*x")]  # x in {0, 6}, y free; split by CRT over Z4 x Z3
    expected = len(chainring.solve_system(system).explicit())
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        tr.operation(chainring.solve_system, system)
    finally:
        tr.uninstall()
    assert tr.calls("solve.solve_system") > 1  # the CRT components are spans too
    assert tracing.layer_metrics(tr)["solve.solution_tuples"] == expected == 24


def test_nesting_check_catches_a_span_outside_its_parent():
    tr = tracing.Tracer()
    tr.spans = [["a", 0.0, 1.0, -1, 0, None], ["b", 0.5, 1.5, 0, 0, None]]
    assert tr.nesting_violations() == 1


# -- without the library -------------------------------------------------------------------


def test_fails_without_a_result_when_the_library_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
