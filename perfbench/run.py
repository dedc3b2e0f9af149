"""chainring benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload {solve,decode,minrank} [--seed N]
                             [--seconds S] [--trace 0|1]

Builds the workload's instance set from the seed, runs one untimed warm-up
pass over its first round (which fills the per-ring caches: Teichmüller
sets, F_m coefficients, GR reduction tables), then times one full pass over
the whole set.  --seconds sets the set's size, not the run's length: the
set has round(seconds * size_factor / round_seconds) rounds, with both
constants fixed per workload, so the work done never depends on how fast
the host is.  After timing, every answer is checked against chainring's
brute-force oracles and, where one was planted, against the planted answer.

Host-speed adjustment: the host this runs on changes speed by up to half
within minutes, for every process alike.  A fixed object-heavy loop owned
by the benchmark (``host_probe``) runs between operations, about every
PROBE_INTERVAL_S seconds of work, and every end-to-end time is scaled by
REF_PROBE_S / (mean probe time of the run): it reads as the time the run
would have taken on a host where the probe takes REF_PROBE_S.  Set-up is
scaled the same way by a reference process that imports standard-library
modules (see measure_setup).  Neither reference shares code with
chainring, so a faster chainring still reads faster.  The unscaled figures
go to perfbench/out/ with the result.

--trace 0 prints the end-to-end metrics.  --trace 1 times one untraced and
one traced pass over the same set and prints the per-layer metrics (wall
seconds, not scaled), the tracing overhead and the host probe; the spans go
to perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The library is imported from the checkout's src/; the
command fails without printing a result when that is missing.
"""

from __future__ import annotations

import os

# numpy (imported by the oracles) must not start a thread pool
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DEFAULT_SEED = 1
SETUP_REPEATS = 15
# host_probe() seconds on the reference host; scaled times read as if there
REF_PROBE_S = 0.015
# `setup_child.py reference` seconds on the reference host; setup_s reads as if there
REF_IMPORT_S = 0.04
PROBE_INTERVAL_S = 0.25


def load_library():
    """Put the checkout's src/ first on the path and make sure chainring
    comes from there, not from an installed copy."""
    package = SRC / "chainring"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: chainring sources not found at {package}")
    for entry in (str(HERE), str(SRC)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    import chainring

    if Path(chainring.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported chainring from {chainring.__file__}, not {package}")


class _Elt:
    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data


class _Ring:
    modulus = 8

    def mul(self, a, b):
        return _Elt(self, (a.data * b.data) % self.modulus)

    def add(self, a, b):
        return _Elt(self, (a.data + b.data) % self.modulus)


def host_probe() -> float:
    """Seconds for a fixed loop in the style of chainring's inner loops
    (boxed ring elements, method calls, tuple keys, dict updates, sorting),
    so that it slows down with the host the way that kind of code does."""
    R = _Ring()
    x = _Elt(R, 3)
    terms = {}
    t0 = time.perf_counter()
    for i in range(6000):
        e = (i % 5, i % 7, i % 3)
        c = R.mul(x, _Elt(R, i))
        old = terms.get(e)
        terms[e] = c if old is None else R.add(old, c)
        if i % 50 == 0:
            sorted(terms, reverse=True)
    return time.perf_counter() - t0


def host_factor(probes) -> float:
    return REF_PROBE_S / statistics.fmean(probes)


def measure_setup(workload: str) -> tuple[float, float]:
    """(scaled, unscaled) median over fresh processes of import + ring
    construction.  Each process follows a fresh reference process that
    imports a fixed set of standard-library modules, and is scaled by
    REF_IMPORT_S / (that process's time): import work follows the host's
    speed more closely than host_probe() does."""

    def child(arg):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_child.py"), arg],
            capture_output=True, text=True, timeout=120, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])

    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        reference = child("reference")
        seconds = child(workload)
        raw.append(seconds)
        scaled.append(seconds * REF_IMPORT_S / reference)
    return statistics.median(scaled), statistics.median(raw)


@dataclass
class Pass:
    results: list = field(default_factory=list)  # (answer or None, seconds, error or None)
    probes: list = field(default_factory=list)

    def seconds(self) -> float:
        return sum(t for _, t, _ in self.results)


def run_pass(wl, cases, probe_every: int, call=None) -> Pass:
    """Run every case once, timing each call; a host probe runs before
    every probe_every-th call."""
    clock = time.perf_counter
    done = Pass()
    for i, case in enumerate(cases):
        if i % probe_every == 0:
            done.probes.append(host_probe())
        t0 = clock()
        try:
            answer = call(wl.run, case) if call else wl.run(case)
            err = None
        except Exception as exc:  # a failed operation is counted, not fatal
            answer, err = None, f"{type(exc).__name__}: {exc}"
        done.results.append((answer, clock() - t0, err))
    return done


def tally(wl, cases, passes):
    """(attempted, failed, wrong) over the timed passes."""
    attempted = failed = wrong = 0
    for results in passes:
        for case, (answer, _, err) in zip(cases, results):
            attempted += 1
            if err is not None:
                failed += 1
                print(f"failed: {case.stratum}: {err}", file=sys.stderr)
            elif not wl.check(case, answer):
                wrong += 1
                print(f"wrong answer: {case.stratum}", file=sys.stderr)
    return attempted, failed, wrong


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("decode", "minrank", "solve"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(wl.name)
    rings = wl.build_rings()
    rounds = max(1, round(args.seconds * wl.size_factor / wl.round_seconds))
    cases = wl.generate(rings, random.Random(f"{wl.name}:{args.seed}"), rounds)
    per_round = len(cases) // rounds
    probe_every = max(1, round(per_round * PROBE_INTERVAL_S / wl.round_seconds))
    run_pass(wl, cases[:per_round], probe_every)  # warm-up: the first round, untimed

    if args.trace:
        passes, metrics, raw = traced_run(wl, cases, probe_every, args.seed)
    else:
        timed = run_pass(wl, cases, probe_every)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes = [timed]
        metrics, raw = end_to_end(timed, setup, peak_rss_mb)
    attempted, failed, wrong = tally(wl, cases, [p.results for p in passes])

    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6f} {unit}")
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, unscaled=raw)
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


def end_to_end(timed: Pass, setup, peak_rss_mb):
    """Scaled end-to-end metrics, and the unscaled figures behind them."""
    factor = host_factor(timed.probes)
    raw_lat = [t for _, t, _ in timed.results]
    lat = [t * factor for t in raw_lat]
    metrics = {
        "setup_s": (setup[0], "s"),
        "instances_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10, method="inclusive")[8], "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    raw = {
        "host_factor": factor,
        "setup_s": setup[1],
        "instances_per_s": len(raw_lat) / sum(raw_lat),
        "latency_p50_s": statistics.median(raw_lat),
        "latency_p90_s": statistics.quantiles(raw_lat, n=10, method="inclusive")[8],
    }
    return metrics, raw


def traced_run(wl, cases, probe_every, seed):
    """One untraced and one traced pass over the same set."""
    from tracer import Tracer, install, layer_metrics

    plain = run_pass(wl, cases, probe_every)
    tracer = Tracer()
    install(tracer)
    try:
        traced = run_pass(wl, cases, probe_every, call=tracer.operation)
    finally:
        tracer.uninstall()

    overhead = (traced.seconds() * host_factor(traced.probes)) / (plain.seconds() * host_factor(plain.probes))
    metrics = {name: (value, unit_of(name)) for name, value in layer_metrics(tracer).items()}
    metrics["host.probe_s"] = (statistics.median(plain.probes + traced.probes), "s")
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    raw = {"trace.overhead_ratio": traced.seconds() / plain.seconds()}
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"trace-{wl.name}-seed{seed}.jsonl")
    return [plain, traced], metrics, raw


if __name__ == "__main__":
    sys.exit(main())
