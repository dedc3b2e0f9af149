"""Seeded instance sets for the three workloads, and their independent checks.

Every workload is built from *rounds*: a round is a fixed list of strata
(ring, shape or decoding class), and each stratum gets one fresh
seeded instance per round.  The make-up of a set is therefore the same for
every seed; only the instances inside each stratum change.  That keeps the
seed from deciding the mix of cheap and expensive calls, which would
otherwise dominate the run-to-run spread.

Each workload exposes

    build_rings()                  -> dict of the rings it uses (set-up cost)
    generate(rings, rng, rounds)   -> list of Case
    run(case)                      -> the solver's answer (the timed call)
    check(case, answer)            -> True when the answer matches the oracle

The oracles come from ``chainring.oracles`` (plain enumeration); they share
no code path with the solvers they check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from chainring import (
    PolyRing,
    RankDecodingInstance,
    RingMatrix,
    MinRankInstance,
    Zpk,
    build_extension,
    decode,
    galois_ring,
    integer_ring,
    solve_minrank,
    solve_system,
)
from chainring.localring import presentation_from_json, solve_local_system

# The local ring of instances/local_cubic.json: Z8*1 + Z8*theta with
# theta^2 = 4 and 2*theta = 0, sixteen elements.
LOCAL_RING = {
    "kind": "local",
    "base": {"kind": "zpk", "p": 2, "k": 3},
    "gamma": 2,
    "ann": [3, 1],
    "mul": [[[1, 0], [0, 1]], [[0, 1], [4, 0]]],
    "one": [1, 0],
}


@dataclass
class Case:
    """One timed operation: a stratum label, the call's input, the planted
    answer where there is one, and the oracle's answer once computed."""

    stratum: str
    payload: object
    planted: object = None
    expected: frozenset | None = None


def _canon(R, point):
    """Hashable form of a tuple of ring elements, independent of object identity."""
    return tuple(R.sort_key(v) for v in point)


# -- solve ---------------------------------------------------------------------


class SolveWorkload:
    """Small polynomial systems, solved exactly.

    Strata: 1-3 polynomials in 2-3 variables over Z4, Z8 and Z9; in 2
    variables over Z6 and Z12 (the product rings Z2 x Z3 and Z4 x Z3, solved
    through the CRT path), Z25 and GR(4,2), where three variables would make
    the enumeration oracle cost 10-400 ms a system; and over the local ring
    LOCAL_RING, solved by solve_local_system, 1-2 polynomials in 1 variable
    or 2 polynomials in 2 variables.

    Total degree is at most 3 in one or two variables and at most 2 in
    three variables or in two local variables: with degree 3 there, about
    one system in a thousand takes 1-37 s instead of milliseconds, and
    whether a seed draws one decides the run's throughput.  A single local
    polynomial in two variables is left out for the same reason: it cost
    0.05-0.6 s, a third of the pass from a thirty-seventh of the systems.
    """

    name = "solve"
    # host-adjusted seconds one round takes (see README)
    round_seconds = 0.15
    # timed seconds per --seconds second
    size_factor = 1

    def build_rings(self):
        return {
            "Z4": Zpk(2, 2),
            "Z8": Zpk(2, 3),
            "Z9": Zpk(3, 2),
            "Z25": Zpk(5, 2),
            "GR(4,2)": galois_ring(2, 2, 2),
            "Z6": integer_ring(6),
            "Z12": integer_ring(12),
            "local": presentation_from_json(LOCAL_RING),
        }

    @staticmethod
    def strata():
        """(ring, variables, polynomials, maximal total degree) per system."""
        cells = []
        for ring in ("Z4", "Z8", "Z9"):
            cells += [(ring, 2, p, 3) for p in (1, 2, 3)]
            cells += [(ring, 3, p, 2) for p in (1, 2, 3)]
        for ring in ("Z6", "Z12", "Z25", "GR(4,2)"):
            cells += [(ring, 2, p, 3) for p in (1, 2, 3)]
        cells += [("local", 1, 1, 3), ("local", 1, 2, 3), ("local", 2, 2, 2)]
        return cells

    def generate(self, rings, rng: random.Random, rounds: int):
        names = ("x", "y", "z")
        elems = {k: sorted(R.elements(), key=R.sort_key) for k, R in rings.items()}
        poly_rings = {}
        cases = []
        for _ in range(rounds):
            for ring_name, nvars, npolys, degree in self.strata():
                key = (ring_name, nvars)
                if key not in poly_rings:
                    poly_rings[key] = PolyRing(rings[ring_name], names[:nvars], "lex")
                P = poly_rings[key]
                nonzero = elems[ring_name][1:]
                polys = [_random_poly(rng, P, nonzero, nvars, degree) for _ in range(npolys)]
                cases.append(Case(f"{ring_name}/{nvars}v/{npolys}p", polys))
        return cases

    def run(self, case: Case):
        polys = case.payload
        if case.stratum.startswith("local/"):
            return solve_local_system(polys)
        return solve_system(polys)

    def oracle(self, case: Case):
        from chainring.oracles import brute_solve

        R = case.payload[0].ring.ring
        return frozenset(_canon(R, p) for p in brute_solve(case.payload).solutions)

    def check(self, case: Case, answer) -> bool:
        if case.expected is None:
            case.expected = self.oracle(case)
        R = case.payload[0].ring.ring
        points = answer if case.stratum.startswith("local/") else answer.explicit()
        return frozenset(_canon(R, p) for p in points) == case.expected


def _random_poly(rng: random.Random, P: PolyRing, nonzero, nvars: int, degree: int):
    """2-4 terms of total degree <= degree with nonzero coefficients; like
    terms may merge, so the polynomial can come out shorter or zero."""
    terms = []
    for _ in range(rng.randint(2, 4)):
        exps = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exps[rng.randrange(nvars)] += 1
        terms.append((tuple(exps), rng.choice(nonzero)))
    return P.poly(terms)


# -- decode --------------------------------------------------------------------


class DecodeWorkload:
    """Rank-metric decoding over GR(4,2) = Z4[a], k = 1, n = 3, radius 1,
    through decode()'s default strategy chain.

    The code is fixed, g = (1, a, 1 + 2a), and the seed draws the
    received words: x*g plus a planted nonzero error s*b with s in S and b
    in Z4^n, so its rank weight is 1.  With the code fixed, the
    Support-Minors cost of an ambiguous word varies by about a fifth around
    its mean instead of by half, and the mean no longer depends on which
    codes the seed happened to draw.  A word is *unique* when the oracle
    finds only the planted x within the radius and *ambiguous* when it
    finds several.  Unique words decode by key-equation linearization
    (Hermite form and Frobenius, no Gröbner work); ambiguous ones fall
    through to Support-Minors, which is Gröbner work.

    Of 3,000 seeded draws, 1,359 (45.3 %) were ambiguous, so each round
    holds the nearest small ratio, 5 ambiguous words in 11 (45.5 %); a draw
    of the class not wanted is drawn again.  The class comes from the
    oracle, never from the decoder, so a decoder change cannot reshape the
    set.  The oracle runs in a child process (classify_child.py) that
    replays the same draws, so that neither it nor the numpy it imports
    counts in this process's peak memory.
    """

    name = "decode"
    round_seconds = 1.5
    size_factor = 1
    pattern = ("unique", "ambiguous") * 5 + ("unique",)

    def build_rings(self):
        base = Zpk(2, 2)
        return {"Z4": base, "GR(4,2)": build_extension(base, 2)}

    def generate(self, rings, rng: random.Random, rounds: int):
        """The set for rng's draws, classified by a child process running
        draw_set() from the same rng state."""
        # imported here, so that setup_child.py times chainring's imports only
        import json
        import subprocess
        import sys
        from pathlib import Path

        state = json.dumps({"rng": rng.getstate(), "rounds": rounds})
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("classify_child.py"))],
            input=state, capture_output=True, text=True, timeout=600, check=True,
        )
        kinds = iter(json.loads(done.stdout.strip().splitlines()[-1]))
        return self.draw_set(rings, rng, rounds, lambda rd: next(kinds))

    def draw_set(self, rings, rng: random.Random, rounds: int, classify):
        """Draw words until each slot of each round has one of its class;
        classify(instance) gives a draw's class."""
        R, S = rings["Z4"], rings["GR(4,2)"]
        elems = sorted(S.elements(), key=S.sort_key)
        a = S.alpha
        g = (S.one, a, S.add(S.one, S.add(a, a)))
        cases = []
        for _ in range(rounds):
            for wanted in self.pattern:
                while True:
                    rd, x = self._draw(rng, R, S, elems, g)
                    if classify(rd) == wanted:
                        break
                cases.append(Case(wanted, rd, planted=_canon(S, (x,))))
        return cases

    @staticmethod
    def _draw(rng, R, S, elems, g):
        while True:
            x = rng.choice(elems)
            s = rng.choice(elems[1:])
            b = [R.element(rng.randrange(R.modulus)) for _ in g]
            e = tuple(S.scalar_mul(bj, s) for bj in b)
            if any(not v.is_zero() for v in e):
                break
        y = tuple(S.add(S.mul(x, gj), ej) for gj, ej in zip(g, e))
        return RankDecodingInstance(S, (g,), y, 1), x

    def run(self, case: Case):
        return decode(case.payload)

    @staticmethod
    def oracle_set(rd):
        from chainring.oracles import brute_decode_set

        return frozenset(_canon(rd.ext, sol) for sol in brute_decode_set(rd))

    @classmethod
    def oracle_kind(cls, rd) -> str:
        return "unique" if len(cls.oracle_set(rd)) == 1 else "ambiguous"

    def check(self, case: Case, answer) -> bool:
        if case.expected is None:
            case.expected = self.oracle_set(case.payload)
        S = case.payload.ext
        got = frozenset(_canon(S, sol[0]) for sol in answer.solutions)
        return got == case.expected and case.planted in got


# -- minrank -------------------------------------------------------------------


class MinRankWorkload:
    """Planted rank-1 MinRank: M0 + x1*M1 + x2*M2 with 3x3 matrices, K = 2,
    target rank 1, M0 chosen so the planted x gives u*v^T, solved with the
    Kipnis-Shamir strategy ("ks").

    Each round draws four instances over Z4 and one each over Z8 and Z9.
    No traffic figure backs this weighting; it departs from equal weights
    for steadiness.  A Z8 or Z9 call costs about 2.5 times a Z4 call, and
    the two overlap.  With equal weights the median falls where the Z4
    cluster meets the Z8/Z9 one and the 90th percentile in Z9's tail; with
    four Z4 calls in six the median falls inside the Z4 cluster and the
    90th percentile inside the Z8/Z9 one (see README for the spreads).
    Support-Minors Gröbner ("sm-groebner") is left out: about one instance
    in a hundred takes 1-27 s where the median is 0.08 s (see README), and
    whether a seed draws one would decide the run's throughput.
    """

    name = "minrank"
    round_seconds = 1.15
    # minrank's calls are slow and its checks cheap: its percentiles need
    # twice the timed work the others get from the same --seconds
    size_factor = 2
    draws = ("Z4", "Z4", "Z4", "Z4", "Z8", "Z9")

    def build_rings(self):
        return {"Z4": Zpk(2, 2), "Z8": Zpk(2, 3), "Z9": Zpk(3, 2)}

    def generate(self, rings, rng: random.Random, rounds: int):
        cases = []
        for _ in range(rounds):
            for ring_name in self.draws:
                inst, x = _planted_minrank(rng, rings[ring_name])
                cases.append(Case(f"{ring_name}/ks", inst, planted=_canon(inst.ring, x)))
        return cases

    def run(self, case: Case):
        return solve_minrank(case.payload, "ks")

    def oracle(self, case: Case):
        from chainring.oracles import brute_minrank

        R = case.payload.ring
        return frozenset(_canon(R, x) for x in brute_minrank(case.payload))

    def check(self, case: Case, answer) -> bool:
        if case.expected is None:
            case.expected = self.oracle(case)
        got = frozenset(_canon(case.payload.ring, x) for x in answer)
        return got == case.expected and case.planted in got


def _planted_minrank(rng: random.Random, R, m: int = 3, n: int = 3, k: int = 2):
    def el():
        return R.element(rng.randrange(R.modulus))

    mats = tuple(RingMatrix(R, [[el() for _ in range(n)] for _ in range(m)]) for _ in range(k))
    x = tuple(el() for _ in range(k))
    u = [el() for _ in range(m)]
    v = [el() for _ in range(n)]
    m0 = RingMatrix(R, [[R.mul(a, b) for b in v] for a in u])
    for xl, M in zip(x, mats):
        m0 = m0 - M.scale(xl)
    return MinRankInstance(R, mats, 1, m0), x


WORKLOADS = {w.name: w for w in (SolveWorkload(), DecodeWorkload(), MinRankWorkload())}
