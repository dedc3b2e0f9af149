"""Every public entry point over product rings, pinned in one golden.

A finite PIR is a product of chain rings, and each entry point answers over
it by a CRT split into the components and a join of the component answers.
The golden records those answers over Z6, Z12 and Z30 (three components),
and over the product extensions of Z6 and Z12, so that any change to the
split or the join shows as a byte difference.
"""

import json
import random
from pathlib import Path

from chainring.errors import ChainRingError
from chainring.extension import ProductExtension, build_extension
from chainring.linalg import RingMatrix, free_envelope, kernel, rank, rank_profile, row_membership
from chainring.minrank import MinRankInstance, solve_minrank
from chainring.polys import PolyRing
from chainring.rankdecode import ROUTES, RankDecodingInstance, decode
from chainring.rings import integer_ring
from chainring.solve import ALL_OF_RING, solve_system, solve_system_lifting, univariate_roots

CRT_GOLDEN = Path(__file__).resolve().parent / "goldens" / "product_entry_points.json"
CRT_RINGS = {"z6": integer_ring(6), "z12": integer_ring(12), "z30": integer_ring(30)}
CAPS = (1, 10, 100)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ChainRingError as exc:
        return {"error": type(exc).__name__}


def _vectors(R, vecs):
    return [[R.element_to_json(x) for x in v] for v in vecs]


def linalg_records():
    """rank_profile, rank, kernel, row_membership and free_envelope at every
    r of seeded matrices, with a zero and an identity matrix."""
    rng = random.Random(2028)
    for name, R in CRT_RINGS.items():
        elems = sorted(R.elements(), key=R.sort_key)
        mats = [[[rng.choice(elems) for _ in range(n)] for _ in range(m)] for m, n in ((2, 3), (3, 2), (3, 3), (2, 4))]
        mats.append([[R.zero] * 3 for _ in range(2)])
        mats.append([[R.one if i == j else R.zero for j in range(3)] for i in range(2)])
        for rows in mats:
            A = RingMatrix(R, rows)
            ys = [A.rows[0], [R.add(a, b) for a, b in zip(*A.rows[:2])]]
            ys += [[rng.choice(elems) for _ in range(A.n)] for _ in range(3)]
            yield {
                "ring": name,
                "input": A.to_json()["data"],
                "rank_profile": list(rank_profile(A)),
                "rank": rank(A),
                "kernel": _vectors(R, kernel(A)),
                "row_membership": [row_membership(A, y) for y in ys],
                "free_envelope": [
                    _outcome(lambda r: free_envelope(A, r).to_json()["data"], r) for r in range(A.n + 1)
                ],
            }


def seeded_systems(rng, P, npolys, degree):
    nonzero = sorted(P.ring.elements(), key=P.ring.sort_key)[1:]
    polys = []
    for _ in range(npolys):
        terms = []
        for _ in range(rng.randint(2, 4)):
            exps = [0] * P.nvars
            for _ in range(rng.randint(0, degree)):
                exps[rng.randrange(P.nvars)] += 1
            terms.append((tuple(exps), rng.choice(nonzero)))
        polys.append(P.poly(terms))
    return polys


def univariate_records():
    rng = random.Random(2029)
    for name, R in CRT_RINGS.items():
        P = PolyRing(R, ("x",), "lex")
        systems = [[P.parse("x^2 - x")], [P.parse("x^3 - x"), P.parse("2*x")], [P.zero]]
        systems += [seeded_systems(rng, P, npolys, 3) for npolys in (1, 1, 2, 2)]
        for polys in systems:
            roots = univariate_roots(polys)
            yield {
                "ring": name,
                "polys": [P.poly_to_json(f) for f in polys],
                "roots": "*" if roots is ALL_OF_RING else [R.element_to_json(x) for x in roots],
            }


def solve_records():
    """solve_system and solve_system_lifting over Z30 at each cap."""
    rng = random.Random(2030)
    R = CRT_RINGS["z30"]
    for nvars, npolys, degree in ((1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3), (2, 3, 3)):
        P = PolyRing(R, ("x", "y")[:nvars], "lex")
        for _ in range(3):
            polys = seeded_systems(rng, P, npolys, degree)
            record = {"ring": "z30", "vars": list(P.variables), "polys": [P.poly_to_json(f) for f in polys]}
            for cap in CAPS:
                record[f"solve_{cap}"] = _outcome(lambda: solve_system(polys, cap).to_json())
                record[f"lifting_{cap}"] = _outcome(lambda: solve_system_lifting(polys, cap).to_json())
            yield record


def minrank_records():
    """Every strategy on seeded 2x2 and 2x3 instances over Z6 and Z12,
    homogeneous and affine."""
    rng = random.Random(2031)
    for name in ("z6", "z12"):
        R = CRT_RINGS[name]
        elems = sorted(R.elements(), key=R.sort_key)

        def matrix(m, n):
            return RingMatrix(R, [[rng.choice(elems) for _ in range(n)] for _ in range(m)])

        for (m, n), k, affine in (((2, 2), 1, False), ((2, 2), 2, True), ((2, 3), 2, False), ((2, 3), 1, True)):
            inst = MinRankInstance(R, tuple(matrix(m, n) for _ in range(k)), 1, matrix(m, n) if affine else None)
            record = {"ring": name, "instance": inst.to_json()}
            for strategy in ("ks", "sm-groebner", "sm-linearization"):
                record[strategy] = _outcome(lambda: _vectors(R, solve_minrank(inst, strategy)))
            yield record


def decode_records():
    """Every strategy and auto on seeded k = 1, n = 3 words of radius 1
    over the degree-2 product extensions of Z6 and Z12: an error-free word
    and words at random."""
    rng = random.Random(2032)
    for name in ("z6", "z12"):
        pe = ProductExtension([build_extension(c, 2) for c in CRT_RINGS[name].components])
        elems = sorted(pe.elements(), key=pe.sort_key)
        for i in range(4):
            g = tuple(rng.choice(elems) for _ in range(3))
            if i == 0:
                x0 = rng.choice(elems)
                y = tuple(pe.mul(x0, gj) for gj in g)
            else:
                y = tuple(rng.choice(elems) for _ in range(3))
            rd = RankDecodingInstance(pe, (g,), y, 1)
            record = {"ring": name, "instance": rd.to_json()}
            for strategy in ("auto", *ROUTES):
                res = _outcome(decode, rd, strategy)
                if not isinstance(res, dict):
                    res = {"x": [_vectors(pe, [x])[0] for x, _, _ in res.solutions], "strategy_used": res.strategy_used}
                record[strategy] = res
            yield record


def render_crt_golden() -> str:
    records = [
        *({"linalg": r} for r in linalg_records()),
        *({"univariate": r} for r in univariate_records()),
        *({"solve": r} for r in solve_records()),
        *({"minrank": r} for r in minrank_records()),
        *({"decode": r} for r in decode_records()),
    ]
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records) + "\n]\n"


def test_product_entry_points_match_golden():
    # each entry point's answer over Z6, Z12, Z30 and the product
    # extensions of Z6 and Z12, byte for byte as recorded before the entry
    # points shared one CRT split and join, except the empty Z30 sets at
    # cap 1, which then read as truncated with an unknown count
    assert render_crt_golden() == CRT_GOLDEN.read_text()
