"""Wider randomized cross-validation: extension-ring coefficients, three
variables, target rank 2, and product-extension decoding with real errors."""

import random

from chainring.linalg import RingMatrix
from chainring.minrank import MinRankInstance, solve_minrank
from chainring.oracles import brute_minrank, brute_solve
from chainring.polys import PolyRing
from chainring.rankdecode import RankDecodingInstance, decode
from chainring.rings import RingElement, integer_ring
from chainring.solve import solve_system, solve_system_lifting
from chainring.extension import ProductExtension, build_extension


def test_solver_over_galois_coefficients(gr42):
    rng = random.Random(55)
    P = PolyRing(gr42, ("x", "y"), "lex")
    elems = list(gr42.elements())
    done = 0
    while done < 6:
        system = [
            P.poly(
                {
                    (rng.randrange(3), rng.randrange(3)): rng.choice(elems)
                    for _ in range(3)
                }
            )
            for _ in range(2)
        ]
        system = [p for p in system if not p.is_zero()]
        if not system:
            continue
        done += 1
        assert solve_system(system).explicit() == brute_solve(system).explicit()


def test_three_variable_systems(z4):
    rng = random.Random(56)
    P = PolyRing(z4, ("x", "y", "z"), "lex")
    elems = list(z4.elements())
    done = 0
    while done < 8:
        system = [
            P.poly(
                {
                    (rng.randrange(3), rng.randrange(2), rng.randrange(2)): rng.choice(elems)
                    for _ in range(3)
                }
            )
            for _ in range(2)
        ]
        system = [p for p in system if not p.is_zero()]
        if not system:
            continue
        done += 1
        reference = brute_solve(system).explicit()
        assert solve_system(system).explicit() == reference
        assert solve_system_lifting(system).explicit() == reference


def test_minrank_target_rank_two(z4):
    rng = random.Random(57)
    for _ in range(3):
        mats = (RingMatrix(z4, [[rng.randrange(4) for _ in range(3)] for _ in range(3)]),)
        m0 = RingMatrix(z4, [[rng.randrange(4) for _ in range(3)] for _ in range(3)])
        inst = MinRankInstance(z4, mats, 2, m0)
        expected = sorted([v.data for v in x] for x in brute_minrank(inst))
        for strategy in ("ks", "sm-groebner"):
            got = sorted([v.data for v in x] for x in solve_minrank(inst, strategy))
            assert got == expected


def test_product_extension_decode_with_errors():
    z6 = integer_ring(6)
    comps = [build_extension(c, 2) for c in z6.components]
    pe = ProductExtension(comps)
    S = pe
    rng = random.Random(58)
    elems = list(S.elements())
    done = 0
    while done < 3:
        g = tuple(rng.choice(elems) for _ in range(4))
        if not any(v.is_unit() for v in g):
            continue
        x = rng.choice(elems)
        parts_e = []
        for comp in comps:
            b = rng.choice(list(comp.elements()))
            row = [rng.choice(list(comp.base.elements())) for _ in range(4)]
            parts_e.append([comp.scalar_mul(a, b) for a in row])
        e = tuple(
            RingElement(S, (parts_e[0][j], parts_e[1][j])) for j in range(4)
        )
        y = tuple(S.add(S.mul(x, gj), ej) for gj, ej in zip(g, e))
        rd = RankDecodingInstance(pe, (g,), y, 1)
        done += 1
        res = decode(rd)
        assert all(rd.check(sol[0]) for sol in res.solutions)
        # the planted x is a valid decoding; greedy strategies may surface a
        # different but equally valid one, which check() already accepts
        assert rd.check((x,))
