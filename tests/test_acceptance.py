"""Acceptance gate: every golden value is matched exactly (exact arithmetic,
zero tolerance), and the property suites run against the independent
brute-force oracles.  One PASS/FAIL line prints per criterion."""

import random
from contextlib import contextmanager

import pytest

from chainring.errors import Inconclusive, NotChainRing
from chainring.extension import build_extension
from chainring.groebner import buchberger
from chainring.linalg import (
    RingMatrix,
    hermite_form,
    rank,
    rank_distance,
    reduced_row_echelon,
    standard_form,
)
from chainring.localring import quotient_presentation, solve_local_system
from chainring.minrank import solve_minrank, sm_linearization_matrix
from chainring.oracles import (
    brute_decode_set,
    brute_free_envelopes,
    brute_minrank,
    brute_solve,
)
from chainring.polys import MonomialOrder, PolyRing
from chainring.rankdecode import (
    RankDecodingInstance,
    key_equation_model,
    minrank_x_to_codeword_x,
    solve_key_groebner,
    solve_key_linearization,
    to_minrank,
)
from chainring.rings import integer_ring
from chainring.solve import (
    ring_vanishing_polynomial,
    solve_system,
    solve_system_lifting,
    solve_univariate,
)


@contextmanager
def criterion(n, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {description}")


def test_criterion_1_groebner_golden(z8):
    with criterion(1, "Groebner basis of the Z8 worked example"):
        P = PolyRing(z8, ("x", "y"), "lex")
        g1 = P.parse("4*x^2*y + y^3 + 2*y + 4")
        g2 = P.parse("4*x*y^2")
        g3 = P.parse("y^4 + 2*y^2 + 4*y")
        g4 = P.parse("2*y^3 + 4*y")
        G = buchberger([g1, g2])
        # same ideal as {g1, g2, g3, g4}
        reference = buchberger([g1, g2, g3, g4], P)
        for f in (g1, g2, g3, g4):
            assert G.reduce(f).is_zero()
        for f in G.generators:
            assert reference.reduce(f).is_zero()
        # interreduced canonical output contains g3 and g4 exactly
        assert g3 in G.generators
        assert g4 in G.generators


def test_criterion_2_field_equation_golden(z8):
    with criterion(2, "field-equation basis and the Z8 vanishing polynomial"):
        order = MonomialOrder("lex", (1, 0))  # y > x
        P = PolyRing(z8, ("x", "y"), order)
        fm_x = ring_vanishing_polynomial(z8, P, 0)
        fm_y = ring_vanishing_polynomial(z8, P, 1)
        # F_m = (x^2 - x)^2 - 2(x^2 - x)
        e = P.parse("x^2 - x")
        assert fm_x == e * e - P.parse("2").scale(z8.one) * e
        system = [P.parse("4*x^2*y + y^3 + 2*y + 4"), P.parse("4*x*y^2"), fm_x, fm_y]
        G = buchberger(system, P)
        assert {str(g) for g in G.generators} == {
            "y^2 + 4",
            "2*y + 4",
            "x^4 + 6*x^3 + 7*x^2 + 2*x",
        }


def test_criterion_3_solver_goldens(z8, z25):
    with criterion(3, "univariate, bivariate, and local-ring solution sets"):
        P25 = PolyRing(z25, ("x",), "lex")
        sol = solve_univariate([P25.parse("x^5 - x"), P25.parse("5*x + 10")])
        assert {x.data for (x,) in sol.solutions} == {18}

        P8 = PolyRing(z8, ("x", "y"), "lex")
        system = [P8.parse("4*x^2*y + y^3 + 2*y + 4"), P8.parse("4*x*y^2")]
        sol8 = solve_system(system)
        explicit = {(a.data, b.data) for a, b in sol8.explicit()}
        assert explicit == {(t, y) for t in range(8) for y in (2, 6)}
        assert len(explicit) == 16

        pres = quotient_presentation(2, 3, [4, 0, 1], 1)
        P = PolyRing(pres, ("x",), "lex")
        cubic = P.poly(
            [((3,), pres.from_int(1)), ((1,), pres.from_int(2)), ((0,), pres.from_int(4))]
        )
        roots = solve_local_system([cubic])
        coords = {tuple(c.data for c in pres.coords(r)) for (r,) in roots}
        assert coords == {(2, 0), (6, 0), (2, 1), (6, 1)}  # 2, 6, 2+theta, 6+theta


def test_criterion_4_rank_goldens(z8):
    with criterion(4, "matrix ranks and the four free envelopes of (2 0 4)"):
        A = RingMatrix(z8, [[2, 0], [0, 4]])
        assert rank(A) == 2
        assert rank(A.scale(6)) == 1
        envs = brute_free_envelopes(RingMatrix(z8, [[2, 0, 4]]), 1)
        gens = [[x.data for x in rows[0]] for rows in envs]
        assert len(gens) == 4
        assert sorted(gens) == [[1, 0, 2], [1, 0, 6], [1, 4, 2], [1, 4, 6]]


def test_criterion_5_minrank_goldens(homogeneous_minrank_z8, affine_minrank_z8):
    with criterion(5, "MinRank solution sets and the 12x12 echelon matrix"):
        expected = [[0, 0, 0], [0, 0, 4], [4, 4, 2], [4, 4, 6]]

        def as_ints(solutions):
            return sorted([v.data for v in x] for x in solutions)

        assert as_ints(brute_minrank(homogeneous_minrank_z8)) == expected
        for strategy in ("ks", "sm-groebner", "sm-linearization"):
            assert as_ints(solve_minrank(homogeneous_minrank_z8, strategy)) == expected

        assert as_ints(solve_minrank(affine_minrank_z8, "ks")) == [[1, 3, 6]]

        A, _ = sm_linearization_matrix(homogeneous_minrank_z8)
        E = reduced_row_echelon(A)
        printed = [
            [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
            [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
            [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2],
            [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2],
            [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2],
            [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2],
            [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2],
            [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2],
            [0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2],
            [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4],
        ]
        assert [[v.data for v in row] for row in E.rows] == printed


def test_criterion_6_extension_golden(z8):
    with criterion(6, "Hensel-lifted primitive modulus over Z8"):
        S = build_extension(z8, 3)
        assert [c.data for c in S.modulus_poly] == [7, 5, 6, 1]
        a = S.alpha
        assert S.pow(a, 7) == S.one
        for i in range(1, 7):
            assert S.pow(a, i) != S.one


def test_criterion_7_rank_decoding_goldens(decoding_instance, decoded_x, ext83):
    with criterion(7, "decoding recoveries, printed Hermite column and basis"):
        S = ext83
        rd = decoding_instance
        g = rd.generator[0]
        expected_c = tuple(S.mul(decoded_x, gi) for gi in g)

        # MinRank reduction
        inst = to_minrank(rd)
        xs = {
            minrank_x_to_codeword_x(rd, s)[0]
            for s in solve_minrank(inst, "ks")
            if rd.check(minrank_x_to_codeword_x(rd, s))
        }
        assert xs == {decoded_x}

        # linearization matches the printed Hermite column
        from chainring.rankdecode import linearization_matrix

        T = hermite_form(linearization_matrix(rd)).t
        last_col = [S.format_element(row[-1]) for row in T.rows]
        assert last_col == ["4 + 2*a^2", "4*a + 6*a^2", "3 + 6*a + 3*a^2"]
        assert solve_key_linearization(rd) == (decoded_x,)

        # Groebner expansion matches the printed basis
        model = key_equation_model(rd)
        G = buchberger(list(model.r_equations), model.r_ring)
        assert {str(p) for p in G.generators} == {
            "x0 + 7",
            "x1 + 5",
            "x2 + 2",
            "2*t0 + 2",
            "2*t1",
            "2*t2 + 2",
        }
        assert solve_key_groebner(rd) == [(decoded_x,)]
        assert rd.codeword((decoded_x,)) == expected_c

        # exactly eight monic degree-1 annihilators with the stated digits
        from chainring.oracles import brute_annihilators

        u = (S.element([2, 0, 6]), S.zero, S.element([4, 0, 4]))
        anns = brute_annihilators(S, u, 1)
        assert len(anns) == 8
        w0 = {S.coords(f.coeffs[0])[0].data for f in anns}
        w1 = {S.coords(f.coeffs[0])[1].data for f in anns}
        w2 = {S.coords(f.coeffs[0])[2].data for f in anns}
        assert (w0, w1, w2) == ({3, 7}, {0, 4}, {3, 7})


def test_criterion_8_property_suites(z4, z8, z9, ext42):
    with criterion(8, "oracle-equivalence property suites (exact)"):
        rng = random.Random(20240801)

        # >= 100 random systems against brute force
        total = 0
        lifting_checked = 0
        for ring in (z4, z8, z9):
            P = PolyRing(ring, ("x", "y"), "lex")
            elems = list(ring.elements())
            while total < 34 * ((z4, z8, z9).index(ring) + 1):
                system = [
                    P.poly(
                        {
                            (rng.randrange(4), rng.randrange(4 - 1)): rng.choice(elems)
                            for _ in range(3)
                        }
                    )
                    for _ in range(rng.randrange(1, 3))
                ]
                system = [p for p in system if not p.is_zero()]
                if not system:
                    continue
                if any(p.total_degree() > 3 for p in system):
                    continue
                total += 1
                reference = brute_solve(system).explicit()
                assert solve_system(system).explicit() == reference
                if total % 5 == 0:
                    assert solve_system_lifting(system).explicit() == reference
                    lifting_checked += 1
        assert total >= 100 and lifting_checked >= 20

        # rank metric axioms on 200 random triples over Z8
        for _ in range(200):
            A, B, C = (
                RingMatrix(
                    z8, [[rng.randrange(8) for _ in range(2)] for _ in range(2)]
                )
                for _ in range(3)
            )
            assert rank_distance(A, A) == 0
            if A != B:
                assert rank_distance(A, B) >= 1
            assert rank_distance(A, B) == rank_distance(B, A)
            assert rank_distance(A, C) <= rank_distance(A, B) + rank_distance(B, C)

        # 20 planted decoder instances: linearization and Groebner agree
        S = ext42
        base = S.base
        elems = list(S.elements())
        base_elems = list(base.elements())
        planted = 0
        while planted < 20:
            g = tuple(rng.choice(elems) for _ in range(5))
            if not any(v.is_unit() for v in g):
                continue
            x = rng.choice(elems)
            b = rng.choice(elems)
            a_row = [rng.choice(base_elems) for _ in range(5)]
            if not any(v.is_unit() for v in a_row):
                a_row[0] = base.one
            e = tuple(S.scalar_mul(av, b) for av in a_row)
            y = tuple(S.add(S.mul(x, gj), ej) for gj, ej in zip(g, e))
            rd = RankDecodingInstance(S, (g,), y, 1)
            planted += 1
            answers = {}
            try:
                answers["linearization"] = [solve_key_linearization(rd)]
            except Inconclusive:
                pass
            truth = brute_decode_set(rd)
            answers["groebner"] = solve_key_groebner(rd)
            assert (x,) in answers["groebner"]
            assert answers["groebner"] == truth
            for sols in answers.values():
                for sol in sols:
                    assert rd.check(sol)
            if "linearization" in answers and "groebner" in answers:
                assert answers["linearization"][0] in answers["groebner"]
            if len(truth) == 1 and answers:
                for sols in answers.values():
                    assert truth[0] in sols


def test_criterion_9_standard_form_counterexample():
    with criterion(9, "standard form fails over Z6 as required"):
        z6 = integer_ring(6)
        Z = RingMatrix(z6, [[z6.from_int(2)], [z6.from_int(3)]])
        with pytest.raises(NotChainRing):
            standard_form(Z)
