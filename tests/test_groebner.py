import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainring import groebner
from chainring.errors import EqualInputs, ResourceExceeded, WrongOrder, ZeroIdeal
from chainring.extension import build_extension
from chainring.groebner import (
    GroebnerBasis,
    a_polynomial,
    buchberger,
    elimination_subbasis,
    interreduce,
    ladder_properties_hold,
    minimal_univariate_basis,
    s_polynomial,
    verify_groebner,
)
from chainring.minrank import MinRankInstance, ks_model, ks_permutation_schedule, sm_model
from chainring.oracles import brute_ideal_slice
from chainring.polys import MonomialOrder, PolyRing, strong_reduce
from chainring.rankdecode import RankDecodingInstance, key_equation_model, to_minrank
from chainring.rings import Zpk, galois_ring
from chainring.solve import ring_vanishing_polynomial


@pytest.fixture
def pxy(z8):
    return PolyRing(z8, ("x", "y"), "lex")


@pytest.fixture
def worked_pair(pxy):
    return pxy.parse("4*x^2*y + y^3 + 2*y + 4"), pxy.parse("4*x*y^2")


def test_s_polynomial_examples(pxy, worked_pair):
    g1, g2 = worked_pair
    assert str(s_polynomial(g1, g2)) == "y^4 + 2*y^2 + 4*y"
    g3 = pxy.parse("y^4 + 2*y^2 + 4*y")
    assert str(s_polynomial(g1, g3)) == "y^6 + 2*y^4 + 4*y^3"
    # coprime monic heads cancel outright
    x, y = pxy.gens()
    assert s_polynomial(x, y).is_zero()


def test_s_polynomial_equal_inputs(pxy, worked_pair):
    g1, _ = worked_pair
    with pytest.raises(EqualInputs):
        s_polynomial(g1, g1)


def test_a_polynomial_examples(pxy, worked_pair, z8):
    g1, _ = worked_pair
    assert str(a_polynomial(g1)) == "2*y^3 + 4*y"
    monic = pxy.parse("x^2 + y")
    assert a_polynomial(monic).is_zero()
    f = pxy.poly({(1, 2): z8.element(4)})
    assert a_polynomial(f).is_zero()  # 2 * 4xy^2 = 0


def test_worked_groebner_basis(pxy, worked_pair):
    g1, g2 = worked_pair
    G = buchberger([g1, g2])
    texts = [str(g) for g in G]
    assert texts == [
        "4*x^2*y + y^3 + 2*y + 4",
        "4*x*y^2",
        "y^4 + 2*y^2 + 4*y",
        "2*y^3 + 4*y",
    ]
    assert verify_groebner(G)
    assert G.minimal


def test_field_equation_basis(z8):
    order = MonomialOrder("lex", (1, 0))  # y > x
    pyx = PolyRing(z8, ("x", "y"), order)
    g1 = pyx.parse("4*x^2*y + y^3 + 2*y + 4")
    g2 = pyx.parse("4*x*y^2")
    fmx = ring_vanishing_polynomial(z8, pyx, 0)
    fmy = ring_vanishing_polynomial(z8, pyx, 1)
    G = buchberger([g1, g2, fmx, fmy])
    assert {str(g) for g in G} == {"y^2 + 4", "2*y + 4", "x^4 + 6*x^3 + 7*x^2 + 2*x"}
    # without the field equations the ideal has no x-only member
    G2 = buchberger([g1, g2], pyx)
    assert {str(g) for g in G2} == {str(g1), str(g2)}
    assert not elimination_subbasis(G2, 1).generators


def test_unit_ideal(pxy):
    G = buchberger([pxy.one])
    assert [str(g) for g in G] == ["1"]


def _spy_on_reductions(monkeypatch):
    """Every remainder buchberger's strong reductions return, in order."""
    seen = []
    original = groebner.strong_reduce

    def spy(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(groebner, "strong_reduce", spy)
    return seen


def test_a_unit_remainder_ends_the_run(monkeypatch, z4):
    P = PolyRing(z4, ("x", "y"), "lex")
    # the pair loop reaches the unit 3 after the non-unit constant 2
    F = [P.parse("x*y + 3"), P.parse("x^2"), P.parse("y^3 + 2*y")]
    assert [g._terms for g in buchberger(F, P, keep_from=1)] == [P.one._terms]
    seen = _spy_on_reductions(monkeypatch)
    G = buchberger(F, P)
    assert [g._terms for g in G] == [P.one._terms] and G.minimal
    # the unit is the last remainder of the pair loop: no pair, no
    # A-polynomial and no interreduction is reduced after it
    assert len(seen) > len(F)
    units = [i for i, h in enumerate(seen) if h.is_constant() and h and h.leading_coefficient().is_unit()]
    assert units == [len(seen) - 1]
    assert "2" in [str(h) for h in seen]


def test_a_unit_input_skips_the_later_inputs(monkeypatch, z4):
    P = PolyRing(z4, ("x", "y"), "lex")
    seen = _spy_on_reductions(monkeypatch)
    G = buchberger([P.parse("x + 1"), P.parse("x + 2"), P.parse("y^2 + x")], P)
    assert [g._terms for g in G] == [P.one._terms]
    assert [str(h) for h in seen] == ["x + 1", "1"]


def test_the_pair_cap_reports_its_diagnostics(monkeypatch, worked_pair):
    monkeypatch.setattr(groebner, "_MAX_PAIRS", 2)
    with pytest.raises(ResourceExceeded) as info:
        buchberger(list(worked_pair))
    assert str(info.value) == (
        "buchberger: more pairs than the cap of 2 "
        "(2 pairs processed, basis of 3, longest member 4 terms)"
    )


def test_zero_input_empty_basis(pxy):
    G = buchberger([pxy.zero], pxy)
    assert len(G) == 0


def test_elimination_subbasis(pxy, worked_pair):
    G = buchberger(list(worked_pair))
    G1 = elimination_subbasis(G, 1)
    assert {str(g) for g in G1} == {"y^4 + 2*y^2 + 4*y", "2*y^3 + 4*y"}
    assert [str(g) for g in elimination_subbasis(G, 0)] == [str(g) for g in G]


def test_elimination_needs_lex(z8, worked_pair):
    pgrev = PolyRing(z8, ("x", "y"), MonomialOrder("degrevlex", (0, 1)))
    f = pgrev.parse("x*y + 1")
    G = buchberger([f])
    with pytest.raises(WrongOrder):
        elimination_subbasis(G, 1)
    with pytest.raises(WrongOrder):
        buchberger([f], keep_from=1)


def _kept_bases_agree(F, P, keep_froms):
    """buchberger(F, P, keep_from=k) against elimination_subbasis of the
    full basis, byte for byte, for each k."""
    G = buchberger(F, P)
    for k in keep_froms:
        kept = [g._terms for g in buchberger(F, P, keep_from=k).generators]
        assert kept == [g._terms for g in elimination_subbasis(G, k).generators], (F, k)


def test_keep_from_matches_the_elimination_subbasis_on_seeded_systems():
    # lex systems of 2-3 generators of degree <= 2 in 3 or 4 variables,
    # under a random variable priority, for every keep_from
    rng = random.Random(23)
    for name in ("z4", "z8", "z9", "z25", "gr42"):
        R = RINGS[name]
        elems = sorted(R.elements(), key=R.sort_key)[1:]
        for nvars in (3, 4):
            for _ in range(12):
                priority = list(range(nvars))
                rng.shuffle(priority)
                P = PolyRing(R, ("w", "x", "y", "z")[:nvars], MonomialOrder("lex", tuple(priority)))
                monomials = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) <= 2]
                F = [
                    P.poly({rng.choice(monomials): rng.choice(elems) for _ in range(rng.randrange(2, 5))})
                    for _ in range(rng.randrange(2, 4))
                ]
                _kept_bases_agree(F, P, range(nvars + 1))


GOLDEN_MINRANK_MODELS = Path(__file__).resolve().parent / "goldens" / "minrank_models.json"


def _golden_minrank_instances():
    cases = json.loads(GOLDEN_MINRANK_MODELS.read_text())["instances"]
    return {c["name"]: MinRankInstance.from_json(c["instance"]) for c in cases}


def test_keep_from_matches_the_elimination_subbasis_on_minrank_models():
    # the x block of ks_model in every placement and of sm_model for every
    # unit subset, on the instances of minrank_models.json
    for inst in _golden_minrank_instances().values():
        n = inst.shape[1]
        r = min(inst.r, n)
        models = [ks_model(inst, list(sub)) for sub in ks_permutation_schedule(n, r)]
        models += [sm_model(inst, list(sub)) for sub in itertools.combinations(range(n), r)]
        for model in models:
            if model.equations:
                P = model.poly_ring
                _kept_bases_agree(list(model.equations), P, [P.nvars - len(model.x_vars)])


def test_keep_from_matches_the_elimination_subbasis_on_key_equation_models():
    # the decode words behind the decode-seed* instances of
    # minrank_models.json: GR(4,2) codes with g = (1, a, 1 + 2a), n = 3,
    # radius 1, each rebuilt from its MinRank reduction (M0 = rep(-y))
    S = build_extension(Zpk(2, 2), 2)
    a = S.alpha
    g = (S.one, a, S.add(S.one, S.add(a, a)))
    words = 0
    for name, inst in _golden_minrank_instances().items():
        if not name.startswith("decode-"):
            continue
        y = tuple(S.neg(S.element([row[j] for row in inst.m0.rows])) for j in range(len(g)))
        rd = RankDecodingInstance(S, (g,), y, inst.r)
        assert to_minrank(rd) == inst
        model = key_equation_model(rd)
        P = model.r_ring
        _kept_bases_agree(list(model.r_equations), P, [P.nvars - len(model.x_vars)])
        words += 1
    assert words == 22


def test_ideal_membership_against_bounded_combinations(z4):
    random.seed(23)
    P = PolyRing(z4, ("x", "y"), "lex")
    elems = list(z4.elements())

    def rand_poly(deg=2, terms=3):
        return P.poly(
            {
                (random.randrange(deg + 1), random.randrange(deg)): random.choice(elems)
                for _ in range(terms)
            }
        )

    probes = 0
    while probes < 50:
        F = [rand_poly() for _ in range(2)]
        F = [f for f in F if not f.is_zero()]
        if not F:
            continue
        G = buchberger(F, P)
        closure, monos, poly_key = brute_ideal_slice(F, 3)
        # members produced by the oracle reduce to zero
        ordered = sorted(closure, key=lambda v: tuple(z4.sort_key(x) for x in v))
        for vec in random.sample(ordered, min(5, len(ordered))):
            poly = P.poly(list(zip(monos, vec)))
            assert strong_reduce(poly, list(G), full=True).is_zero()
            probes += 1
        # random probes: a zero normal form carries an exact witness; a
        # nonzero one implies the probe lies outside the bounded slice
        for _ in range(5):
            probe = rand_poly()
            reduced = strong_reduce(probe, list(G), full=True)
            key = poly_key(probe)
            if reduced.is_zero():
                from chainring.polys import strong_reduce_with_witness

                rem, quotients = strong_reduce_with_witness(probe, list(G), full=True)
                recombined = rem
                for q, g in zip(quotients, list(G)):
                    recombined = recombined + q * g
                assert recombined == probe
            elif key is not None:
                assert key not in closure
            probes += 1


def test_elimination_soundness_on_solutions(z8):
    """Every elimination member vanishes on the restriction of every
    brute-force solution to the kept variables."""
    from chainring.oracles import brute_solve

    random.seed(19)
    P = PolyRing(z8, ("x", "y"), "lex")
    elems = list(z8.elements())
    done = 0
    while done < 6:
        F = [
            P.poly(
                {
                    (random.randrange(3), random.randrange(3)): random.choice(elems)
                    for _ in range(3)
                }
            )
            for _ in range(2)
        ]
        F = [f for f in F if not f.is_zero()]
        if not F:
            continue
        done += 1
        G = buchberger(F, P)
        G1 = elimination_subbasis(G, 1)
        for point in brute_solve(F).explicit():
            for g in G1.generators:
                assert g.evaluate(list(point)).is_zero()


def test_minimal_univariate_ladder(z8):
    P = PolyRing(z8, ("y",), "lex")
    g11 = P.parse("y^4 + 2*y^2 + 4*y")
    g12 = P.parse("2*y^3 + 4*y")
    ladder = minimal_univariate_basis([g11, g12])
    assert [(a, str(g)) for a, g in ladder.levels] == [
        (0, "y^4 + 2*y^2 + 4*y"),
        (1, "y^3 + 2*y"),
    ]
    assert [str(h) for h in ladder.h] == [
        "y^4 + 2*y^2 + 4*y",
        "y^3 + 2*y",
        "y^3 + 2*y",
    ]
    assert ladder_properties_hold(ladder)


def test_minimal_univariate_single_monic(z8):
    P = PolyRing(z8, ("x",), "lex")
    ladder = minimal_univariate_basis([P.parse("x")])
    assert len(ladder.levels) == 1
    assert all(str(h) == "x" for h in ladder.h)


def test_minimal_univariate_zero_ideal(z8):
    P = PolyRing(z8, ("x",), "lex")
    with pytest.raises(ZeroIdeal):
        minimal_univariate_basis([P.zero])


def test_minimal_univariate_adjoins_the_vanishing_polynomial(z4):
    # (2x) has no member of unit valuation, so F_m is adjoined to reach a_0 = 0
    P = PolyRing(z4, ("x",), "lex")
    ladder = minimal_univariate_basis([P.parse("2*x")])
    assert ladder.levels[0][0] == 0
    assert [a for a, _ in ladder.levels] == sorted({a for a, _ in ladder.levels})
    assert ladder_properties_hold(ladder)


def test_interreduce_resorts_after_a_head_changes(z4):
    # x*y + y reduces by x to y, a new head, so the pass re-sorts and restarts
    P = PolyRing(z4, ("x", "y"), "lex")
    F = [P.parse("x*y + y"), P.parse("x")]
    basis = interreduce(F, P)
    assert [str(g) for g in basis] == ["x", "y"]
    assert verify_groebner(GroebnerBasis(basis, P))
    assert basis == buchberger(F, P).generators


def test_minimal_univariate_random_conditions(z9):
    random.seed(17)
    P = PolyRing(z9, ("x",), "lex")
    elems = list(z9.elements())
    for _ in range(10):
        F = [
            P.poly({(random.randrange(4),): random.choice(elems) for _ in range(3)})
            for _ in range(2)
        ]
        F = [f for f in F if not f.is_zero()]
        if not F:
            continue
        try:
            ladder = minimal_univariate_basis(F)
        except ZeroIdeal:
            continue
        assert ladder_properties_hold(ladder)


def test_every_buchberger_output_verifies(z4, z8, z9):
    random.seed(31)
    for ring in (z4, z8, z9):
        P = PolyRing(ring, ("x", "y"), "lex")
        elems = list(ring.elements())
        for _ in range(8):
            F = [
                P.poly(
                    {
                        (random.randrange(3), random.randrange(3)): random.choice(elems)
                        for _ in range(3)
                    }
                )
                for _ in range(2)
            ]
            G = buchberger(F, P)
            assert verify_groebner(G)


GOLDEN_BASES = Path(__file__).resolve().parent / "goldens" / "buchberger_bases.json"
RINGS = {"z4": Zpk(2, 2), "z8": Zpk(2, 3), "z9": Zpk(3, 2), "z25": Zpk(5, 2), "gr42": galois_ring(2, 2, 2)}


def test_buchberger_matches_golden_bases():
    # seeded systems over each ring, in lex and degrevlex, with 2 and 3
    # variables; the bases were computed without the coprime criterion
    cases = json.loads(GOLDEN_BASES.read_text())
    assert len(cases) == 80
    for case in cases:
        P = PolyRing(RINGS[case["ring"]], tuple(case["vars"]), case["order"])
        F = [P.poly_from_json(f) for f in case["input"]]
        G = buchberger(F, P)
        assert [P.poly_to_json(g) for g in G.generators] == case["basis"], case


KS_GOLDEN_BASES = Path(__file__).resolve().parent / "goldens" / "ks_model_bases.json"


def test_buchberger_matches_ks_model_golden_bases():
    # lex bases of ks_model(inst, placement) plus F_m in every variable, for
    # planted rank-1 3x3, K = 2 MinRank instances over Z4, Z8, Z9 and Z25
    # (seed 2024), in every Z' placement; six variables each, so tails are
    # reduced by several divisors and depend on which one comes first
    cases = json.loads(KS_GOLDEN_BASES.read_text())
    assert len(cases) == 114
    assert {case["ring"] for case in cases} == {"z4", "z8", "z9", "z25"}
    for case in cases:
        P = PolyRing(RINGS[case["ring"]], tuple(case["vars"]), case["order"])
        F = [P.poly_from_json(f) for f in case["input"]]
        G = buchberger(F, P)
        assert [P.poly_to_json(g) for g in G.generators] == case["basis"], case


@st.composite
def random_systems(draw):
    R = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    nvars = draw(st.sampled_from((2, 3)))
    P = PolyRing(R, ("x", "y", "z")[:nvars], draw(st.sampled_from(("lex", "degrevlex"))))
    max_degree = 4 if nvars == 2 else 2
    monomials = [e for e in itertools.product(range(3), repeat=nvars) if sum(e) <= max_degree]
    elems = list(R.elements())
    term = st.tuples(st.sampled_from(monomials), st.sampled_from(elems))
    polys = draw(
        st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=3)
    )
    return P, [P.poly(dict(terms)) for terms in polys]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(random_systems())
def test_buchberger_property(system):
    P, F = system
    G = buchberger(F, P)
    assert verify_groebner(G)
    assert all(G.contains(f) for f in F)
    # interreduced: no term of a generator is term-divisible by another
    # generator's head (so heads are pairwise not term-divisible either),
    # and every head coefficient is pi^val
    R = P.ring
    heads = [(g.leading_term()[0], R.valuation(g.leading_coefficient())) for g in G]

    def term_divides(head, exps, coeff):
        e, v = head
        return v <= R.valuation(coeff) and all(a <= b for a, b in zip(e, exps))

    for i, g in enumerate(G):
        others = heads[:i] + heads[i + 1 :]
        assert not any(term_divides(h, *g.leading_term()) for h in others)
        assert not any(term_divides(h, e, c) for e, c in g.terms for h in others)
        assert g.leading_coefficient() == R.pow(R.pi_element, heads[i][1])
