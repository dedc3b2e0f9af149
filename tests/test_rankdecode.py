import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from chainring.errors import DomainError, Inconclusive, NoSolution
from chainring.extension import ProductExtension, build_extension, matrix_representation, vector_rank
from chainring.groebner import buchberger
from chainring.linalg import RingMatrix, hermite_form, rank
from chainring.minrank import sm_model, solve_minrank
from chainring.oracles import brute_decode_set, brute_vector_rank
from chainring.rankdecode import (
    _AUTO_ORDER,
    ROUTES,
    RankDecodingInstance,
    decode,
    key_equation_model,
    linearization_matrix,
    minrank_x_to_codeword_x,
    solve_key_groebner,
    solve_key_linearization,
    solve_sm_rd,
    to_minrank,
)
from chainring.rings import Zpk, integer_ring
from chainring.skew import annihilator


def canonical(p):
    """Scale so the leading coefficient becomes pi^val (unit removed)."""
    R = p.ring.ring
    if p.is_zero():
        return p
    return p.scale(R.invert(R.unit_part(p.leading_coefficient())))


def test_to_minrank_reproduces_the_affine_instance(decoding_instance, affine_minrank_z8):
    inst = to_minrank(decoding_instance)
    assert inst.m0 == affine_minrank_z8.m0
    assert inst.matrices == affine_minrank_z8.matrices
    assert inst.r == 1


def test_minrank_route_recovers_x(decoding_instance, decoded_x):
    inst = to_minrank(decoding_instance)
    sols = solve_minrank(inst, "ks")
    xs = {minrank_x_to_codeword_x(decoding_instance, s)[0] for s in sols}
    assert decoded_x in xs
    assert all(decoding_instance.check((x,)) for x in xs)


def test_minrank_reduction_bijection(ext42):
    """The decodable x over S correspond exactly to the reduced instance's
    solutions, by full enumeration on a tiny extension."""
    from chainring.oracles import brute_minrank

    S = ext42
    rng = random.Random(44)
    elems = list(S.elements())
    g = (S.one, rng.choice(elems), rng.choice(elems))
    y = tuple(rng.choice(elems) for _ in range(3))
    rd = RankDecodingInstance(S, (g,), y, 1)
    inst = to_minrank(rd)
    via_minrank = {
        minrank_x_to_codeword_x(rd, flat) for flat in brute_minrank(inst)
    }
    assert via_minrank == set(brute_decode_set(rd))


def test_zero_error_roundtrip(ext83):
    S = ext83
    g = (S.one, S.element([2, 1, 2]), S.element([0, 3, 1]))
    x = S.element([5, 1, 3])
    y = tuple(S.mul(x, gi) for gi in g)
    rd0 = RankDecodingInstance(S, (g,), y, 0)
    got = solve_key_linearization(rd0)
    assert got == (x,)
    res = decode(rd0)
    assert res.unique and res.e == (S.zero, S.zero, S.zero)


def test_linearization_matrix_layout(decoding_instance, ext83):
    S = ext83
    A = linearization_matrix(decoding_instance)
    assert (A.m, A.n) == (3, 4)
    y, g = decoding_instance.received, decoding_instance.generator[0]
    for j in range(3):
        assert A.rows[j][0] == S.neg(y[j])
        assert A.rows[j][1] == g[j]
        assert A.rows[j][2] == S.frobenius(g[j])
        assert A.rows[j][3] == S.neg(S.frobenius(y[j]))


CONVERSION_RINGS = {
    "GR(4,2)": (2, 2, 2),
    "GR(4,3)": (2, 2, 3),  # tabled, with two powers of sigma besides 1
    "GR(8,3)": (2, 3, 3),  # 512 elements: no operation tables
    "GR(9,2)": (3, 2, 2),
}


def defined_frobenius(S, v, l):
    """sigma^l(v) by its definition: alpha goes to alpha^(q^l), the base
    coordinates stay."""
    q = S.base.q
    return S.sum(S.scalar_mul(c, S.pow(S.alpha, i * q**l)) for i, c in enumerate(S.coords(v)))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("name", sorted(CONVERSION_RINGS))
def test_payload_conversions_match_their_boxed_definitions(name, k):
    # to_minrank, minrank_x_to_codeword_x and linearization_matrix compute
    # on payloads; each equals its definition in boxed element arithmetic
    p, e, m = CONVERSION_RINGS[name]
    base = Zpk(p, e)
    S = build_extension(base, m)
    assert (S.size > 256) == (name == "GR(8,3)")
    rng = random.Random(f"{name}/{k}")

    def el():
        return S.element([rng.randrange(base.size) for _ in range(m)])

    for radius in (1, 2):
        n = 4
        gen = tuple(tuple(el() for _ in range(n)) for _ in range(k))
        rd = RankDecodingInstance(S, gen, tuple(el() for _ in range(n)), radius)
        inst = to_minrank(rd)
        mats = tuple(
            matrix_representation(S, [S.mul(S.pow(S.alpha, u), g) for g in row]) for row in gen for u in range(m)
        )
        assert inst.matrices == mats
        assert inst.m0 == matrix_representation(S, [S.neg(v) for v in rd.received])
        assert (inst.ring, inst.r) == (base, radius)
        for _ in range(5):
            flat = tuple(base.element(rng.randrange(base.size)) for _ in range(k * m))
            want = tuple(
                S.sum(S.scalar_mul(c, S.pow(S.alpha, u)) for u, c in enumerate(flat[i * m : (i + 1) * m]))
                for i in range(k)
            )
            assert minrank_x_to_codeword_x(rd, flat) == want
        cols = [[S.neg(S.frobenius(v, l)) for v in rd.received] for l in range(radius)]
        cols += [[S.frobenius(v, l) for v in row] for l in range(radius + 1) for row in gen]
        cols.append([S.neg(S.frobenius(v, radius)) for v in rd.received])
        assert linearization_matrix(rd) == RingMatrix(S, [[col[j] for col in cols] for j in range(n)])
        for v in rd.received + gen[0]:
            for l in range(-1, radius + 1):
                assert S.frobenius(v, l) == defined_frobenius(S, v, l % m)


def test_linearization_hermite_golden(decoding_instance, ext83):
    S = ext83
    T = hermite_form(linearization_matrix(decoding_instance)).t
    fmt = [[S.format_element(v) for v in row] for row in T.rows]
    assert fmt == [
        ["1", "a + a^2", "0", "4 + 2*a^2"],
        ["0", "2", "0", "4*a + 6*a^2"],
        ["0", "0", "1", "3 + 6*a + 3*a^2"],
    ]
    x = solve_key_linearization(decoding_instance)
    assert x == (ext83.element([1, 3, 6]),)


def test_key_equation_s_form_r1(decoding_instance, ext83):
    """For r = 1 the j-th relation is z0*(xg_j - y_j) + sigma(xg_j - y_j)."""
    S = ext83
    model = key_equation_model(decoding_instance)
    rng = random.Random(12)
    elems = list(S.elements())
    g, y = decoding_instance.generator[0], decoding_instance.received
    for _ in range(10):
        x = rng.choice(elems)
        z0 = rng.choice(elems)
        point = list(S.coords(z0)) + list(S.coords(x))
        for j, eq in enumerate(model.s_equations):
            w = S.sub(S.mul(x, g[j]), y[j])
            expected = S.add(S.mul(z0, w), S.frobenius(w))
            got = eq.evaluate([S.scalar_mul(c, S.one) for c in point])
            assert got == expected


PRINTED_EXPANSION = [
    "x0*t0+x2*t1+x1*t2+2*x2*t2+x0+2*x2+5*t0+4*t1+5*t2+5",
    "x1*t0+x0*t1+3*x2*t1+3*x1*t2-x2*t2-x2+5*t0+t1+3*t2+4",
    "x2*t0+x1*t1+2*x2*t1+x0*t2+2*x1*t2-x2*t2+x1-x2+4*t0+5*t1+3*t2+1",
    "2*x0*t0+2*x1*t0+5*x2*t0+2*x0*t1+5*x1*t1+2*x2*t1+5*x0*t2+2*x1*t2+5*x2*t2+6*x0+4*x1+x2+2*t0+3*t1-t2",
    "x0*t0+x2*t0+x1*t1+3*x2*t1+x0*t2+3*x1*t2+x2*t2+6*x0+3*x1+6*x2+t0+3*t1+5",
    "2*x0*t0+5*x1*t0+2*x2*t0+5*x0*t1+2*x1*t1+5*x2*t1+2*x0*t2+5*x1*t2+5*x2*t2-x0+3*x1-x2+3*t0-t1+t2+6",
    "x1*t0+5*x2*t0+x0*t1+5*x1*t1+5*x2*t1+5*x0*t2+5*x1*t2+2*x2*t2+2*x0+3*x1-x2+3*t0+6*t1+7",
    "3*x0*t0+3*x1*t0+3*x0*t1+4*x2*t1+4*x1*t2+3*x2*t2-x0+3*x1+3*x2+4*t0+5*t1+6*t2+2",
    "x0*t0+5*x1*t0+5*x2*t0+5*x0*t1+5*x1*t1+2*x2*t1+5*x0*t2+2*x1*t2+2*x0+6*x1+3*x2+6*t0+5*t2+6",
]


def test_key_equation_expansion_matches_printed_system(decoding_instance):
    model = key_equation_model(decoding_instance)
    assert model.r_ring.variables == ("t0", "t1", "t2", "x0", "x1", "x2")
    printed = {canonical(model.r_ring.parse(text)) for text in PRINTED_EXPANSION}
    mine = {canonical(eq) for eq in model.r_equations}
    assert mine == printed


def test_key_equation_groebner_golden(decoding_instance, decoded_x):
    model = key_equation_model(decoding_instance)
    G = buchberger(list(model.r_equations), model.r_ring)
    assert {str(g) for g in G} == {
        "2*t0 + 2",
        "2*t1",
        "2*t2 + 2",
        "x0 + 7",
        "x1 + 5",
        "x2 + 2",
    }
    assert solve_key_groebner(decoding_instance) == [(decoded_x,)]


PRINTED_SM_SYSTEM = [
    "-z2*x1+3*z2+2*x1+2*x2+5*x3+2",
    "-z2*x2+3*z2+x1+x3+1",
    "-z2*x3+4*z2+2*x1+5*x2+2*x3+3",
    "-z3*x1+3*z3+x2+5*x3+3",
    "-z3*x2+3*z3+3*x1+3*x2+4",
    "-z3*x3+4*z3+x1+5*x2+5*x3+6",
    "z2*x2+5*z2*x3+3*z2+6*z3*x1+6*z3*x2+3*z3*x3+6*z3",
    "3*z2*x1+3*z2*x2+4*z2-z3*x1-z3*x3-z3",
    "z2*x1+5*z2*x2+5*z2*x3+6*z2+6*z3*x1+3*z3*x2+6*z3*x3+5*z3",
]


def test_sm_model_of_the_reduction_matches_printed_system(decoding_instance):
    model = sm_model(to_minrank(decoding_instance), (0,))
    assert len(model.equations) == 9
    assert model.poly_ring.variables == ("z1", "z2", "z3", "x1", "x2", "x3")
    printed = {canonical(model.poly_ring.parse(t)) for t in PRINTED_SM_SYSTEM}
    mine = {canonical(eq) for eq in model.equations}
    assert mine == printed


def test_sm_rd_empty_for_radius_n(ext83):
    S = ext83
    g = (S.one, S.alpha)
    y = (S.zero, S.one)
    rd = RankDecodingInstance(S, (g,), y, 2)
    assert sm_model(to_minrank(rd), (0, 1)).equations == ()


def test_sm_rd_lists_every_x_at_radius_n_and_above(ext83):
    # no equation leaves the x block unconstrained: every x of S is within
    # the radius, and sm enumerates them, as groebner does; auto settles the
    # word there
    S = ext83
    g = (S.one, S.alpha)
    y = (S.zero, S.one)
    for radius in (2, 3):
        rd = RankDecodingInstance(S, (g,), y, radius)
        truth = brute_decode_set(rd)
        assert len(truth) == S.size
        got = decode(rd, "sm")
        assert [x for x, _, _ in got.solutions] == truth
        assert solve_sm_rd(rd) == truth == solve_key_groebner(rd)
        assert decode(rd).strategy_used == "sm"


def test_sm_rd_solver(decoding_instance, decoded_x):
    xs = solve_sm_rd(decoding_instance)
    assert xs == [(decoded_x,)]


def _rank_one_word(rng, S, g):
    """y = x*g + s*b with x in S, s in S nonzero and b in R^n, e != 0, so
    the planted error has rank weight 1."""
    R = S.base
    elems = sorted(S.elements(), key=S.sort_key)
    while True:
        x, s = rng.choice(elems), rng.choice(elems[1:])
        e = tuple(S.scalar_mul(R.element(rng.randrange(R.modulus)), s) for _ in g)
        if any(not v.is_zero() for v in e):
            break
    y = tuple(S.add(S.mul(x, gj), ej) for gj, ej in zip(g, e))
    return RankDecodingInstance(S, (g,), y, 1)


@pytest.mark.parametrize("p, k, draws", [(2, 2, 40), (2, 3, 20), (3, 2, 15)])
def test_sm_route_matches_brute_on_ambiguous_words(p, k, draws):
    """Over GR(p^k, 2) with g = (1, a, 1 + 2a), n = 3 and radius 1, the sm
    route lists exactly brute_decode_set on every ambiguous word, and the
    auto chain settles each of those words there, not in a later strategy."""
    S = build_extension(Zpk(p, k), 2)
    a = S.alpha
    g = (S.one, a, S.add(S.one, S.add(a, a)))
    rng = random.Random(0)
    ambiguous = 0
    for _ in range(draws):
        rd = _rank_one_word(rng, S, g)
        truth = brute_decode_set(rd)
        if len(truth) < 2:
            continue
        ambiguous += 1
        assert solve_sm_rd(rd) == truth
        assert decode(rd).strategy_used == "sm"
    assert ambiguous >= 4


@pytest.mark.parametrize("p, k", [(2, 2), (2, 3), (3, 2)])
def test_groebner_route_matches_brute(p, k):
    """Over GR(p^k, 2) with g = (1, a, 1 + 2a), n = 3 and radius 1, the
    groebner route lists exactly brute_decode_set on every seeded word,
    ambiguous or not: the route is complete as well as sound."""
    S = build_extension(Zpk(p, k), 2)
    a = S.alpha
    g = (S.one, a, S.add(S.one, S.add(a, a)))
    rng = random.Random(1)
    ambiguous = 0
    for _ in range(20):
        rd = _rank_one_word(rng, S, g)
        truth = brute_decode_set(rd)
        ambiguous += len(truth) > 1
        assert solve_key_groebner(rd) == truth
    assert ambiguous >= 4


def test_groebner_route_matches_brute_for_two_unknowns(ext42):
    """k = 2, n = 4, radius 1 over GR(4,2): the groebner route lists exactly
    brute_decode_set on ten planted rank-one errors."""
    S = ext42
    R = S.base
    a = S.alpha
    G = ((S.one, S.zero, a, S.one), (S.zero, S.one, S.one, a))
    elems = sorted(S.elements(), key=S.sort_key)
    rng = random.Random(3)
    for _ in range(10):
        x = (rng.choice(elems), rng.choice(elems))
        s = rng.choice(elems[1:])
        e = tuple(S.scalar_mul(R.element(rng.randrange(4)), s) for _ in range(4))
        y = tuple(
            S.add(S.add(S.mul(x[0], G[0][j]), S.mul(x[1], G[1][j])), e[j]) for j in range(4)
        )
        rd = RankDecodingInstance(S, G, y, 1)
        truth = brute_decode_set(rd)
        assert x in truth
        assert solve_key_groebner(rd) == truth


def test_decode_every_strategy(decoding_instance, ext83, decoded_x):
    S = ext83
    g = decoding_instance.generator[0]
    expected_c = tuple(S.mul(decoded_x, gi) for gi in g)
    for strategy in ("linearization", "groebner", "sm", "minrank-ks", "auto"):
        res = decode(decoding_instance, strategy)
        assert res.unique
        assert res.x == (decoded_x,)
        assert res.c == expected_c
        assert vector_rank(S, res.e) <= 1


def test_decode_rejects_an_unknown_strategy(decoding_instance):
    with pytest.raises(DomainError, match="unknown strategy 'nope'"):
        decode(decoding_instance, "nope")


def test_auto_order_names_only_routes():
    assert set(_AUTO_ORDER) <= set(ROUTES)


def test_all_inconclusive_names_every_strategy(decoding_instance, monkeypatch):
    import chainring.rankdecode as rankdecode

    def give_up(name):
        def route(rd):
            raise Inconclusive(f"{name} gave up")

        return route

    monkeypatch.setattr(rankdecode, "ROUTES", {s: give_up(s) for s in ROUTES})
    with pytest.raises(Inconclusive) as info:
        decode(decoding_instance)
    assert str(info.value) == "all strategies inconclusive: " + "; ".join(
        f"{s}: {s} gave up" for s in _AUTO_ORDER
    )


def test_decode_output_always_verifies(decoding_instance, ext83):
    res = decode(decoding_instance)
    for x, c, e in res.solutions:
        assert decoding_instance.codeword(x) == c
        assert tuple(ext83.sub(a, b) for a, b in zip(decoding_instance.received, c)) == e
        assert vector_rank(ext83, e) <= decoding_instance.radius


def test_key_equation_both_directions(ext42):
    """x extends to a key-equation solution iff the error is within radius."""
    S = ext42
    base = S.base
    rng = random.Random(5)
    g = (S.one, S.alpha, S.element([3, 1]))
    y = (S.element([2, 1]), S.element([0, 3]), S.element([1, 1]))
    rd = RankDecodingInstance(S, (g,), y, 1)
    model = key_equation_model(rd)
    base_elems = list(base.elements())
    decodable = set()
    for x_coords in itertools.product(base_elems, repeat=2):
        solvable = False
        for z_coords in itertools.product(base_elems, repeat=2):
            point = list(z_coords) + list(x_coords)
            if all(eq.evaluate(point).is_zero() for eq in model.r_equations):
                solvable = True
                break
        x = S.element(list(x_coords))
        within = vector_rank(S, rd.error_of((x,))) <= 1
        assert solvable == within
        if within:
            decodable.add((x,))
    assert decodable == set(brute_decode_set(rd))


def test_planted_instances(ext42):
    """Planted rank-1 errors: linearization and Gröbner agree; whenever the
    instance determines x uniquely the plant is recovered exactly."""
    S = ext42
    base = S.base
    rng = random.Random(2024)
    elems = [e for e in S.elements()]
    base_elems = list(base.elements())
    n, recovered = 5, 0
    trials = 0
    for _ in range(20):
        g = tuple(rng.choice(elems) for _ in range(n))
        if not any(v.is_unit() for v in g):
            continue
        x = rng.choice(elems)
        b = rng.choice(elems)
        a_row = [rng.choice(base_elems) for _ in range(n)]
        if not any(v.is_unit() for v in a_row):
            a_row[0] = base.one
        e = tuple(S.scalar_mul(av, b) for av in a_row)
        y = tuple(S.add(S.mul(x, gj), ej) for gj, ej in zip(g, e))
        rd = RankDecodingInstance(S, (g,), y, 1)
        trials += 1
        assert vector_rank(S, e) <= 1
        answers = {}
        try:
            answers["linearization"] = [solve_key_linearization(rd)]
        except Inconclusive:
            pass
        # the Gröbner route is complete: it lists every x within the radius,
        # the planted one among them
        truth = brute_decode_set(rd)
        answers["groebner"] = solve_key_groebner(rd)
        assert (x,) in answers["groebner"]
        assert answers["groebner"] == truth
        # every answer decodes within the radius
        for sols in answers.values():
            for sol in sols:
                assert rd.check(sol)
        if len(truth) == 1:
            for sols in answers.values():
                assert truth[0] in sols
            if answers:
                recovered += 1
        # agreement: the Gröbner route returns the complete verified set, so
        # the linearization answer must be in it
        if "linearization" in answers and "groebner" in answers:
            assert answers["linearization"][0] in answers["groebner"]
    assert trials >= 15
    assert recovered >= trials // 2


def test_decode_product_extension():
    z6 = integer_ring(6)
    comps = [build_extension(c, 2) for c in z6.components]
    pe = ProductExtension(comps)
    S = pe
    rng = random.Random(9)
    elems = list(S.elements())
    g = (S.one, rng.choice(elems), rng.choice(elems))
    x = rng.choice(elems)
    y = tuple(S.mul(x, gi) for gi in g)  # zero error
    rd = RankDecodingInstance(pe, (g,), y, 0)
    res = decode(rd)
    assert any(sol[0] == (x,) or sol[0][0] == x for sol in res.solutions)
    assert all(rd.check(sol[0]) for sol in res.solutions)
    assert {sol[0] for sol in res.solutions} == set(brute_decode_set(rd))


def seeded_words(rng, ext, count, n=3, radius=1):
    """k = 1 words y = x0 g + e: the first without an error, the others
    with a random e of rank <= 1 over a chain ring, and at random over a
    product extension."""
    S = ext
    elems = list(S.elements())
    for i in range(count):
        g = tuple(rng.choice(elems) for _ in range(n))
        x0 = rng.choice(elems)
        if i == 0:
            y = tuple(S.mul(x0, gj) for gj in g)
        elif isinstance(ext, ProductExtension):
            y = tuple(rng.choice(elems) for _ in range(n))
        else:
            s = rng.choice(elems)
            b = [ext.base.element(rng.randrange(ext.base.size)) for _ in range(n)]
            y = tuple(S.add(S.mul(x0, gj), S.scalar_mul(bj, s)) for gj, bj in zip(g, b))
        yield RankDecodingInstance(ext, (g,), y, radius)


def test_payload_vector_rank_equals_the_boxed_rank_and_the_oracle(ext42, ext83):
    # for every x of seeded k = 1 words: GR(4,2) computes on its operation
    # tables, GR(8,3) (512 elements) on coordinates, and a product
    # extension's check reads each CRT component
    def ranks(ext, e):
        return vector_rank(ext, e), rank(matrix_representation(ext, e)), brute_vector_rank(ext, e)

    seen = set()
    for S, count in ((ext42, 3), (ext83, 2)):
        for rd in seeded_words(random.Random(2400 + S.size), S, count):
            for x in S.elements():
                e = rd.error_of((x,))
                rk, boxed, brute = ranks(S, e)
                assert rk == boxed == brute
                assert rd.check((x,)) == (rk <= rd.radius)
                seen.add((S.size, rk))
    pe = ProductExtension([build_extension(c, 2) for c in integer_ring(12).components])
    for rd in seeded_words(random.Random(2412), pe, 2):
        for x in pe.elements():
            e = rd.error_of((x,))
            comp_ranks = []
            for idx, comp in enumerate(pe.components):
                rk, boxed, brute = ranks(comp, [v.data[idx] for v in e])
                assert rk == boxed == brute
                comp_ranks.append(rk)
                seen.add((comp.size, rk))
            assert rd.check((x,)) == (max(comp_ranks) <= rd.radius)
    # every rank up to the extension degree occurs over every ring
    assert seen == {(16, 0), (16, 1), (16, 2), (512, 0), (512, 1), (512, 2), (512, 3), (9, 0), (9, 1), (9, 2)}


def test_lemma_rank_decomposition_property(ext83):
    """Planted e = b A with free row(A): rank <= r and the annihilator
    coefficients solve the key equation."""
    S = ext83
    base = S.base
    rng = random.Random(77)
    for _ in range(5):
        b = S.element([rng.randrange(8) for _ in range(3)])
        a_row = [base.element(rng.randrange(8)) for _ in range(4)]
        a_row[rng.randrange(4)] = base.one
        e = tuple(S.scalar_mul(av, b) for av in a_row)
        assert vector_rank(S, e) <= 1
        f = annihilator(S, e, 1)
        assert all(v.is_zero() for v in f.evaluate(e))


def test_no_solution_certified(ext42):
    S = ext42
    # distance-saturating received word for the repetition-style code
    g = (S.one, S.zero, S.zero)
    y = (S.zero, S.one, S.alpha)
    rd = RankDecodingInstance(S, (g,), y, 0)
    with pytest.raises(NoSolution):
        decode(rd)


def test_rd_json_roundtrip(decoding_instance):
    clone = RankDecodingInstance.from_json(decoding_instance.to_json())
    assert clone.generator == decoding_instance.generator
    assert clone.received == decoding_instance.received
    assert clone.radius == decoding_instance.radius


KEY_EQUATION_GOLDEN = Path(__file__).resolve().parent / "goldens" / "key_equation_models.json"
KEY_EQUATION_RINGS = {
    "GR(4,2)": (2, 2, 2),
    "GR(8,3)": (2, 3, 3),  # 512 elements: no operation tables
    "GR(9,2)": (3, 2, 2),
}
KEY_EQUATION_CELLS = ((3, 1, 1), (4, 2, 1), (4, 1, 2))  # (n, k, radius)


def key_equation_records():
    """key_equation_model of three seeded words per (ring, n, k, radius)
    cell: the s and r variables and equation payload terms, as SHA-256
    digests."""
    rng = random.Random(7)
    for name, (p, e, m) in KEY_EQUATION_RINGS.items():
        S = build_extension(Zpk(p, e), m)
        elems = list(S.elements())
        for n, k, radius in KEY_EQUATION_CELLS:
            for _ in range(3):
                gen = tuple(tuple(rng.choice(elems) for _ in range(n)) for _ in range(k))
                rd = RankDecodingInstance(S, gen, tuple(rng.choice(elems) for _ in range(n)), radius)
                model = key_equation_model(rd)
                record = {"ring": name, "n": n, "k": k, "radius": radius, "word": rd.to_json()}
                for form, ring, equations in (
                    ("s", model.s_ring, model.s_equations),
                    ("r", model.r_ring, model.r_equations),
                ):
                    blob = repr((ring.variables, model.z_vars, model.x_vars, tuple(f._terms for f in equations)))
                    record[form] = hashlib.sha256(blob.encode()).hexdigest()
                yield json.dumps(record, sort_keys=True, separators=(",", ":"))


def render_key_equation_golden() -> str:
    return "[\n" + ",\n".join(key_equation_records()) + "\n]\n"


def test_key_equation_model_builds_no_boxed_polynomial_arithmetic(monkeypatch):
    # the model is built from payload terms: no MultiPoly operator runs
    from chainring.polys import MultiPoly

    def refuse(*args, **kwargs):
        raise AssertionError("boxed polynomial arithmetic")

    for op in ("__add__", "__sub__", "__mul__", "__neg__", "scale"):
        monkeypatch.setattr(MultiPoly, op, refuse)
    assert render_key_equation_golden() == KEY_EQUATION_GOLDEN.read_text()


def test_key_equation_models_match_golden():
    # 27 models over GR(4,2), GR(8,3) and GR(9,2), byte for byte as the
    # boxed polynomial arithmetic built them
    assert render_key_equation_golden() == KEY_EQUATION_GOLDEN.read_text()
