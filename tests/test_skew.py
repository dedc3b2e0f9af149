import random

import pytest

from chainring.errors import RankExceeds
from chainring.extension import vector_rank
from chainring.oracles import brute_annihilators
from chainring.skew import SkewPoly, annihilator


def test_twist_rule(ext83):
    S = ext83
    rng = random.Random(2)
    elems = list(S.elements())
    X = SkewPoly.x(S)
    for _ in range(20):
        a = rng.choice(elems)
        prod = X * SkewPoly(S, [a])
        assert prod.coeffs == (S.zero, S.frobenius(a))


def test_multiplicative_identity(ext83):
    S = ext83
    rng = random.Random(3)
    elems = list(S.elements())
    one = SkewPoly.one(S)
    for _ in range(10):
        f = SkewPoly(S, [rng.choice(elems) for _ in range(3)])
        assert f * one == f
        assert one * f == f


def test_associativity(ext83):
    S = ext83
    rng = random.Random(4)
    elems = list(S.elements())
    for _ in range(15):
        f, g, h = (SkewPoly(S, [rng.choice(elems) for _ in range(3)]) for _ in range(3))
        assert (f * g) * h == f * (g * h)


def test_evaluation_is_sigma_action(ext83):
    S = ext83
    X = SkewPoly.x(S)
    rng = random.Random(5)
    elems = list(S.elements())
    for _ in range(10):
        x = rng.choice(elems)
        assert X.evaluate(x) == S.frobenius(x)


def test_evaluation_composition_law(ext83):
    S = ext83
    rng = random.Random(6)
    elems = list(S.elements())
    for _ in range(20):
        f = SkewPoly(S, [rng.choice(elems) for _ in range(3)])
        g = SkewPoly(S, [rng.choice(elems) for _ in range(3)])
        x = rng.choice(elems)
        assert (f * g).evaluate(x) == f.evaluate(g.evaluate(x))


def test_annihilator_golden(ext83):
    S = ext83
    u = (S.element([2, 0, 6]), S.zero, S.element([4, 0, 4]))
    f = annihilator(S, u, 1)
    assert f.is_monic() and f.degree() == 1
    assert all(v.is_zero() for v in f.evaluate(u))
    w = f.coeffs[0]
    w0, w1, w2 = (c.data for c in S.coords(w))
    assert w0 in {3, 7} and w1 in {0, 4} and w2 in {3, 7}


def test_annihilator_count_golden(ext83):
    S = ext83
    u = (S.element([2, 0, 6]), S.zero, S.element([4, 0, 4]))
    anns = brute_annihilators(S, u, 1)
    assert len(anns) == 8
    w0s = {S.coords(f.coeffs[0])[0].data for f in anns}
    w1s = {S.coords(f.coeffs[0])[1].data for f in anns}
    w2s = {S.coords(f.coeffs[0])[2].data for f in anns}
    assert (w0s, w1s, w2s) == ({3, 7}, {0, 4}, {3, 7})


def test_annihilator_zero_vector(ext83):
    S = ext83
    f = annihilator(S, (S.zero, S.zero), 0)
    assert f.degree() == 0 and f.is_monic()
    assert all(v.is_zero() for v in f.evaluate((S.zero, S.zero)))
    # every monic X + w annihilates the zero vector
    anns = brute_annihilators(S, (S.zero,), 1)
    assert len(anns) == S.size


def test_annihilator_rank_exceeds(ext83):
    S = ext83
    u = (S.one, S.alpha, S.pow(S.alpha, 2))
    assert vector_rank(S, u) == 3
    with pytest.raises(RankExceeds):
        annihilator(S, u, 2)


def test_annihilator_unique_for_free_support(ext42):
    S = ext42
    rng = random.Random(8)
    elems = list(S.elements())
    found = 0
    while found < 6:
        u = tuple(rng.choice(elems) for _ in range(3))
        if vector_rank(S, u) != 2:
            continue
        anns = brute_annihilators(S, u, 2)
        if len(anns) != 1:
            # support not free: several annihilators are expected
            continue
        found += 1
        canonical = annihilator(S, u, 2)
        assert canonical == anns[0]


def test_annihilator_matches_brute_set(ext42):
    S = ext42
    rng = random.Random(9)
    elems = list(S.elements())
    for _ in range(10):
        u = tuple(rng.choice(elems) for _ in range(2))
        r = vector_rank(S, u)
        if r == 0:
            continue
        f = annihilator(S, u, r)
        assert f in brute_annihilators(S, u, r)


def test_annihilator_beyond_rank(ext83):
    S = ext83
    u = (S.element([2, 0, 6]), S.zero, S.element([4, 0, 4]))
    for r in (1, 2, 3):
        f = annihilator(S, u, r)
        assert f.degree() == r and f.is_monic()
        assert all(v.is_zero() for v in f.evaluate(u))


def test_skew_json_roundtrip(ext83):
    S = ext83
    f = SkewPoly(S, [S.element([3, 4, 7]), S.one])
    assert SkewPoly.from_json(S, f.to_json()) == f
