import random

import pytest

from chainring.errors import ZeroPolynomial
from chainring.polys import MonomialOrder, PolyRing, strong_reduce, strong_reduce_with_witness, term_divides
from chainring.groebner import s_polynomial


@pytest.fixture
def pxy(z8):
    return PolyRing(z8, ("x", "y"), "lex")


def test_leading_data(pxy, z8):
    g1 = pxy.parse("4*x^2*y + y^3 + 2*y + 4")
    _, lm, lc = g1.leading_data()
    assert lm == (2, 1) and lc.data == 4

    const = pxy.parse("5")
    _, lm, lc = const.leading_data()
    assert lm == (0, 0) and lc.data == 5

    f = pxy.parse("y^3 + x")
    assert f.leading_monomial() == (1, 0)  # lex x > y


def test_leading_data_zero_raises(pxy):
    with pytest.raises(ZeroPolynomial):
        pxy.zero.leading_data()


def test_term_divides(pxy, z8):
    two_y3 = ((0, 3), z8.element(2))
    four_y4 = ((0, 4), z8.element(4))
    cof = term_divides(pxy, two_y3, four_y4)
    assert cof == ((0, 1), z8.element(2))  # 2y * 2y^3 = 4y^4

    x = ((1, 0), z8.one)
    y = ((0, 1), z8.one)
    assert term_divides(pxy, x, y) is None

    four_x = ((1, 0), z8.element(4))
    two_xy = ((1, 1), z8.element(2))
    assert term_divides(pxy, four_x, two_xy) is None  # valuation 2 > 1


def test_strong_reduce_examples(pxy):
    g1 = pxy.parse("4*x^2*y + y^3 + 2*y + 4")
    g3 = pxy.parse("y^4 + 2*y^2 + 4*y")
    s = s_polynomial(g1, g3)
    assert str(s) == "y^6 + 2*y^4 + 4*y^3"
    assert strong_reduce(s, [g3]).is_zero()

    assert strong_reduce(pxy.zero, [g1]).is_zero()

    random.seed(11)
    elems = list(pxy.ring.elements())
    for _ in range(20):
        f = pxy.poly(
            {(random.randrange(3), random.randrange(3)): random.choice(elems) for _ in range(4)}
        )
        if f.is_zero():
            continue
        assert strong_reduce(f, [f]).is_zero()


def test_reduction_witness_reexpands(pxy):
    random.seed(5)
    elems = list(pxy.ring.elements())

    def rand_poly():
        return pxy.poly(
            {(random.randrange(3), random.randrange(3)): random.choice(elems) for _ in range(4)}
        )

    for _ in range(25):
        f = rand_poly()
        basis = [p for p in (rand_poly(), rand_poly()) if not p.is_zero()]
        if not basis:
            continue
        rem, quotients = strong_reduce_with_witness(f, basis, full=True)
        recombined = rem
        for q, g in zip(quotients, basis):
            recombined = recombined + q * g
        assert recombined == f


def test_ring_axioms_random(z4, z8, gr42):
    random.seed(2)
    for ring in (z4, z8, gr42):
        P = PolyRing(ring, ("x", "y"), "lex")
        elems = list(ring.elements())

        def rand_poly():
            return P.poly(
                {
                    (random.randrange(3), random.randrange(3)): random.choice(elems)
                    for _ in range(3)
                }
            )

        for _ in range(15):
            f, g, h = rand_poly(), rand_poly(), rand_poly()
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h
            assert f + P.zero == f
            assert f * P.one == f


def test_monomial_orders():
    lex = MonomialOrder("lex", (0, 1))
    assert lex.greater((1, 0), (0, 5))
    grevlex = MonomialOrder("degrevlex", (0, 1))
    assert grevlex.greater((0, 5), (1, 0))  # higher total degree wins
    assert grevlex.greater((1, 2), (2, 1)) is False  # x^2y > xy^2 in grevlex
    # 1 is the minimum for both (admissibility)
    for order in (lex, grevlex):
        for e in [(1, 0), (0, 1), (2, 3)]:
            assert order.greater(e, (0, 0))


def test_order_multiplicativity():
    random.seed(9)
    for kind in ("lex", "degrevlex"):
        order = MonomialOrder(kind, (0, 1, 2))
        for _ in range(50):
            a = tuple(random.randrange(4) for _ in range(3))
            b = tuple(random.randrange(4) for _ in range(3))
            c = tuple(random.randrange(4) for _ in range(3))
            if order.greater(a, b):
                am = tuple(x + y for x, y in zip(a, c))
                bm = tuple(x + y for x, y in zip(b, c))
                assert order.greater(am, bm)


def test_parser_and_formatting(pxy):
    f = pxy.parse("4*x^2*y + y^3 + 2*y + 4")
    assert str(f) == "4*x^2*y + y^3 + 2*y + 4"
    g = pxy.parse("x - y")
    assert str(g) == "x + 7*y"
    assert pxy.parse("-x + 1") == pxy.parse("7*x + 1")


def test_poly_json_roundtrip(pxy):
    f = pxy.parse("4*x^2*y + y^3 + 2*y + 4")
    assert pxy.poly_from_json(pxy.poly_to_json(f)) == f


def test_substitute_and_derivative(pxy, z8):
    f = pxy.parse("4*x^2*y + y^3 + 2*y + 4")
    g = f.substitute(1, z8.element(2))  # y := 2
    assert g == pxy.parse("8*x^2 + 8 + 4 + 4")  # 0*x^2 + 16 -> 0? evaluate directly
    assert g == pxy.constant(z8.element(16))
    dy = f.derivative(1)
    assert dy == pxy.parse("4*x^2 + 3*y^2 + 2")


@pytest.mark.parametrize(
    "order",
    [MonomialOrder("degrevlex", (0, 1, 2)), MonomialOrder("lex", (2, 0, 1))],
    ids=["degrevlex", "lex-zxy"],
)
def test_operations_keep_canonical_form(z8, gr42, order):
    # scale and derivative keep the input's term order instead of sorting,
    # which holds only because the orders are compatible with multiplication
    rng = random.Random(21)
    for ring in (z8, gr42):
        P = PolyRing(ring, ("x", "y", "z"), order)
        elems = list(ring.elements())

        def rand_poly():
            return P.poly(
                {tuple(rng.randrange(4) for _ in range(3)): rng.choice(elems) for _ in range(5)}
            )

        def check(result, value_at):
            keys = [P._key(e) for e, _ in result.terms]
            assert all(a > b for a, b in zip(keys, keys[1:]))
            assert not any(c.is_zero() for _, c in result.terms)
            for _ in range(4):
                point = [rng.choice(elems) for _ in range(3)]
                assert result.evaluate(point) == value_at(point)

        for _ in range(10):
            f, g = rand_poly(), rand_poly()
            c, value, var = rng.choice(elems), rng.choice(elems), rng.randrange(3)
            check(f.scale(c), lambda pt: ring.mul(c, f.evaluate(pt)))
            check(f * g, lambda pt: ring.mul(f.evaluate(pt), g.evaluate(pt)))
            check(
                f.substitute(var, value),
                lambda pt: f.evaluate(pt[:var] + [value] + pt[var + 1 :]),
            )
            formal = P.poly(
                [
                    (e[:var] + (e[var] - 1,) + e[var + 1 :], ring.mul(ring.from_int(e[var]), a))
                    for e, a in f.terms
                    if e[var]
                ]
            )
            check(f.derivative(var), formal.evaluate)
            assert f.derivative(var) == formal


def test_evaluate(pxy, z8):
    f = pxy.parse("4*x^2*y + y^3 + 2*y + 4")
    assert f.evaluate([z8.element(1), z8.element(2)]).data == (4 * 2 + 8 + 4 + 4) % 8
