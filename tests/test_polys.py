import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import chainring
from chainring.errors import ExponentOverflow, ParseError, ResourceExceeded, ZeroPolynomial
from chainring.groebner import a_polynomial, s_polynomial
from chainring.localring import presentation_from_json
from chainring.polys import (
    MAX_EXPONENT,
    MonomialOrder,
    PolyRing,
    compile_polys,
    split_compiled,
    strong_reduce,
    strong_reduce_with_witness,
    term_divides,
)
from chainring.rings import ChainRing, RingElement, Zpk, galois_ring, integer_ring


@pytest.fixture
def pxy(z8):
    return PolyRing(z8, ("x", "y"), "lex")


def test_leading_data(pxy, z8):
    g1 = pxy.parse("4*x^2*y + y^3 + 2*y + 4")
    lm, lc = g1.leading_term()
    assert lm == (2, 1) and lc.data == 4

    const = pxy.parse("5")
    lm, lc = const.leading_term()
    assert lm == (0, 0) and lc.data == 5

    f = pxy.parse("y^3 + x")
    assert f.leading_term()[0] == (1, 0)  # lex x > y


def test_leading_data_zero_raises(pxy):
    with pytest.raises(ZeroPolynomial):
        pxy.zero.leading_term()


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
    assert lex.key((1, 0)) > lex.key((0, 5))
    grevlex = MonomialOrder("degrevlex", (0, 1))
    assert grevlex.key((0, 5)) > grevlex.key((1, 0))  # higher total degree wins
    assert not grevlex.key((1, 2)) > grevlex.key((2, 1))  # x^2y > xy^2 in grevlex
    # 1 is the minimum for both (admissibility)
    for order in (lex, grevlex):
        for e in [(1, 0), (0, 1), (2, 3)]:
            assert order.key(e) > order.key((0, 0))


def test_order_multiplicativity():
    random.seed(9)
    for kind in ("lex", "degrevlex"):
        order = MonomialOrder(kind, (0, 1, 2))
        for _ in range(50):
            a = tuple(random.randrange(4) for _ in range(3))
            b = tuple(random.randrange(4) for _ in range(3))
            c = tuple(random.randrange(4) for _ in range(3))
            if order.key(a) > order.key(b):
                am = tuple(x + y for x, y in zip(a, c))
                bm = tuple(x + y for x, y in zip(b, c))
                assert order.key(am) > order.key(bm)


def test_parser_and_formatting(pxy):
    f = pxy.parse("4*x^2*y + y^3 + 2*y + 4")
    assert str(f) == "4*x^2*y + y^3 + 2*y + 4"
    g = pxy.parse("x - y")
    assert str(g) == "x + 7*y"
    assert pxy.parse("-x + 1") == pxy.parse("7*x + 1")


@pytest.mark.parametrize("text", ["", "  ", "+", "-", "x*", "2*", "*x", "x + *y", "x**y", "x + + y", "x -"])
def test_parser_rejects_malformed_text(pxy, text):
    # a lone sign, empty text and a '*' with a factor missing on either
    # side are errors, not the zero polynomial or a dropped '*'
    with pytest.raises(ParseError):
        pxy.parse(text)


def test_parser_reads_zero(pxy):
    assert pxy.parse("0").is_zero()
    assert pxy.parse("-0").is_zero()
    assert pxy.parse("x - x").is_zero()


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
            keys = [P.order.key(e) for e, _ in result.terms]
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


def boxed_horner(f, point):
    """f(point) by Horner's rule in the first variable, on boxed elements:
    each coefficient of x_0^d is a sum of coeff * prod R.pow(x_i, e_i)."""
    R = f.ring.ring
    coeffs = {}
    for exps, c in f.terms:
        v = c
        for x, e in zip(point[1:], exps[1:]):
            v = R.mul(v, R.pow(x, e))
        coeffs[exps[0]] = R.add(coeffs.get(exps[0], R.zero), v)
    acc = R.zero
    for d in range(max(coeffs, default=0), -1, -1):
        acc = R.add(R.mul(acc, point[0]), coeffs.get(d, R.zero))
    return acc


def test_evaluate_matches_boxed_horner():
    # evaluate reads the packed terms and brute_solve enumerates with it;
    # the ring's compiled evaluation kernel lifts roots and re-verifies
    # every emitted tuple: both are checked against boxed arithmetic at every
    # point of Z8 and GR(4,2) and at seeded points of Z12 and a local ring,
    # under lex and degrevlex
    rings = poly_golden_rings()
    rng = random.Random(5)
    for name, R in [("z8", Zpk(2, 3)), ("gr42", rings["gr42"]), ("z12", rings["z12"]), ("local", rings["local_cubic"])]:
        elems = list(R.elements())
        for order in ("lex", MonomialOrder("degrevlex", (1, 0))):
            P = PolyRing(R, ("x", "y"), order)
            for _ in range(3):
                f = P.poly({(rng.randrange(4), rng.randrange(4)): rng.choice(elems) for _ in range(4)})
                if name in ("z8", "gr42"):
                    points = [[a, b] for a in elems for b in elems]
                else:
                    points = [[rng.choice(elems), rng.choice(elems)] for _ in range(60)]
                (compiled,) = compile_polys([f], range(2))
                for point in points:
                    expected = boxed_horner(f, point)
                    assert f.evaluate(point) == expected
                    assert R._payload_evaluate(compiled, [x.data for x in point]) == expected.data


@pytest.mark.parametrize("order", ["lex", MonomialOrder("degrevlex", (2, 0, 1))])
def test_compiled_form_differentiates_and_splits_like_the_polynomial(z8, gr42, order):
    # the lift takes its Jacobian rows from the gradient kernel on the
    # compiled form, and re-verification splits the form by the free
    # coordinates' monomials; both agree with MultiPoly
    rng = random.Random(22)
    for R in (z8, gr42):
        P = PolyRing(R, ("x", "y", "z"), order)
        elems = list(R.elements())
        for _ in range(10):
            f = P.poly({tuple(rng.randrange(4) for _ in range(3)): rng.choice(elems) for _ in range(5)})
            (compiled,) = compile_polys([f], range(3))
            var, value = rng.randrange(3), rng.choice(elems)
            at = [rng.choice(elems) for _ in range(3)]
            gradient = R._payload_gradient(compiled, [x.data for x in at], 3)
            assert gradient[var] == f.derivative(var).evaluate(at).data
            point = [None] * 3
            point[var] = value.data
            parts = split_compiled(compiled, set(range(3)) - {var})
            sums = [R._payload_evaluate(part, point) for part in parts]
            substituted = f.substitute(var, value)
            assert sorted(v for v in sums if v != R._zero_data) == sorted(c for _, c in substituted._terms)


KERNEL_RINGS = {
    "z4": Zpk(2, 2),
    "z8": Zpk(2, 3),
    "z9": Zpk(3, 2),
    "z25": Zpk(5, 2),
    "z27": Zpk(3, 3),
    "gr42": galois_ring(2, 2, 2),
    # 512 elements: above the operation-table cap, so the coordinate code
    "gr83": galois_ring(2, 3, 3),
}


@pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
def test_evaluation_kernels_match_the_polynomial(name):
    # _payload_evaluate is MultiPoly.evaluate, each entry of
    # _payload_gradient is the derivative's value, and Zpk's native-int
    # overrides equal the generic methods, on seeded polynomials in 1-3
    # variables with exponents up to 2^20 and constant terms
    R = KERNEL_RINGS[name]
    rng = random.Random(f"kernels:{name}")

    def draw():
        return RingElement(R, rng.randrange(R.size))

    exponents = [0, 1, 2, 3, 5, 9, R.q, R.size, 1000, (1 << 20) - 1, 1 << 20]
    for _ in range(40):
        k = rng.randint(1, 3)
        P = PolyRing(R, ("x", "y", "z")[:k], "lex")
        terms = {tuple(rng.choice(exponents) for _ in range(k)): draw() for _ in range(rng.randint(1, 5))}
        terms[(0,) * k] = draw()
        f = P.poly(terms)
        (compiled,) = compile_polys([f], range(k))
        for _ in range(4):
            point = [draw() for _ in range(k)]
            data = [x.data for x in point]
            value = R._payload_evaluate(compiled, data)
            gradient = R._payload_gradient(compiled, data, k)
            assert value == f.evaluate(point).data
            assert gradient == [f.derivative(v).evaluate(point).data for v in range(k)]
            if isinstance(R, Zpk):
                assert value == ChainRing._payload_evaluate(R, compiled, data)
                assert gradient == ChainRing._payload_gradient(R, compiled, data, k)


@pytest.mark.parametrize("name", sorted(name for name, R in KERNEL_RINGS.items() if isinstance(R, Zpk)))
def test_zpk_gradient_equals_the_generic_kernel_on_each_term_shape(name):
    # Zpk's gradient has direct paths for one factor and for a two-factor
    # multilinear term c·x_i·x_j (every term of the KS, Support-Minors and
    # key-equation models); each shape, and two factors with an exponent
    # above 1 and three factors, equals the generic Ring method on seeded
    # compiled terms in four positions, and so does a mix of them
    R = KERNEL_RINGS[name]
    rng = random.Random(f"gradient-shapes:{name}")
    k = 4

    def factors(*exponents):
        return tuple(sorted(zip(rng.sample(range(k), len(exponents)), exponents)))

    def exponent():
        return rng.choice((1, 2, 3, R.q))

    shapes = {
        "one": lambda: factors(exponent()),
        "two multilinear": lambda: factors(1, 1),
        "two with a power": lambda: factors(exponent(), rng.choice((2, 3, R.q))),
        "three": lambda: factors(exponent(), exponent(), exponent()),
    }
    for shape, draw in shapes.items():
        for _ in range(30):
            terms = [(rng.randrange(R.size), draw()) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                terms.append((rng.randrange(R.size), ()))
            point = [rng.randrange(R.size) for _ in range(k)]
            assert R._payload_gradient(terms, point, k) == ChainRing._payload_gradient(R, terms, point, k), shape
    for _ in range(30):
        terms = [(rng.randrange(R.size), rng.choice(list(shapes.values()))()) for _ in range(6)]
        point = [rng.randrange(R.size) for _ in range(k)]
        assert R._payload_gradient(terms, point, k) == ChainRing._payload_gradient(R, terms, point, k)


def test_compile_polys_equals_compiling_each_polynomial_alone(z8, gr42):
    # compile_polys reads each monomial once into a table the whole system
    # shares; the result is each polynomial compiled on its own, over every
    # listed variable order (unused variables included)
    rng = random.Random(32)
    for R in (z8, gr42):
        elems = list(R.elements())
        P = PolyRing(R, ("x", "y", "z"), MonomialOrder("degrevlex", (2, 0, 1)))
        monomials = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(6)]
        for _ in range(10):
            polys = [P.poly({m: rng.choice(elems) for m in rng.sample(monomials, 3)}) for _ in range(rng.randint(1, 4))]
            for variables in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
                alone = [compile_polys([f], variables)[0] for f in polys]
                assert compile_polys(polys, variables) == alone
                for f, terms in zip(polys, alone):
                    assert len(terms) == len(f._terms)
                    assert all(
                        dict(factors) == {i: e for i, v in enumerate(variables) if (e := m[v])}
                        for (_, factors), (m, _) in zip(terms, f.terms)
                    )
    assert compile_polys([], range(2)) == []


POLY_GOLDEN = Path(__file__).resolve().parent / "goldens" / "poly_ops.json"
LOCAL_CUBIC = Path(__file__).resolve().parents[1] / "instances" / "local_cubic.json"
POLY_ORDERS = {
    "lex": "lex",
    "lex_zxy": MonomialOrder("lex", (2, 0, 1)),
    "degrevlex": MonomialOrder("degrevlex", (0, 1, 2)),
}


def poly_golden_rings():
    local = presentation_from_json(json.loads(LOCAL_CUBIC.read_text())["ring"])
    return {
        "z4": Zpk(2, 2),
        "z9": Zpk(3, 2),
        "z25": Zpk(5, 2),
        "gr42": galois_ring(2, 2, 2),
        "z12": integer_ring(12),
        "local_cubic": local,
    }


def poly_ops_records():
    """Seeded operands over each ring and order, and the polynomials that
    *, -, scale, term_mul, substitute, derivative and map_to make of them;
    over the chain rings also strong_reduce (head and full), s_polynomial
    and a_polynomial against a small basis."""
    rng = random.Random(2027)
    for ring_name, ring in poly_golden_rings().items():
        elems = list(ring.elements())
        chain = isinstance(ring, ChainRing)
        for order_name, order in POLY_ORDERS.items():
            P = PolyRing(ring, ("x", "y", "z"), order)
            target = PolyRing(ring, ("w", "x", "y", "z"), "degrevlex")

            def rand_poly(terms=4, deg=3):
                return P.poly(
                    [(tuple(rng.randrange(deg + 1) for _ in range(3)), rng.choice(elems)) for _ in range(terms)]
                )

            def js(f):
                return P.poly_to_json(f) if f.ring == P else f.ring.poly_to_json(f)

            for _ in range(4):
                f, g = rand_poly(), rand_poly()
                c, value, var = rng.choice(elems), rng.choice(elems), rng.randrange(3)
                mono = tuple(rng.randrange(3) for _ in range(3))
                record = {
                    "ring": ring_name,
                    "order": order_name,
                    "f": js(f),
                    "g": js(g),
                    "c": ring.element_to_json(c),
                    "value": ring.element_to_json(value),
                    "var": var,
                    "mono": list(mono),
                    "mul": js(f * g),
                    "sub": js(f - g),
                    "scale": js(f.scale(c)),
                    "term_mul": js(f.term_mul(mono, c)),
                    "substitute": js(f.substitute(var, value)),
                    "derivative": js(f.derivative(var)),
                    "map_to": js(f.map_to(target, (3, 1, 0))),
                    "format": (f * g).format(),
                }
                if chain:
                    basis = [rand_poly(3, 2) for _ in range(3)]
                    basis = [b for b in basis if not b.is_zero()]
                    h = rand_poly(3, 2)
                    for b in basis:
                        h = h + b * rand_poly(2, 1)
                    record["basis"] = [js(b) for b in basis]
                    record["h"] = js(h)
                    record["reduce_head"] = js(strong_reduce(h, basis))
                    record["reduce_full"] = js(strong_reduce(h, basis, full=True))
                    record["s_polys"] = [
                        js(s_polynomial(a, b)) for i, a in enumerate(basis) for b in basis[i + 1 :] if a != b
                    ]
                    record["a_polys"] = [js(a_polynomial(b)) for b in basis]
                yield record


def render_poly_golden() -> str:
    records = list(poly_ops_records())
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records) + "\n]\n"


def test_poly_ops_match_golden():
    # products, differences, scalings, shifts, substitutions, derivatives,
    # ring maps and strong reductions of seeded polynomials over Z4, Z9,
    # Z25, GR(4,2), Z12 and a local ring under three orders, byte for byte
    # as the boxed term lists produced them
    assert render_poly_golden() == POLY_GOLDEN.read_text()


@pytest.mark.parametrize("order", ["lex", "degrevlex", MonomialOrder("lex", (1, 0))], ids=str)
def test_exponents_at_the_limit_round_trip(z8, order):
    top = MAX_EXPONENT
    P = PolyRing(z8, ("x", "y"), order)
    exps = [(top, 0), (0, top), (top, top), (top - 1, 1), (1, top - 1)]
    f = P.poly({e: i + 1 for i, e in enumerate(exps)})
    assert sorted(e for e, _ in f.terms) == sorted(exps)
    keys = [P.order.key(e) for e, _ in f.terms]
    assert keys == sorted(keys, reverse=True)
    assert P.poly_from_json(P.poly_to_json(f)) == f
    assert P.parse(f.format()) == f
    assert f.degree_in(0) == top and f.total_degree() == 2 * top
    assert (P.parse(f"x^{top - 1}") * P.gen(0)).terms == (((top, 0), z8.one),)


# Each case makes a monomial with an exponent one past MAX_EXPONENT: by
# parsing, from a term list or JSON, or as a product inside *, **, term_mul,
# strong_reduce and s_polynomial.  Printed, not asserted, so that the same
# script checks the library under python -O.
EXPONENT_LIMIT_SCRIPT = """
from chainring.groebner import s_polynomial
from chainring.polys import MAX_EXPONENT as top, PolyRing, strong_reduce
from chainring.rings import Zpk

P = PolyRing(Zpk(2, 3), ("x", "y"), "lex")
Q = PolyRing(Zpk(2, 3), ("x", "y"), "degrevlex")
cases = {
    "parse": lambda: P.parse(f"x^{top + 1}"),
    "poly": lambda: P.poly({(0, top + 1): 1}),
    "json": lambda: P.poly_from_json([[1, [top + 1, 0]]]),
    "mul": lambda: P.parse(f"x^{top} + y") * P.gen(0),
    "pow": lambda: P.parse(f"y^{top // 2 + 1}") ** 2,
    "term_mul": lambda: P.parse(f"x*y^{top}").term_mul((0, 1), 1),
    "strong_reduce": lambda: strong_reduce(P.parse("x*y"), [P.parse(f"x + y^{top}")]),
    "s_polynomial": lambda: s_polynomial(P.parse(f"x + y^{top}"), P.gen(1)),
    "degrevlex_mul": lambda: Q.parse(f"y^{top}") * Q.gen(1),
}
for name, make in cases.items():
    try:
        make()
        print(name, "no error")
    except Exception as exc:
        print(name, type(exc).__name__)
"""


def test_exponent_past_the_limit_raises_a_typed_error(capsys):
    exec(EXPONENT_LIMIT_SCRIPT, {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    assert all(line.endswith(" ExponentOverflow") for line in lines)
    assert issubclass(ExponentOverflow, ResourceExceeded)


def test_exponent_past_the_limit_raises_under_optimize_flag():
    src = str(Path(chainring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", EXPONENT_LIMIT_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert len(out) == 9
    assert all(line.endswith(" ExponentOverflow") for line in out)
