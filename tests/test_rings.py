import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from chainring.errors import (
    BadGenerator,
    ChainRingError,
    ComponentMismatch,
    InternalInvariant,
    NotAUnit,
    ZeroElement,
)
from chainring import rings
from chainring.rings import (
    ExtensionChainRing,
    RingElement,
    Zpk,
    crt_join,
    crt_split,
    galois_ring,
    integer_ring,
    ring_from_json,
)


def test_valuation_examples(z8):
    assert z8.valuation(z8.element(6)) == 1
    assert z8.valuation(z8.one) == 0
    assert z8.valuation(z8.zero) == 3


def test_unit_part_examples(z8):
    assert z8.unit_part(z8.element(6)).data == 3
    assert z8.unit_part(z8.element(5)).data == 5
    # 4 = 2^2 * 1 and pi^l * u reconstructs 4
    u = z8.unit_part(z8.element(4))
    assert u.data == 1
    assert z8.mul(z8.pow(z8.pi_element, 2), u) == z8.element(4)


def test_unit_part_of_zero_raises(z8):
    with pytest.raises(ZeroElement):
        z8.unit_part(z8.zero)


def test_invert_unit_examples(z8, z25):
    assert z8.invert(z8.element(3)).data == 3
    inv5 = z25.invert(z25.element(5 + 2))  # any unit; direct product check below
    assert z25.mul(inv5, z25.element(7)) == z25.one
    # exhaustive cross-check over Z25 units
    for x in z25.elements():
        if z25.is_unit(x):
            assert z25.mul(x, z25.invert(x)) == z25.one


def test_invert_unit_galois(ext83):
    alpha = ext83.alpha
    beta = ext83.invert(alpha)
    assert ext83.mul(alpha, beta) == ext83.one


def test_invert_non_unit_raises(z8):
    with pytest.raises(NotAUnit):
        z8.invert(z8.element(2))


def test_teichmuller_sets(z8, z9, gr42):
    assert [g.data for g in z8.teichmuller_set()] == [0, 1]
    # field case: the whole ring
    f3 = Zpk(3, 1)
    assert [g.data for g in f3.teichmuller_set()] == [0, 1, 2]
    assert [g.data for g in z9.teichmuller_set()] == [0, 1, 8]
    gamma = gr42.teichmuller_set()
    assert len(gamma) == 4
    for a in gamma:
        assert gr42.pow(a, 4) == a


def test_pi_adic_decomposition_examples(z8):
    six = z8.element(6)
    assert [d.data for d in z8.pi_adic_digits(six)] == [0, 1, 1]
    assert [d.data for d in z8.pi_adic_digits(six, six)] == [0, 1, 0]
    assert [d.data for d in z8.pi_adic_digits(z8.zero)] == [0, 0, 0]


def test_pi_adic_bad_generator(z8):
    with pytest.raises(BadGenerator):
        z8.pi_adic_digits(z8.element(3), z8.element(4))


def test_pi_adic_roundtrip_every_generator(z8):
    generators = [x for x in z8.elements() if z8.valuation(x) == 1]
    for pi in generators:
        for c in z8.elements():
            digits = z8.pi_adic_digits(c, pi)
            assert all(d in z8.teichmuller_set() for d in digits)
            assert z8.pi_adic_compose(digits, pi) == c


def test_valuation_product_rule(z8, z9):
    for ring in (z8, z9):
        for a in ring.elements():
            for b in ring.elements():
                va, vb = ring.valuation(a), ring.valuation(b)
                assert ring.valuation(ring.mul(a, b)) == min(va + vb, ring.nu)


def test_unit_reconstruction_everywhere(z8, gr42):
    for ring in (z8, gr42):
        for c in ring.elements():
            if c.is_zero():
                continue
            l = ring.valuation(c)
            assert ring.mul(ring.pow(ring.pi_element, l), ring.unit_part(c)) == c


def test_gamma_multiplicative_and_cyclic(z8, z9, gr42):
    for ring in (z8, z9, gr42):
        gamma = ring.teichmuller_set()
        for a in gamma:
            for b in gamma:
                assert ring.mul(a, b) in gamma
        nonzero = [a for a in gamma if not a.is_zero()]
        # some element generates the whole group
        orders = []
        for a in nonzero:
            power = a
            order = 1
            while power != ring.one:
                power = ring.mul(power, a)
                order += 1
            orders.append(order)
        assert max(orders) == ring.q - 1


def test_every_ideal_is_pi_power(z8, z9):
    # the ideal generated by c equals the one generated by pi^val(c)
    for ring in (z8, z9):
        for c in ring.elements():
            pival = ring.pow(ring.pi_element, ring.valuation(c))
            ideal_c = {ring.mul(c, x) for x in ring.elements()}
            ideal_p = {ring.mul(pival, x) for x in ring.elements()}
            assert ideal_c == ideal_p


def test_crt_split_join_roundtrip():
    z6 = integer_ring(6)
    assert len(z6.components) == 2
    x = z6.element([1, 2])
    parts = crt_split(x)
    assert [p.data for p in parts] == [1, 2]
    assert crt_join(parts, z6) == x
    random.seed(7)
    elems = list(z6.elements())
    for _ in range(100):
        a = random.choice(elems)
        assert crt_join(crt_split(a), z6) == a


def test_crt_split_respects_arithmetic():
    z30 = integer_ring(30)
    random.seed(3)
    elems = list(z30.elements())
    for _ in range(50):
        a, b = random.choice(elems), random.choice(elems)
        lhs = crt_split(z30.add(a, b))
        rhs = [x.ring.add(x, y) for x, y in zip(crt_split(a), crt_split(b))]
        assert lhs == rhs
        lhs = crt_split(z30.mul(a, b))
        rhs = [x.ring.mul(x, y) for x, y in zip(crt_split(a), crt_split(b))]
        assert lhs == rhs


def test_crt_join_mismatch():
    z6 = integer_ring(6)
    z10 = integer_ring(10)
    with pytest.raises(ComponentMismatch):
        crt_join(crt_split(z10.from_int(3)), z6)


def test_integer_encoding_roundtrip():
    # from_int is the CRT isomorphism Z6 -> Z2 x Z3
    z6 = integer_ring(6)
    assert len({z6.from_int(n) for n in range(6)}) == 6
    for n in range(-6, 12):
        assert crt_split(z6.from_int(n)) == [C.from_int(n) for C in z6.components]
        assert z6.from_int(n) == z6.from_int(n % 6)


def test_ring_json_roundtrip(z8, ext83, gr42):
    z6 = integer_ring(6)
    for ring in (z8, ext83, gr42, z6):
        clone = ring_from_json(ring.to_json())
        assert clone == ring
        for x in itertools.islice(ring.elements(), 10):
            assert clone.element_from_json(ring.element_to_json(x)) == x


def test_galois_modulus_reduction_irreducible():
    import pytest as _pytest
    from chainring.errors import DomainError

    base = Zpk(2, 3)
    # X^2 + 1 factors as (X+1)^2 mod 2
    with _pytest.raises(DomainError):
        galois_ring(2, 3, 2, [1, 0, 1])


def test_galois_modulus_must_match_r():
    from chainring.errors import DomainError

    for modulus in ([1, 1], [1, 1, 0], [1, 1, 4]):  # degree 1, not 2
        with pytest.raises(DomainError):
            galois_ring(2, 2, 2, modulus)
    assert galois_ring(2, 2, 1, [1, 1]).degree == 1
    assert galois_ring(2, 2, 2, [1, 1, 1, 0]).degree == 2


def test_frobenius_lifting_path_matches_enumeration(z9):
    # force the large-ring branch and compare against the filter
    by_filter = z9.teichmuller_set()
    lifted = []
    for rep in z9.residue_lifts():
        a = rep
        for _ in range(z9.nu):
            a = z9.pow(a, z9.q)
        lifted.append(a)
    assert sorted(lifted, key=z9.sort_key) == list(by_filter)


def test_broken_teichmuller_set_raises_internal_invariant(monkeypatch):
    # an explicit error, not an assert, so it holds under python -O
    R = Zpk(2, 3)
    monkeypatch.setattr(R, "pow", lambda a, e: R.one)
    with pytest.raises(InternalInvariant):
        R.teichmuller_set()


@pytest.mark.parametrize("p,k,r", [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 3, 3)])
def test_unit_inverse_table_matches_newton_lift(p, k, r):
    # GR(4,2), GR(8,2), GR(9,2), GR(8,3): the table, built on the first
    # inversion, holds every unit and agrees with the Newton lift on each
    R = galois_ring(p, k, r)
    assert R._inverses is None
    units = [a for a in R.elements() if R.valuation(a) == 0]
    assert len(units) == R.size - R.size // R.q
    for a in units:
        inv = R.invert(a)
        assert inv == R._lift_inverse(a)
        assert R.mul(a, inv) == R.one
    assert len(R._inverses) == len(units)
    with pytest.raises(NotAUnit):
        R.invert(R.pi_element)


def test_large_ring_inverts_without_a_table():
    R = galois_ring(2, 3, 4)  # 4096 elements, above the table's cap
    a = R.add(R.one, R.alpha)
    assert R.mul(a, R.invert(a)) == R.one
    assert R._inverses is None


@pytest.mark.parametrize(
    "R",
    [Zpk(2, 3), Zpk(3, 2), Zpk(3, 3), galois_ring(2, 2, 2), galois_ring(2, 3, 2)],
    ids=["Z8", "Z9", "Z27", "GR(4,2)", "GR(8,2)"],
)
def test_payload_digit_is_the_teichmuller_digit(R):
    for a in R.elements():
        assert R._payload_digit(a.data) == R.teichmuller_digit(a).data


def test_payload_digit_of_a_large_ring():
    R = Zpk(2, 17)  # above the enumeration cap of teichmuller_set
    rng = random.Random(17)
    for x in [0, 1, R.modulus - 1] + [rng.randrange(R.modulus) for _ in range(500)]:
        assert R._payload_digit(x) == R.teichmuller_digit(RingElement(R, x)).data


RING_OPS_GOLDEN = Path(__file__).resolve().parent / "goldens" / "ring_ops.json"
RING_OPS_RINGS = {
    "z4": Zpk(2, 2),
    "z8": Zpk(2, 3),
    "z9": Zpk(3, 2),
    "z25": Zpk(5, 2),
    "gr42": galois_ring(2, 2, 2),
    "gr82": galois_ring(2, 3, 2),
    "gr92": galois_ring(3, 2, 2),
}
RING_OPS_FULL = ("z8", "gr42")  # rings whose tables are kept, not only hashed
_GR42 = RING_OPS_RINGS["gr42"]
# rings too large for every pair: GR(8,3) (512 elements) and a degree-2 tower
# over GR(4,2), x^2 + x + alpha (256 elements), checked on seeded pairs
RING_OPS_LARGE = {
    "gr83": galois_ring(2, 3, 3),
    "gr42_2": ExtensionChainRing(_GR42, [_GR42.alpha, _GR42.one, _GR42.one]),
}


def ring_ops_tables(R):
    """Every element method on every operand (pair) of R, unit inverses,
    exact_div_pi_power(a, l) for l in 0..nu+1 (the error type where one is
    raised), _payload_quo_pi(x, v) for v in 0..nu, and _payload_scale and
    _payload_addmul on seeded rows, as JSON-ready rows by op name."""
    js = R.element_to_json
    elems = list(R.elements())
    pairs = [(a, b) for a in elems for b in elems]

    def div_or_error(a, l):
        try:
            return js(R.exact_div_pi_power(a, l))
        except ChainRingError as exc:
            return type(exc).__name__

    def payloads(row):
        return [js(RingElement(R, x)) for x in row]

    # the row operations take sparse rows; each result is read back dense
    zero = R._zero_data

    def sparse(row):
        return {j: x for j, x in enumerate(row) if x != zero}

    def dense(row, n):
        assert zero not in row.values()
        return [row.get(j, zero) for j in range(n)]

    rng = random.Random(2028)
    rows = []
    for _ in range(24):
        n = rng.randrange(1, 6)
        row_i, row_j = [rng.choice(elems).data for _ in range(n)], [rng.choice(elems).data for _ in range(n)]
        rows.append((rng.choice(elems).data, row_i, row_j))
    return {
        "add": [[js(a), js(b), js(R.add(a, b))] for a, b in pairs],
        "sub": [[js(a), js(b), js(R.sub(a, b))] for a, b in pairs],
        "mul": [[js(a), js(b), js(R.mul(a, b))] for a, b in pairs],
        "neg": [[js(a), js(R.neg(a))] for a in elems],
        "valuation": [[js(a), R.valuation(a)] for a in elems],
        "teichmuller_digit": [[js(a), js(R.teichmuller_digit(a))] for a in elems],
        "invert": [[js(a), js(R.invert(a))] for a in elems if R.is_unit(a)],
        "exact_div_pi_power": [[js(a), l, div_or_error(a, l)] for a in elems for l in range(R.nu + 2)],
        "payload_quo_pi": [
            [js(a), v, js(RingElement(R, R._payload_quo_pi(a.data, v)))] for a in elems for v in range(R.nu + 1)
        ],
        "payload_scale": [
            [js(RingElement(R, c)), payloads(r), payloads(dense(R._payload_scale(c, sparse(r)), len(r)))]
            for c, r, _ in rows
        ],
        "payload_addmul": [
            [
                payloads(r),
                js(RingElement(R, c)),
                payloads(s),
                payloads(dense(R._payload_addmul(sparse(r), c, sparse(s)), len(r))),
            ]
            for c, r, s in rows
        ],
        "sort_key": [[js(a), list(R.sort_key(a))] for a in elems],
    }


def large_ring_ops_tables(R):
    """add, mul, neg, valuation and _payload_quo_pi(x, v) for v in 0..nu on
    2,000 seeded operand pairs, and sort_key on every element."""
    js = R.element_to_json
    elems = list(R.elements())
    rng = random.Random(2029)
    pairs = [(rng.choice(elems), rng.choice(elems)) for _ in range(2000)]
    return {
        "add": [[js(a), js(b), js(R.add(a, b))] for a, b in pairs],
        "mul": [[js(a), js(b), js(R.mul(a, b))] for a, b in pairs],
        "neg": [[js(a), js(R.neg(a))] for a, _ in pairs],
        "valuation": [[js(a), R.valuation(a)] for a, _ in pairs],
        "payload_quo_pi": [
            [js(a), v, js(RingElement(R, R._payload_quo_pi(a.data, v)))] for a, _ in pairs for v in range(R.nu + 1)
        ],
        "sort_key": [[js(a), list(R.sort_key(a))] for a in elems],
    }


def ring_ops_records(name, R) -> list[str]:
    """The golden's lines for one ring, one per op."""
    tables = large_ring_ops_tables(R) if name in RING_OPS_LARGE else ring_ops_tables(R)
    lines = []
    for op, table in tables.items():
        text = json.dumps(table, separators=(",", ":"))
        record = {"ring": name, "op": op, "sha256": hashlib.sha256(text.encode()).hexdigest()}
        if name in RING_OPS_FULL:
            record["table"] = table
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


def render_ring_ops_golden() -> str:
    lines = []
    for name, R in {**RING_OPS_RINGS, **RING_OPS_LARGE}.items():
        lines += ring_ops_records(name, R)
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_ring_ops_match_golden():
    # add, sub, mul, neg, valuation, teichmuller_digit, invert and
    # exact_div_pi_power on every element of Z4, Z8, Z9, Z25, GR(4,2),
    # GR(8,2) and GR(9,2), the payload quotient, scale and addmul, sort_key,
    # and seeded pairs of GR(8,3) and a tower over GR(4,2), byte for byte as
    # the per-ring element methods computed them
    assert render_ring_ops_golden() == RING_OPS_GOLDEN.read_text()


def test_galois_payloads_are_ints_and_small_rings_are_tabled():
    from chainring.extension import build_extension

    # building a ring, Frobenius matrices included, computes no table entry
    built = build_extension(Zpk(2, 2), 2)
    assert set(built._add_table + built._mul_table + built._neg_table) == {None}
    small, large = RING_OPS_RINGS["gr42"], RING_OPS_LARGE["gr83"]
    for R in (small, large, RING_OPS_LARGE["gr42_2"]):
        assert all(type(a.data) is int for a in (R.zero, R.one, R.alpha, R.pi_element))
        assert [a.data for a in R.elements()] == list(range(R.size))
    # an entry is computed when it is first asked for, and kept
    a = built.alpha.data
    square = built._payload_mul(a, a)
    assert [i for i, z in enumerate(built._mul_table) if z is not None] == [a * built.size + a]
    assert built._mul_table[a * built.size + a] == square == (built.alpha * built.alpha).data
    assert len(RING_OPS_LARGE["gr42_2"]._mul_table) == 256**2
    assert large.size == 512 and large._mul_table is None


def test_coordinate_code_matches_the_tables(monkeypatch):
    # with the table cap at 0 every Galois ring computes on coordinates, and
    # each of its golden records must come out byte for byte the same
    monkeypatch.setattr(rings, "_OP_TABLE_CAP", 0)
    golden = {line.rstrip(",") for line in RING_OPS_GOLDEN.read_text().splitlines()}
    checked = 0
    for name, R in {**RING_OPS_RINGS, **RING_OPS_LARGE}.items():
        if not isinstance(R, ExtensionChainRing):
            continue
        fresh = ring_from_json(R.to_json())
        for line in ring_ops_records(name, fresh):
            assert line in golden, (name, line[:80])
            checked += 1
        assert fresh._mul_table is None and fresh._quo_tables is None
    assert checked == 3 * 12 + 2 * 6


RESIDUE_SOLVER_RINGS = {
    "z4": Zpk(2, 2),
    "z8": Zpk(2, 3),
    "z9": Zpk(3, 2),
    "z25": Zpk(5, 2),
    "z27": Zpk(3, 3),
    # Γ's payloads [0, 1, 18, 19, 30, 31, 48] do not ascend with their
    # residues [0, 1, 4, 5, 2, 3, 6]
    "z49": Zpk(7, 2),
    "gr42": galois_ring(2, 2, 2),
    "gr83": galois_ring(2, 3, 3),
    "gr92": galois_ring(3, 2, 2),
}


def residue_systems(R, rng: random.Random):
    """Seeded Jacobians (rows of payloads, read mod π) of 1-7 rows in 1-4
    columns, q^k <= 512: random ones, rank-deficient ones (each row a
    combination of two), all-zero ones (multiples of π) and overdetermined
    ones."""
    pi = R.pi_element.data
    most = max(k for k in range(1, 5) if R.q**k <= 512)

    def draw():
        return rng.randrange(R.size)

    for kind in ("random", "deficient", "zero", "overdetermined") * 6:
        k = rng.randint(1, most)
        m = rng.randint(k + 1, k + 3) if kind == "overdetermined" else rng.randint(1, 4)
        if kind == "zero":
            rows = [[R._payload_mul(pi, draw()) for _ in range(k)] for _ in range(m)]
        elif kind == "deficient":
            basis = [[draw() for _ in range(k)] for _ in range(2)]
            rows = []
            for _ in range(m):
                a, b = draw(), draw()
                rows.append([R._payload_add(R._payload_mul(a, u), R._payload_mul(b, v)) for u, v in zip(*basis)])
        else:
            rows = [[draw() for _ in range(k)] for _ in range(m)]
        yield kind, rows


def residue_right_hand_sides(R, rows, rng: random.Random):
    """Level j and values divisible by π^j for three right-hand sides: one
    planted at a point of Γ^k (consistent), one random (often inconsistent
    where the rows are deficient) and zero; each value carries π^(j+1)
    noise, which the solver must read past."""
    gamma = [g.data for g in R.teichmuller_set()]
    mul, add, neg = R._payload_mul, R._payload_add, R._payload_neg
    k = len(rows[0])
    j = rng.randrange(R.nu)
    pj, pj1 = R._payload_pi_power(j), R._payload_pi_power(j + 1)
    z = [rng.choice(gamma) for _ in range(k)]
    planted = [neg(R.sum(RingElement(R, mul(a, b)) for a, b in zip(row, z)).data) for row in rows]
    randoms = [rng.randrange(R.size) for _ in rows]
    for b in (planted, randoms, [R._zero_data] * len(rows)):
        yield j, [add(mul(pj, x), mul(pj1, rng.randrange(R.size))) for x in b]


def brute_residue_solutions(R, rows, values, j):
    """Every z in Γ^k with rows·z + values/π^j ≡ 0 (mod π), by enumeration."""
    gamma = [g.data for g in R.teichmuller_set()]
    add, mul, residue = R._payload_add, R._payload_mul, R._payload_residue
    zero = residue(R._zero_data)
    out = []
    for z in itertools.product(gamma, repeat=len(rows[0])):
        for row, v in zip(rows, values):
            total = R._payload_quo_pi(v, j)
            for a, x in zip(row, z):
                total = add(total, mul(a, x))
            if residue(total) != zero:
                break
        else:
            out.append(z)
    return out


@pytest.mark.parametrize("name", sorted(RESIDUE_SOLVER_RINGS))
def test_residue_solver_equals_enumeration(name):
    # the lift factors each residue root's Jacobian once and replays the
    # factoring on every right-hand side: Zpk's native-int override, the
    # generic kernel on the same ring and enumeration of Γ^k give the same
    # solutions, in the same order for the two kernels
    R = RESIDUE_SOLVER_RINGS[name]
    rng = random.Random(f"residue-solver:{name}")
    if name == "z49":
        assert [g.data for g in R.teichmuller_set()] == [0, 1, 18, 19, 30, 31, 48]
    seen = {"empty": 0, "unique": 0, "several": 0}
    for kind, rows in residue_systems(R, rng):
        solvers = [R._residue_solver(rows)]
        if isinstance(R, Zpk):
            solvers.append(rings.ChainRing._residue_solver(R, rows))
        for j, values in residue_right_hand_sides(R, rows, rng):
            expected = brute_residue_solutions(R, rows, values, j)
            answers = [list(solve(values, j)) for solve in solvers]
            assert all(a == answers[0] for a in answers)
            assert sorted(answers[0]) == expected
            seen["empty" if not expected else "unique" if len(expected) == 1 else "several"] += 1
    assert all(seen.values())
