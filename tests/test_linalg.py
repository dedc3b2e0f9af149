import itertools
import json
import random
from pathlib import Path

import pytest

from chainring.errors import DomainError, NotChainRing, NotFree, NotInvertible, ParseError, RankTooLarge
from chainring.linalg import (
    RingMatrix,
    determinant,
    free_envelope,
    hermite_form,
    inverse,
    is_free_rows,
    kernel,
    parity_check,
    rank,
    rank_profile,
    rank_distance,
    reduced_row_echelon,
    row_membership,
    smith_normal_form,
    split_matrix,
    standard_form,
)
from chainring.oracles import brute_rank, module_elements
from chainring.rings import ChainRing, Zpk, galois_ring, integer_ring


def rand_matrix(ring, m, n, rng):
    elems = list(ring.elements())
    return RingMatrix(ring, [[rng.choice(elems) for _ in range(n)] for _ in range(m)])


def test_rank_examples(z8):
    A = RingMatrix(z8, [[2, 0], [0, 4]])
    assert rank(A) == 2
    assert rank(A.scale(6)) == 1
    assert rank(RingMatrix.zeros(z8, 3, 3)) == 0
    assert rank(RingMatrix.identity(z8, 4)) == 4


def test_rank_matches_brute_force(z4):
    rng = random.Random(12)
    for _ in range(15):
        A = rand_matrix(z4, 2, 3, rng)
        assert rank(A) == brute_rank(A)


def test_smith_form_exact(z8, z9):
    rng = random.Random(5)
    for ring in (z8, z9):
        for _ in range(10):
            A = rand_matrix(ring, 3, 4, rng)
            dec = smith_normal_form(A)
            assert (dec.u @ dec.d @ dec.v) == A
            assert (dec.u @ dec.u_inv) == RingMatrix.identity(ring, 3)
            assert (dec.v @ dec.v_inv) == RingMatrix.identity(ring, 4)
            diag = dec.diagonal()
            vals = [ring.valuation(x) for x in diag]
            assert vals == sorted(vals)  # divisibility chain
            for i in range(3):
                for j in range(4):
                    if i != j:
                        assert dec.d.rows[i][j].is_zero()


def test_smith_already_diagonal(z8):
    A = RingMatrix(z8, [[2, 0], [0, 4]])
    dec = smith_normal_form(A)
    assert [x.data for x in dec.diagonal()] == [2, 4]


def test_hermite_exact_and_identity(z8):
    rng = random.Random(8)
    for _ in range(10):
        A = rand_matrix(z8, 3, 4, rng)
        dec = hermite_form(A)
        assert (dec.p @ dec.t) == A
        assert (dec.p @ dec.p_inv) == RingMatrix.identity(z8, 3)
        for i, row in enumerate(dec.t.rows):
            nonzero = [j for j, x in enumerate(row) if not x.is_zero()]
            if not nonzero:
                continue
            # the pivot is the row's first nonzero entry: zero below it and
            # reduced entries above
            j = nonzero[0]
            e = z8.valuation(dec.t.rows[i][j])
            for i2 in range(i + 1, 3):
                assert dec.t.rows[i2][j].is_zero()
            for i2 in range(i):
                assert z8.reduce_mod_pi_power(dec.t.rows[i2][j], e) == dec.t.rows[i2][j]
    I = RingMatrix.identity(z8, 3)
    dec = hermite_form(I)
    assert dec.p == I and dec.t == I


def test_echelon_is_built_without_its_transforms(z8, z9, gr42, monkeypatch):
    """Reading T never builds P: with the transforms refused, hermite_form(A).t
    and reduced_row_echelon(A) still come out, the latter being T's nonzero
    rows, which come first; the transforms replayed afterwards satisfy
    P^-1 @ A == T, P @ T == A and P @ P^-1 == I."""
    import chainring.linalg as linalg

    rng = random.Random(31)
    cases = []
    for ring in (z8, z9, gr42, integer_ring(12)):
        for m, n in ((3, 4), (4, 3), (1, 5), (5, 1), (2, 2)):
            A = rand_matrix(ring, m, n, rng)
            rows = [list(row) for row in A.rows]
            rows[rng.randrange(m)] = [ring.zero] * n
            cases += [A, RingMatrix(ring, rows), RingMatrix.zeros(ring, m, n)]

    def refuse(*args):
        raise AssertionError("transforms built for a caller that reads only T")

    monkeypatch.setattr(linalg, "_row_transforms", refuse)
    echelons = [(A, hermite_form(A).t, reduced_row_echelon(A)) for A in cases]
    monkeypatch.undo()
    for A, T, E in echelons:
        nonzero = tuple(row for row in T.rows if any(not x.is_zero() for x in row))
        assert E.rows == nonzero == T.rows[: len(nonzero)]
        dec = hermite_form(A)
        assert dec.t == T
        assert dec.p_inv @ A == T
        assert dec.p @ T == A
        assert dec.p @ dec.p_inv == RingMatrix.identity(A.ring, A.m)


def test_rank_is_read_without_smith_transforms(z8, gr42, monkeypatch):
    """rank, rank_profile, is_free_rows and the Smith diagonal never build U,
    V or their inverses; read afterwards, they satisfy A = U @ D @ V with
    U @ U^-1 and V @ V^-1 the identity, over chain rings and over Z12."""
    import chainring.linalg as linalg

    rng = random.Random(17)
    cases = [
        rand_matrix(ring, m, n, rng)
        for ring in (z8, gr42, integer_ring(12))
        for m, n in ((2, 3), (3, 2), (3, 3))
    ]

    def refuse(*args):
        raise AssertionError("transforms built for a caller that reads only D")

    monkeypatch.setattr(linalg, "_row_transforms", refuse)
    read = [
        (rank(A), rank_profile(A), is_free_rows(A), smith_normal_form(A)) for A in cases
    ]
    monkeypatch.undo()
    for A, (r, profile, free, dec) in zip(cases, read):
        assert r == max(profile)
        assert free == (len(module_elements(A.ring, A.rows)) == A.ring.size**A.m)
        assert dec.u @ dec.d @ dec.v == A
        assert dec.u @ dec.u_inv == RingMatrix.identity(A.ring, A.m)
        assert dec.v @ dec.v_inv == RingMatrix.identity(A.ring, A.n)


def test_kernel_examples(z8):
    gens = kernel(RingMatrix(z8, [[2]]))
    assert [[x.data for x in g] for g in gens] == [[4]]
    assert kernel(RingMatrix.identity(z8, 2)) == []


def test_kernel_matches_enumeration(z4):
    rng = random.Random(3)
    for _ in range(10):
        A = rand_matrix(z4, 2, 3, rng)
        gens = kernel(A)
        expected = {
            v
            for v in itertools.product(list(z4.elements()), repeat=3)
            if all(x.is_zero() for x in A.mul_vector(v))
        }
        if gens:
            got = module_elements(z4, gens)
        else:
            got = {(z4.zero,) * 3}
        assert got == expected


def test_free_envelope_examples(z8):
    E = RingMatrix(z8, [[2, 0, 4]])
    B = free_envelope(E, 1)
    assert [[x.data for x in row] for row in B.rows] == [[1, 0, 2]]
    assert row_membership(B, E.rows[0])

    # a free row space of full rank is its own unique envelope
    A = RingMatrix(z8, [[1, 0, 2], [0, 1, 3]])
    B2 = free_envelope(A, 2)
    assert all(row_membership(B2, row) for row in A.rows)
    assert all(row_membership(A, row) for row in B2.rows)


def test_free_envelope_contains_rows(z4):
    rng = random.Random(77)
    for _ in range(10):
        v = [rng.choice(list(z4.elements())) for _ in range(3)]
        A = RingMatrix(z4, [v])
        if rank(A) > 1:
            continue
        B = free_envelope(A, 1)
        assert row_membership(B, A.rows[0])


def test_free_envelope_rank_too_large(z8):
    A = RingMatrix(z8, [[1, 0, 0], [0, 1, 0]])
    with pytest.raises(RankTooLarge):
        free_envelope(A, 1)
    with pytest.raises(RankTooLarge):
        free_envelope(A, 4)


def test_parity_check_examples(z8):
    B = RingMatrix(z8, [[1, 0, 2]])
    Z = parity_check(B)
    assert [[x.data for x in row] for row in Z.rows] == [[0, 6], [1, 0], [0, 1]]
    for y in itertools.product(list(z8.elements()), repeat=3):
        in_row = row_membership(B, y)
        yz_zero = all(x.is_zero() for x in Z.transpose().mul_vector(y))
        assert in_row == yz_zero

    B2 = RingMatrix(z8, [[1, 0, 0], [0, 1, 0]])
    Z2 = parity_check(B2)
    assert [[x.data for x in row] for row in Z2.rows] == [[0], [0], [1]]


def test_parity_check_full_equivalence(z9):
    rng = random.Random(4)
    found = 0
    while found < 5:
        B = rand_matrix(z9, 1, 3, rng)
        if not is_free_rows(B):
            continue
        found += 1
        Z = parity_check(B)
        for y in itertools.product(list(z9.elements()), repeat=3):
            lhs = row_membership(B, y)
            rhs = all(x.is_zero() for x in Z.transpose().mul_vector(y))
            assert lhs == rhs


def test_parity_check_not_free(z8):
    with pytest.raises(NotFree):
        parity_check(RingMatrix(z8, [[2, 0, 4]]))


def test_standard_form(z8):
    rng = random.Random(6)
    done = 0
    while done < 8:
        Z = rand_matrix(z8, 3, 2, rng)
        try:
            P, Zp, Q = standard_form(Z)
        except NotFree:
            continue
        done += 1
        stacked = RingMatrix.identity(z8, 2).vstack(Zp)
        assert (P @ stacked @ Q) == Z
        # P is a permutation matrix
        for row in P.rows:
            assert sum(1 for x in row if not x.is_zero()) == 1
    # already standard: the decomposition is the trivial one
    Zs = RingMatrix.identity(z8, 2).vstack(RingMatrix(z8, [[3, 5]]))
    P, Zp, Q = standard_form(Zs)
    assert P == RingMatrix.identity(z8, 3)
    assert Q == RingMatrix.identity(z8, 2)
    assert Zp == RingMatrix(z8, [[3, 5]])


def test_standard_form_z6_counterexample():
    z6 = integer_ring(6)
    Z = RingMatrix(z6, [[z6.from_int(2)], [z6.from_int(3)]])
    with pytest.raises(NotChainRing):
        standard_form(Z)


def test_rank_metric_axioms(z8):
    rng = random.Random(99)
    for _ in range(200):
        A = rand_matrix(z8, 2, 2, rng)
        B = rand_matrix(z8, 2, 2, rng)
        C = rand_matrix(z8, 2, 2, rng)
        assert rank_distance(A, A) == 0
        dab = rank_distance(A, B)
        assert dab == rank_distance(B, A)
        if A != B:
            assert dab >= 1
        assert rank_distance(A, C) <= dab + rank_distance(B, C)


def test_rank_transpose_invariance(z8):
    rng = random.Random(13)
    for _ in range(30):
        A = rand_matrix(z8, 2, 3, rng)
        assert rank(A) == rank(A.transpose())


def test_row_span_preserved_by_invertible(z8):
    rng = random.Random(21)
    done = 0
    while done < 5:
        U = rand_matrix(z8, 2, 2, rng)
        try:
            inverse(U)
        except NotInvertible:
            continue
        done += 1
        A = rand_matrix(z8, 2, 3, rng)
        UA = U @ A
        for y in itertools.product(list(z8.elements()), repeat=3):
            assert row_membership(A, y) == row_membership(UA, y)


def test_inverse(z8):
    A = RingMatrix(z8, [[1, 2], [3, 7]])
    Ainv = inverse(A)
    assert (A @ Ainv) == RingMatrix.identity(z8, 2)
    with pytest.raises(NotInvertible):
        inverse(RingMatrix(z8, [[2, 0], [0, 1]]))


def test_determinant_matches_cofactor(z8):
    A = RingMatrix(z8, [[1, 2, 3], [4, 5, 6], [7, 1, 2]])
    det = determinant(A)
    brute = z8.zero
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign =-sign
        term = z8.one
        for i in range(3):
            term = z8.mul(term, A.rows[i][perm[i]])
        brute = z8.add(brute, term if sign > 0 else z8.neg(term))
    assert det == brute


def test_product_ring_componentwise(z8):
    z6 = integer_ring(6)
    A = RingMatrix(z6, [[z6.from_int(2), z6.from_int(0)], [z6.from_int(0), z6.from_int(3)]])
    dec = smith_normal_form(A)
    assert (dec.u @ dec.d @ dec.v) == A
    assert rank(A) == max(rank_profile(A))
    assert len(rank_profile(A)) == 2


# Z6 = Z2 x Z3 and Z12 = Z4 x Z3: kernel, row_membership and free_envelope
# work component by component there, checked against enumeration
@pytest.mark.parametrize("n, seed", [(6, 11), (12, 12)])
def test_product_ring_kernel_matches_enumeration(n, seed):
    ring = integer_ring(n)
    rng = random.Random(seed)
    for _ in range(4):
        A = rand_matrix(ring, 2, 3, rng)
        gens = kernel(A)
        assert all(all(x.is_zero() for x in A.mul_vector(u)) for u in gens)
        expected = {
            v
            for v in itertools.product(list(ring.elements()), repeat=3)
            if all(x.is_zero() for x in A.mul_vector(v))
        }
        assert module_elements(ring, gens) == expected


@pytest.mark.parametrize("n, seed", [(6, 21), (12, 22)])
def test_product_ring_row_membership_matches_enumeration(n, seed):
    ring = integer_ring(n)
    rng = random.Random(seed)
    for _ in range(2):
        B = rand_matrix(ring, 2, 3, rng)
        span = module_elements(ring, B.rows)
        for y in itertools.product(list(ring.elements()), repeat=3):
            assert row_membership(B, y) == (y in span)


@pytest.mark.parametrize("n, seed", [(6, 31), (12, 32)])
@pytest.mark.parametrize("r", [2, 3])
def test_product_ring_free_envelope_components(n, seed, r):
    ring = integer_ring(n)
    rng = random.Random(seed)
    for _ in range(4):
        A = rand_matrix(ring, 2, 3, rng)
        B = free_envelope(A, r)
        assert B.m == r
        for A_c, B_c in zip(split_matrix(A), split_matrix(B)):
            assert is_free_rows(B_c)
            assert all(row_membership(B_c, row) for row in A_c.rows)
        assert module_elements(ring, A.rows) <= module_elements(ring, B.rows)


def test_matrix_entries_are_checked_and_coerced(z8, z9):
    own = z8.from_int(3)
    twin = Zpk(2, 3).from_int(5)  # a structurally equal ring
    A = RingMatrix(z8, [[1, -1], [own, twin]])
    assert [[x.data for x in row] for row in A.rows] == [[1, 7], [3, 5]]
    assert A.rows[1][0] is own and A.rows[0][0].ring is z8
    with pytest.raises(DomainError, match="used in"):
        RingMatrix(z8, [[1, z9.one]])
    with pytest.raises(DomainError, match="cannot coerce"):
        RingMatrix(z8, [[1.0]])


def test_matrix_json_roundtrip(z8):
    A = RingMatrix(z8, [[1, 2], [3, 4]])
    assert RingMatrix.from_json(A.to_json()) == A


def test_rre_trims_zero_rows(z8):
    A = RingMatrix(z8, [[2, 4], [4, 0], [6, 4]])
    E = reduced_row_echelon(A)
    assert all(any(not x.is_zero() for x in row) for row in E.rows)
    # same row module
    for y in itertools.product(list(z8.elements()), repeat=2):
        assert row_membership(A, y) == row_membership(E, y)


ECHELON_GOLDEN = Path(__file__).resolve().parent / "goldens" / "echelon_forms.json"
ECHELON_RINGS = {
    "z4": Zpk(2, 2),
    "z8": Zpk(2, 3),
    "z9": Zpk(3, 2),
    "z25": Zpk(5, 2),
    "gr42": galois_ring(2, 2, 2),
    "z12": integer_ring(12),
}


def echelon_inputs():
    """Seeded matrices over each ring: random ones of several shapes, one
    of non-units only (non-unit pivots, entries above them to reduce), one
    with a zero row and a zero column, all-zero, identity, 1x1 and empty."""
    rng = random.Random(2026)
    for name, ring in ECHELON_RINGS.items():
        elems = list(ring.elements())
        non_units = [x for x in elems if not ring.is_unit(x)]

        def rand(m, n, pool=elems):
            return [[rng.choice(pool) for _ in range(n)] for _ in range(m)]

        for m, n in ((3, 4), (4, 3), (4, 4), (2, 6), (6, 2)):
            yield name, rand(m, n)
        yield name, rand(4, 5, non_units)
        holed = rand(4, 5)
        holed[1] = [ring.zero] * 5
        for row in holed:
            row[2] = ring.zero
        yield name, holed
        yield name, [[ring.zero] * 3 for _ in range(2)]
        yield name, [[ring.one if i == j else ring.zero for j in range(3)] for i in range(3)]
        yield name, rand(1, 1)
        yield name, []


def echelon_record(name, rows):
    ring = ECHELON_RINGS[name]
    A = RingMatrix(ring, rows)
    h = hermite_form(A)
    s = smith_normal_form(A)

    def data(M):
        return M.to_json()["data"]

    return {
        "ring": name,
        "input": data(A),
        "hermite": {"t": data(h.t), "p": data(h.p), "p_inv": data(h.p_inv)},
        "smith": {k: data(getattr(s, k)) for k in ("u", "d", "v", "u_inv", "v_inv")},
        "rre": data(reduced_row_echelon(A)),
    }


def render_echelon_golden() -> str:
    records = [echelon_record(name, rows) for name, rows in echelon_inputs()]
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records) + "\n]\n"


def test_echelon_forms_match_golden():
    # Hermite (T, P, P^-1), Smith (U, D, V, U^-1, V^-1) and the trimmed
    # echelon of seeded matrices over Z4, Z8, Z9, Z25, GR(4,2) and Z12,
    # byte for byte as the boxed elimination produced them
    assert render_echelon_golden() == ECHELON_GOLDEN.read_text()


def sparse_matrix(ring, m, n, density, rng):
    """A seeded m x n matrix, each entry nonzero with probability density."""
    nonzero = [x for x in ring.elements() if not x.is_zero()]
    return RingMatrix(
        ring, [[rng.choice(nonzero) if rng.random() < density else ring.zero for _ in range(n)] for _ in range(m)]
    )


def test_echelon_reads_no_zero_entry(z8, gr42, monkeypatch):
    """ChainRing's sparse kernel takes no quotient of a zero entry, so no
    row is reduced for a zero pivot-column entry, and it logs one operation
    per row update; its rows agree with hermite_form's T.  Zpk's native
    kernel, which calls no payload operation, leaves the same rows and log."""
    import chainring.linalg as linalg

    rng = random.Random(41)
    for ring in (z8, gr42):
        zero = ring._zero_data
        quo, addmul = ring._payload_quo_pi, ring._payload_addmul
        updates = []

        def checked_quo(x, v):
            assert x != zero, "quotient of a zero entry"
            return quo(x, v)

        def counted_addmul(row_i, c, row_j):
            updates.append(c)
            return addmul(row_i, c, row_j)

        monkeypatch.setattr(ring, "_payload_quo_pi", checked_quo)
        monkeypatch.setattr(ring, "_payload_addmul", counted_addmul)
        for m, n, density in ((12, 10, 0.15), (8, 14, 0.3), (5, 5, 0.9)):
            A = sparse_matrix(ring, m, n, density, rng)
            d = [dict(row) for row in A._rows]
            ops = []
            updates.clear()
            ChainRing._payload_echelon(ring, d, ops)
            assert all(zero not in row.values() for row in d)
            assert len(updates) == sum(1 for _, j, c in ops if j is not None and c is not None)
            assert RingMatrix._from_payloads(ring, d, n) == hermite_form(A).t
            own, own_ops = [dict(row) for row in A._rows], []
            linalg.payload_echelon(ring, own, own_ops)
            assert (own, own_ops) == (d, ops)
        monkeypatch.undo()


def test_echelon_last_columns_change_only_earlier_pivot_rows(z8, gr42):
    """With last = range(k, n), the rows pivoted in a column >= k come out
    as in the full reduced form; the others keep their pivot column.  With
    last = range(lo, hi) the rows are those of a relabelled copy with the
    columns lo..hi-1 moved to the end and last at the end."""
    import chainring.linalg as linalg

    rng = random.Random(43)
    for ring in (z8, gr42):
        for m, n, density in ((12, 10, 0.2), (9, 12, 0.35), (6, 6, 0.8)):
            A = sparse_matrix(ring, m, n, density, rng)
            full = [dict(row) for row in A._rows]
            linalg.payload_echelon(ring, full)
            for k in range(n + 1):
                part = [dict(row) for row in A._rows]
                linalg.payload_echelon(ring, part, last=range(k, n))
                assert [min(r, default=None) for r in part] == [min(r, default=None) for r in full]
                assert [r for r in part if r and min(r) >= k] == [r for r in full if r and min(r) >= k]
            for lo, hi in ((0, n // 2), (n // 3, 2 * n // 3), (1, n - 1)):
                end = n - (hi - lo)
                perm = [*range(lo), *range(end, n), *range(lo, end)]
                moved = [{perm[j]: c for j, c in row.items()} for row in A._rows]
                linalg.payload_echelon(ring, moved, last=range(end, n))
                part = [dict(row) for row in A._rows]
                linalg.payload_echelon(ring, part, last=range(lo, hi))
                assert [{perm[j]: c for j, c in row.items()} for row in part] == moved


# Z4, Z8, Z9, Z25, Z27 and Z49
KERNEL_RINGS = ((2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2))


def kernel_rows(R, rng):
    """Seeded sparse payload rows of 0-12 rows and columns, sparse or dense,
    their entries units and nonzero multiples of p alike, and the width."""
    m, n = rng.randrange(13), rng.randrange(13)
    density = rng.choice((0.15, 0.5, 0.95))
    M, p = R.modulus, R.p

    def entry():
        return rng.randrange(1, M) if rng.random() < 0.5 else p * rng.randrange(1, M // p)

    return [{j: entry() for j in range(n) if rng.random() < density} for _ in range(m)], n


@pytest.mark.parametrize("p, k", KERNEL_RINGS, ids=[f"z{p**k}" for p, k in KERNEL_RINGS])
def test_zpk_kernels_match_the_generic_ones(p, k):
    """Zpk's native kernels, run through the linalg entry points, against
    ChainRing's on the same ring: the same rows (in the same dict order),
    operation logs and return values, with and without the logs."""
    import chainring.linalg as linalg

    R = Zpk(p, k)
    assert type(R)._payload_echelon is not ChainRing._payload_echelon
    assert type(R)._payload_smith is not ChainRing._payload_smith
    rng = random.Random(p**k)

    def echelon(kernel, rows, logged, last):
        d, ops = [dict(row) for row in rows], [] if logged else None
        out = kernel(R, d, ops, last)
        return [list(row.items()) for row in d], ops, out

    def smith(kernel, rows, n, row_logged, col_logged):
        d = [dict(row) for row in rows]
        row_ops, col_ops = [] if row_logged else None, [] if col_logged else None
        out = kernel(R, d, n, row_ops, col_ops)
        return [list(row.items()) for row in d], row_ops, col_ops, out

    for _ in range(60):
        rows, n = kernel_rows(R, rng)
        for logged in (True, False):
            for last in (None, range(n // 2, n), range(n, n), range(n // 3, 2 * n // 3)):
                native = echelon(linalg.payload_echelon, rows, logged, last)
                assert native == echelon(ChainRing._payload_echelon, rows, logged, last)
        for logs in ((True, True), (False, False), (True, False), (False, True)):
            assert smith(linalg.payload_smith, rows, n, *logs) == smith(ChainRing._payload_smith, rows, n, *logs)


# -- the payload-row storage against its boxed definitions ----------------------------

LOCAL_CUBIC = Path(__file__).resolve().parent.parent / "instances" / "local_cubic.json"


def storage_ring(name):
    from chainring.localring import presentation_from_json

    if name == "local":
        return presentation_from_json(json.loads(LOCAL_CUBIC.read_text())["ring"])
    if name.startswith("gr"):
        return galois_ring(2, *{"gr42": (2, 2), "gr83": (3, 3)}[name])
    return integer_ring(int(name[1:]))


STORAGE_RINGS = ("z4", "z8", "z9", "gr42", "gr83", "z6", "z12", "local")


def test_storage_rings_cover_a_ring_without_operation_tables():
    assert storage_ring("gr83")._mul_table is None and storage_ring("gr42")._mul_table is not None


def boxed_matrix(R, m, n, rng, elems):
    """An m x n matrix with about half its entries zero, and its entries."""
    rows = [[rng.choice(elems) if rng.random() < 0.5 else R.zero for _ in range(n)] for _ in range(m)]
    A = RingMatrix(R, rows) if m else RingMatrix.zeros(R, 0, n)
    return A, rows


def assert_matrix(M, R, rows, m, n):
    assert (M.ring, M.m, M.n) == (R, m, n)
    assert [list(row) for row in M.rows] == rows
    assert all(M[i, j] == rows[i][j] for i in range(m) for j in range(n))


@pytest.mark.parametrize("name", STORAGE_RINGS)
def test_matrix_operations_match_their_boxed_definitions(name):
    R = storage_ring(name)
    rng = random.Random(STORAGE_RINGS.index(name))
    elems = [x for x in R.elements() if not x.is_zero()]
    if len(elems) > 64:
        elems = rng.sample(elems, 64)
    for _ in range(40):
        m, n, p = (rng.randrange(4) for _ in range(3))
        A, a = boxed_matrix(R, m, n, rng, elems)
        B, b = boxed_matrix(R, m, n, rng, elems)
        C, c = boxed_matrix(R, n, p, rng, elems)
        D, d = boxed_matrix(R, rng.randrange(3), n, rng, elems)
        s = rng.choice(elems)
        for op, M in ((R.add, A + B), (R.sub, A - B)):
            assert_matrix(M, R, [[op(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(a, b)], m, n)
        assert_matrix(-A, R, [[R.neg(x) for x in row] for row in a], m, n)
        assert_matrix(A.scale(s), R, [[R.mul(s, x) for x in row] for row in a], m, n)
        product = [[R.sum(R.mul(a[i][t], c[t][j]) for t in range(n)) for j in range(p)] for i in range(m)]
        assert_matrix(A @ C, R, product, m, p)
        assert_matrix(A.transpose(), R, [[a[i][j] for i in range(m)] for j in range(n)], n, m)
        assert A.transpose().transpose() == A
        picked_rows = [rng.randrange(m) for _ in range(rng.randrange(3))] if m else []
        picked_cols = [rng.randrange(n) for _ in range(rng.randrange(3))] if n else []
        sub = [[a[i][j] for j in picked_cols] for i in picked_rows]
        assert_matrix(A.submatrix(picked_rows, picked_cols), R, sub, len(picked_rows), len(picked_cols))
        assert_matrix(A.vstack(D), R, a + d, m + D.m, n)
        u = [rng.choice(elems) for _ in range(n)]
        w = [rng.choice(elems) for _ in range(m)]
        assert A.mul_vector(u) == tuple(R.sum(R.mul(a[i][t], u[t]) for t in range(n)) for i in range(m))
        assert A.vector_mul(w) == tuple(R.sum(R.mul(w[t], a[t][j]) for t in range(m)) for j in range(n))
        assert A.is_zero() == all(x.is_zero() for row in a for x in row)
        assert (A == B) == (a == b)
        # equal matrices built by other routes are equal and hash alike
        for twin in (A + RingMatrix.zeros(R, m, n), A.scale(1), -(-A)):
            assert twin == A and hash(twin) == hash(A)
        if m:
            assert RingMatrix(R, A.rows) == A and hash(RingMatrix(R, A.rows)) == hash(A)
        assert (RingMatrix.zeros(R, m, n + 1) == RingMatrix.zeros(R, m, n)) is False


@pytest.mark.parametrize("name", STORAGE_RINGS)
def test_matrix_json_roundtrip_over_every_ring_kind(name):
    R = storage_ring(name)
    rng = random.Random(70 + STORAGE_RINGS.index(name))
    elems = list(R.elements())
    mats = [
        RingMatrix(R, [[rng.choice(elems) for _ in range(n)] for _ in range(m)])
        for m, n in ((1, 1), (2, 3), (3, 2), (2, 0))
    ]
    # the empty shapes: a 0 x n matrix has no row to carry its width
    mats += [RingMatrix.zeros(R, m, n) for m, n in ((0, 3), (3, 0), (0, 0))]
    if name != "local":  # free_envelope needs a chain ring or a product of them
        envelope = free_envelope(RingMatrix.zeros(R, 2, 3), 0)
        assert (envelope.m, envelope.n) == (0, 3)
        mats.append(envelope)
    for A in mats:
        B = RingMatrix.from_json(json.loads(json.dumps(A.to_json())))
        assert B == A and (B.m, B.n) == (A.m, A.n)
        assert RingMatrix.from_json(A.to_json(), R) == A


def test_matrix_json_width_of_no_rows_is_checked(z8):
    obj = RingMatrix.zeros(z8, 0, 3).to_json()
    for cols, message in ((-1, "must not be negative"), ("3", "must be an integer"), (True, "must be an integer")):
        with pytest.raises(ParseError, match=message):
            RingMatrix.from_json(dict(obj, cols=cols))
    with pytest.raises(ParseError, match="does not match"):
        RingMatrix.from_json(dict(obj, rows=1))


@pytest.mark.parametrize("name", [name for name in STORAGE_RINGS if name != "local"])
def test_kernels_leave_their_input_rows_unchanged(name):
    R = storage_ring(name)
    rng = random.Random(90 + STORAGE_RINGS.index(name))
    elems = [x for x in R.elements() if not x.is_zero()]
    if len(elems) > 64:
        elems = rng.sample(elems, 64)
    for _ in range(12):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        A, _ = boxed_matrix(R, m, n, rng, elems)
        before = [dict(row) for row in A._rows]
        dec, herm = smith_normal_form(A), hermite_form(A)
        # the transforms replay the logged operations on fresh rows
        assert dec.u @ dec.d @ dec.v == A and herm.p @ herm.t == A
        kernel(A)
        free_envelope(A, rank(A))
        assert list(A._rows) == before


def test_empty_dimensions_keep_their_shape(z8):
    assert (RingMatrix.zeros(z8, 0, 3).m, RingMatrix.zeros(z8, 0, 3).n) == (0, 3)
    assert (RingMatrix(z8, []).m, RingMatrix(z8, []).n) == (0, 0)
    # the transpose of a square free B's 3 x 0 parity check is 0 x 3
    Z = parity_check(RingMatrix.identity(z8, 3))
    assert ((Z.m, Z.n), (Z.transpose().m, Z.transpose().n)) == ((3, 0), (0, 3))
    assert RingMatrix.zeros(z8, 2, 0) != RingMatrix.zeros(z8, 2, 3)
    for m, k, n in itertools.product(range(3), repeat=3):
        A = RingMatrix.zeros(z8, m, k)
        assert A.transpose().transpose() == A and (A.transpose().m, A.transpose().n) == (k, m)
        assert A @ RingMatrix.zeros(z8, k, n) == RingMatrix.zeros(z8, m, n)
