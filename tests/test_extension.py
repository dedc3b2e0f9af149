import random

import pytest

from chainring.errors import NotFree
from chainring.extension import (
    ProductExtension,
    build_extension,
    extension_from_json,
    matrix_representation,
    plucker_coordinates,
    vector_rank,
    vector_support,
)
from chainring.linalg import RingMatrix, inverse, rank, row_membership
from chainring.rings import integer_ring
from chainring import _unipoly as up


def test_build_extension_golden(z8, ext83):
    assert [c.data for c in ext83.modulus_poly] == [7, 5, 6, 1]
    a = ext83.alpha
    assert ext83.pow(a, 7) == ext83.one
    for i in range(1, 7):
        assert ext83.pow(a, i) != ext83.one


def test_modulus_divides_unity_polynomial(z8, ext83):
    F = up.x_power_minus_one(z8, 7)
    _, rem = up.divmod_monic(z8, F, list(ext83.modulus_poly))
    assert rem == []
    # reduction mod pi equals the chosen residue polynomial X^3 + X + 1
    hbar = [z8.teichmuller_digit(c).data for c in ext83.modulus_poly]
    assert hbar == [1, 1, 0, 1]


def test_degree_one_extension(z8):
    S = build_extension(z8, 1)
    assert S.size == 8
    x = S.from_int(5)
    assert S.frobenius(x) == x


def test_extension_of_z4(z4, ext42):
    # alpha has order q^m - 1 = 3
    a = ext42.alpha
    assert ext42.pow(a, 3) == ext42.one
    assert a != ext42.one and ext42.pow(a, 2) != ext42.one
    F = up.x_power_minus_one(z4, 3)
    _, rem = up.divmod_monic(z4, F, list(ext42.modulus_poly))
    assert rem == []


def test_frobenius_properties(ext83, z8):
    S = ext83
    a = S.alpha
    assert S.frobenius(a) == S.pow(a, 2)
    assert S.frobenius(S.from_int(5)) == S.from_int(5)
    rng = random.Random(1)
    elems = list(S.elements())
    for _ in range(50):
        x = rng.choice(elems)
        assert S.frobenius(x, 3) == x
        assert S.frobenius(S.frobenius(x, -1)) == x
    for _ in range(30):
        x, y = rng.choice(elems), rng.choice(elems)
        assert S.frobenius(S.add(x, y)) == S.add(
            S.frobenius(x), S.frobenius(y)
        )
        assert S.frobenius(S.mul(x, y)) == S.mul(
            S.frobenius(x), S.frobenius(y)
        )


def test_matrix_representation_rank(ext83):
    S = ext83
    u = (S.element([2, 0, 6]), S.zero, S.element([4, 0, 4]))
    M = matrix_representation(S, u)
    assert M.m == 3 and M.n == 3
    assert [row[0].data for row in M.rows] == [2, 0, 6]
    assert rank(M) == 1
    assert vector_rank(S, u) == 1

    assert vector_rank(S, (S.zero, S.zero)) == 0
    basis_vec = (S.one, S.alpha, S.pow(S.alpha, 2))
    assert vector_rank(S, basis_vec) == 3


def test_vector_support(ext83):
    S = ext83
    u = (S.element([2, 0, 6]), S.zero, S.element([4, 0, 4]))
    gens = vector_support(S, u)
    assert len(gens) == 1
    # the support contains both nonzero entries
    rep = matrix_representation(S, tuple(gens)).transpose()
    assert row_membership(rep, S.coords(u[0]))
    assert row_membership(rep, S.coords(u[2]))


def test_plucker_coordinates(z8):
    B = RingMatrix(z8, [[1, 0, 0], [0, 1, 0]])
    pc = plucker_coordinates(B)
    assert [(s, v.data) for s, v in pc.coords] == [((0, 1), 1), ((0, 2), 0), ((1, 2), 0)]

    row = RingMatrix(z8, [[1, 0, 2]])
    pc2 = plucker_coordinates(row)
    assert [v.data for v in pc2.values()] == [1, 0, 2]


def test_plucker_unit_normalization_invariance(z8):
    rng = random.Random(4)
    B = RingMatrix(z8, [[1, 0, 2], [0, 1, 5]])
    pc = plucker_coordinates(B)
    # multiply by random invertible Q: coordinates match after normalization
    for _ in range(5):
        while True:
            Q = RingMatrix(z8, [[rng.randrange(8) for _ in range(2)] for _ in range(2)])
            try:
                inverse(Q)
                break
            except Exception:
                continue
        pc2 = plucker_coordinates(Q @ B)
        assert pc.coords == pc2.coords


def test_plucker_unit_exists(z8):
    rng = random.Random(9)
    count = 0
    while count < 10:
        B = RingMatrix(z8, [[rng.randrange(8) for _ in range(3)]])
        try:
            pc = plucker_coordinates(B)
        except NotFree:
            continue
        count += 1
        assert any(v.is_unit() for v in pc.values())


def test_plucker_not_free(z8):
    with pytest.raises(NotFree):
        plucker_coordinates(RingMatrix(z8, [[2, 0, 4]]))


def test_rank_envelope_equivalence(ext42):
    """rk(u) <= r iff a rank-r free envelope of the coordinate rows exists."""
    from chainring.linalg import free_envelope
    from chainring.errors import RankTooLarge

    S = ext42
    rng = random.Random(6)
    elems = list(S.elements())
    for _ in range(15):
        u = tuple(rng.choice(elems) for _ in range(3))
        rep = matrix_representation(S, u).transpose()
        rk = vector_rank(S, u)
        for r in range(0, S.degree + 1):
            if r > rep.n:
                continue
            try:
                free_envelope(rep, r)
                ok = True
            except RankTooLarge:
                ok = False
            assert ok == (rk <= r <= rep.n)


def test_extension_json_roundtrip(ext83):
    clone = extension_from_json(ext83.to_json())
    assert clone == ext83
    assert clone.frobenius(clone.alpha) == clone.pow(clone.alpha, 2)


def test_matrix_over_an_extension_json_roundtrip(ext83):
    # a RingMatrix over a Galois extension or a product extension reads
    # back from its JSON; the product's ring is the product of the
    # components' extensions
    pe = extension_from_json({"base": integer_ring(6).to_json(), "m": 2})
    alpha = pe.element([c.alpha for c in pe.components])
    for M in (
        RingMatrix(ext83, [[ext83.one, ext83.alpha], [ext83.zero, ext83.pow(ext83.alpha, 5)]]),
        RingMatrix(pe, [[pe.one]]),
        RingMatrix(pe, [[pe.one, alpha], [pe.mul(alpha, alpha), pe.zero]]),
    ):
        assert RingMatrix.from_json(M.to_json()) == M


def test_product_extension_componentwise():
    z6 = integer_ring(6)
    comps = [build_extension(c, 2) for c in z6.components]
    pe = ProductExtension(comps)
    x = pe.element([c.alpha for c in comps])
    fx = pe.frobenius(x)
    for idx, comp in enumerate(comps):
        assert fx.data[idx] == comp.frobenius(comp.alpha)
    clone = extension_from_json(pe.to_json())
    assert clone == pe
