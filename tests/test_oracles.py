import pytest

from chainring.errors import BudgetExceeded
from chainring.linalg import RingMatrix, rank
from chainring.minrank import MinRankInstance
from chainring.oracles import (
    OracleBudget,
    brute_free_envelopes,
    brute_minrank,
    brute_rank,
    brute_solve,
    brute_vanishing_poly,
    brute_vector_rank,
    module_elements,
)
from chainring.polys import PolyRing
from chainring.rings import Zpk


def test_brute_rank_examples(z8):
    A = RingMatrix(z8, [[2, 0], [0, 4]])
    assert brute_rank(A) == 2
    assert brute_rank(A.scale(6)) == 1
    assert brute_rank(RingMatrix.zeros(z8, 2, 2)) == 0


def test_brute_rank_agrees_with_smith(z4):
    import random

    rng = random.Random(1)
    for _ in range(10):
        A = RingMatrix(z4, [[rng.randrange(4) for _ in range(2)] for _ in range(2)])
        assert brute_rank(A) == rank(A)


def test_brute_solve_unit_ideal(z8):
    P = PolyRing(z8, ("x",), "lex")
    assert brute_solve([P.one]).solutions == frozenset()


def test_brute_solve_sixteen(z8):
    P = PolyRing(z8, ("x", "y"), "lex")
    sols = brute_solve([P.parse("4*x^2*y + y^3 + 2*y + 4"), P.parse("4*x*y^2")])
    assert sols.count() == 16


def test_brute_minrank_all_x(z4):
    Z = RingMatrix.zeros(z4, 2, 2)
    inst = MinRankInstance(z4, (Z,), 1)
    assert len(brute_minrank(inst)) == 4


def test_budget_refusal(z8):
    tiny = OracleBudget(10)
    P = PolyRing(z8, ("x", "y"), "lex")
    with pytest.raises(BudgetExceeded):
        brute_solve([P.parse("x + y")], tiny)
    with pytest.raises(BudgetExceeded):
        brute_minrank(
            MinRankInstance(z8, (RingMatrix.identity(z8, 2),), 1), tiny
        )


def test_brute_vanishing_z8_properties(z8):
    coeffs = brute_vanishing_poly(z8)
    assert len(coeffs) - 1 == 4
    assert coeffs[-1] == z8.one
    for x in z8.elements():
        acc = z8.zero
        for c in reversed(coeffs):
            acc = z8.add(z8.mul(acc, x), c)
        assert acc.is_zero()


def test_brute_vanishing_field():
    f5 = Zpk(5, 1)
    coeffs = brute_vanishing_poly(f5)
    assert len(coeffs) - 1 == 5  # x^5 - x


def test_brute_envelopes_golden(z8):
    E = RingMatrix(z8, [[2, 0, 4]])
    envs = brute_free_envelopes(E, 1)
    gens = [[x.data for x in rows[0]] for rows in envs]
    assert gens == [[1, 0, 2], [1, 0, 6], [1, 4, 2], [1, 4, 6]]


def test_brute_envelope_unique_when_free(z8):
    E = RingMatrix(z8, [[1, 0, 2]])
    envs = brute_free_envelopes(E, 1)
    assert len(envs) == 1
    assert [x.data for x in envs[0][0]] == [1, 0, 2]


def test_brute_vector_rank(ext83):
    u = (ext83.element([2, 0, 6]), ext83.zero, ext83.element([4, 0, 4]))
    assert brute_vector_rank(ext83, u) == 1
    assert brute_vector_rank(ext83, (ext83.zero,)) == 0
    basis = (ext83.one, ext83.alpha, ext83.pow(ext83.alpha, 2))
    assert brute_vector_rank(ext83, basis) == 3


def test_module_elements_closure(z4):
    gens = [(z4.element(2), z4.element(0))]
    mod = module_elements(z4, gens)
    assert {(a.data, b.data) for a, b in mod} == {(0, 0), (2, 0)}


def test_module_elements_refuses_at_insertion(z8):
    # Z8^3 has 512 elements; after the first generator the sumset has 8, so
    # the budget of 20 is crossed inside the second generator's step.  The
    # refusal must come on the insertion that crosses it, not after the whole
    # step has been built.
    sizes = []

    class Recording(OracleBudget):
        def check(self, n, what="enumeration"):
            sizes.append(n)
            super().check(n, what)

    gens = [tuple(z8.element(int(i == j)) for j in range(3)) for i in range(3)]
    with pytest.raises(BudgetExceeded):
        module_elements(z8, gens, Recording(20))
    assert max(sizes) == 21
