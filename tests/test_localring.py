import itertools

import pytest

from chainring.errors import NotARing
from chainring.localring import (
    LocalRingPresentation,
    contract_solutions,
    expand_system,
    presentation_from_json,
    quotient_presentation,
    solve_local_system,
)
from chainring.polys import PolyRing
from chainring.rings import Zpk


@pytest.fixture(scope="module")
def paper_ring():
    # Z8[X]/(X^2 + 4, 2X): base Z8, theta^2 = 4, 2*theta = 0
    return quotient_presentation(2, 3, [4, 0, 1], 1)


def test_quotient_presentation_valid(paper_ring):
    assert paper_ring.first_violation() is None
    assert paper_ring.size == 16
    assert paper_ring.ann_exponents == (3, 1)
    theta = paper_ring.basis_element(1)
    assert paper_ring.mul(theta, theta) == paper_ring.element([4, 0])
    assert paper_ring.add(theta, theta) == paper_ring.zero


def test_degenerate_chain_case():
    pres = quotient_presentation(2, 3, [1, 1], 3)  # f = X + 1, R = Z8
    assert pres.first_violation() is None
    assert pres.size == 8
    assert pres.gamma_count == 1


def test_noncommutative_tensor_rejected():
    base = Zpk(2, 3)
    # theta1*theta2 != theta2*theta1
    mul = [
        [[1, 0], [0, 1]],
        [[1, 1], [4, 0]],
    ]
    with pytest.raises(NotARing):
        LocalRingPresentation(base, [3, 1], mul, [1, 0])


def test_is_zero_conditions(paper_ring):
    assert paper_ring.is_zero(paper_ring.element([0, 4]))
    assert paper_ring.is_zero(paper_ring.element([0, 0]))
    assert not paper_ring.is_zero(paper_ring.element([1, 0]))


def test_is_zero_cross_check(paper_ring):
    """Conditions (element is the additive identity) vs the coordinate test."""
    base = paper_ring.base
    thetas = [paper_ring.basis_element(j) for j in range(paper_ring.gamma_count)]
    for coords in itertools.product(base.elements(), repeat=2):
        u = paper_ring.element(list(coords))
        # (a): reduced element equals zero
        a = u == paper_ring.zero
        # (b): theta_j * u_j = 0 for all j
        b = all(
            paper_ring.mul_scalar(c, thetas[j]) == paper_ring.zero
            for j, c in enumerate(coords)
        )
        # (c): p^(nu - s_j) u_j = 0
        c = paper_ring.is_zero(paper_ring.element(list(coords)))
        # note: is_zero takes the REDUCED element; recompute on raw coords
        raw_ok = all(
            base.mul(base.pow(base.pi_element, base.nu - s), x).is_zero()
            for s, x in zip(paper_ring.ann_exponents, coords)
        )
        assert a == b == c == raw_ok


def test_expand_system_golden(paper_ring):
    P = PolyRing(paper_ring, ("x",), "lex")
    cubic = P.poly(
        [((3,), paper_ring.from_int(1)), ((1,), paper_ring.from_int(2)), ((0,), paper_ring.from_int(4))]
    )
    expanded = expand_system([cubic])
    texts = [str(eq) for eq in expanded.equations]
    assert texts == ["x_1^3 + 4*x_1*x_2^2 + 2*x_1 + 4", "4*x_1^2*x_2"]
    assert expanded.target_ring.variables == ("x_1", "x_2")


def test_expand_identity_for_gamma_one():
    pres = quotient_presentation(2, 3, [1, 1], 3)
    P = PolyRing(pres, ("x",), "lex")
    f = P.poly([((2,), pres.from_int(3)), ((0,), pres.from_int(5))])
    expanded = expand_system([f])
    assert len(expanded.equations) == 1
    assert str(expanded.equations[0]) == "3*x_1^2 + 5"


def test_contract_solutions_golden(paper_ring, z8):
    P = PolyRing(paper_ring, ("x",), "lex")
    expanded_solutions = {
        (z8.element(2), z8.element(t)) for t in range(8)
    } | {(z8.element(6), z8.element(t)) for t in range(8)}
    expanded = expand_system(
        [
            P.poly(
                [
                    ((3,), paper_ring.from_int(1)),
                    ((1,), paper_ring.from_int(2)),
                    ((0,), paper_ring.from_int(4)),
                ]
            )
        ]
    )
    roots = contract_solutions(expanded, expanded_solutions)
    assert {paper_ring.format_element(r) for (r,) in roots} == {
        "2*t1",
        "6*t1",
        "2*t1 + t2",
        "6*t1 + t2",
    }


def test_contract_deduplicates(paper_ring, z8):
    P = PolyRing(paper_ring, ("x",), "lex")
    expanded = expand_system([P.poly([((1,), paper_ring.one)])])
    sols = {(z8.element(2), z8.element(0)), (z8.element(2), z8.element(2))}
    roots = contract_solutions(expanded, sols)
    assert len(roots) == 1  # 2*theta = 0 merges the two


def test_contract_empty(paper_ring):
    P = PolyRing(paper_ring, ("x",), "lex")
    expanded = expand_system([P.poly([((1,), paper_ring.one)])])
    assert contract_solutions(expanded, set()) == frozenset()


def test_solve_local_cubic(paper_ring):
    P = PolyRing(paper_ring, ("x",), "lex")
    cubic = P.poly(
        [((3,), paper_ring.from_int(1)), ((1,), paper_ring.from_int(2)), ((0,), paper_ring.from_int(4))]
    )
    roots = solve_local_system([cubic])
    assert {paper_ring.format_element(r) for (r,) in roots} == {
        "2*t1",
        "6*t1",
        "2*t1 + t2",
        "6*t1 + t2",
    }
    for (r,) in roots:
        assert paper_ring.is_zero(cubic.evaluate([r]))


def test_exactness_against_enumeration(paper_ring):
    """Expansion + contraction equals direct enumeration over the local ring."""
    P = PolyRing(paper_ring, ("x", "y"), "lex")
    theta = paper_ring.basis_element(1)
    system = [
        P.poly([((1, 0), paper_ring.from_int(2)), ((0, 1), theta), ((0, 0), paper_ring.from_int(4))]),
        P.poly([((0, 1), paper_ring.from_int(2))]),
    ]
    got = solve_local_system(system)
    expected = set()
    for point in itertools.product(list(paper_ring.elements()), repeat=2):
        if all(paper_ring.is_zero(p.evaluate(list(point))) for p in system):
            expected.add(tuple(point))
    assert got == frozenset(expected)


def test_presentation_json_roundtrip(paper_ring):
    clone = presentation_from_json(paper_ring.to_json())
    assert clone == paper_ring
    x = paper_ring.element([3, 1])
    assert clone.element_from_json(paper_ring.element_to_json(x)) == x
