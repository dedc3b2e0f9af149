import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from chainring.errors import (
    ChainRingError,
    DomainError,
    InternalInvariant,
    NotChainRing,
    ResourceExceeded,
    TooLarge,
)
from chainring.groebner import buchberger
from chainring.localring import presentation_from_json, quotient_presentation, solve_local_system
from chainring.oracles import brute_solve, brute_vanishing_poly
from chainring.polys import MonomialOrder, PolyRing
from chainring.rings import ChainRing, Zpk, galois_ring, integer_ring
from chainring.solve import (
    ALL_OF_RING,
    DEFAULT_SOLUTION_CAP,
    SolutionSet,
    _verify_solutions,
    ring_vanishing_polynomial,
    solve_system,
    solve_system_lifting,
    solve_univariate,
    univariate_roots,
)


def test_univariate_golden_z25(z25):
    P = PolyRing(z25, ("x",), "lex")
    sol = solve_univariate([P.parse("x^5 - x"), P.parse("5*x + 10")])
    assert {x.data for (x,) in sol.solutions} == {18}


def test_univariate_ladder_roots(z8):
    P = PolyRing(z8, ("y",), "lex")
    sol = solve_univariate([P.parse("y^4 + 2*y^2 + 4*y"), P.parse("2*y^3 + 4*y")])
    assert {x.data for (x,) in sol.solutions} == {0, 2, 4, 6}


def test_univariate_trivial(z8):
    P = PolyRing(z8, ("x",), "lex")
    sol = solve_univariate([P.parse("x")])
    assert {x.data for (x,) in sol.solutions} == {0}


def test_univariate_zero_ideal_gives_everything(z8):
    P = PolyRing(z8, ("x",), "lex")
    sol = solve_univariate([P.zero])
    assert (ALL_OF_RING,) in sol.solutions
    assert sol.count() == 8


def test_univariate_rejects_a_multivariate_system(z8):
    P = PolyRing(z8, ("x", "y"), "lex")
    with pytest.raises(DomainError):
        solve_univariate([P.parse("x*y")])


def test_univariate_roots_need_no_groebner_basis(z8, monkeypatch):
    import chainring.groebner as groebner_module
    import chainring.solve as solve_module

    calls = []

    def counting(polys, ring=None):
        calls.append(len(polys))
        return buchberger(polys, ring)

    monkeypatch.setattr(groebner_module, "buchberger", counting)
    monkeypatch.setattr(solve_module, "buchberger", counting)
    P = PolyRing(z8, ("x",), "lex")
    sol = solve_system([P.parse("x^2 - x")])
    assert {x.data for (x,) in sol.solutions} == {0, 1}
    assert calls == []


def test_univariate_roots_beyond_the_vanishing_polynomial_cap():
    # no head is a unit, and F_m is out of reach for rings above 2^16
    R = Zpk(2, 17)
    P = PolyRing(R, ("x",), "lex")
    for text in ("2*x", "65536*x^2 + 2*x"):
        assert [r.data for r in univariate_roots([P.parse(text)])] == [0, 65536]
    P3 = PolyRing(Zpk(3, 11), ("x",), "lex")
    assert len(univariate_roots([P3.parse("3*x")])) == 3


@pytest.mark.parametrize(
    "n, text",
    [
        (6, "x^2 - 1"),
        (6, "3*x"),  # zero in the Z3 component: every residue there
        (6, "2*x^2 + 4*x"),  # zero in the Z2 component
        (12, "x^2 - 1"),
        (12, "4*x^2 + 4"),  # zero in the Z4 component
        (12, "6*x"),
        (12, "3*x^3 + 9*x"),  # zero in the Z3 component
        (12, "x^2 + 1"),  # no root mod 3, so none at all
    ],
)
def test_univariate_roots_over_a_product_ring(n, text):
    R = integer_ring(n)
    P = PolyRing(R, ("x",), "lex")
    f = P.parse(text)
    expected = sorted((x for (x,) in brute_solve([f]).explicit()), key=R.sort_key)
    assert univariate_roots([f]) == expected
    assert solve_univariate([f]).explicit() == brute_solve([f]).explicit()
    assert (ALL_OF_RING,) in solve_univariate([P.zero]).solutions


def test_univariate_roots_equal_enumeration():
    rng = random.Random(9)
    rings = [Zpk(2, 2), Zpk(2, 3), Zpk(2, 4), Zpk(3, 2), Zpk(3, 3), Zpk(5, 2)]
    rings += [galois_ring(2, 2, 2), galois_ring(2, 3, 2), galois_ring(3, 2, 2)]
    for R in rings:
        P = PolyRing(R, ("x",), "lex")
        elems = list(R.elements())
        for _ in range(60):
            system = [
                P.poly({(rng.randrange(5),): rng.choice(elems) for _ in range(3)})
                for _ in range(rng.randrange(1, 3))
            ]
            if all(p.is_zero() for p in system):
                continue
            expected = [
                x for x in elems if all(p.evaluate([x]).is_zero() for p in system)
            ]
            assert univariate_roots(system) == sorted(expected, key=R.sort_key)


def test_bivariate_golden(z8):
    P = PolyRing(z8, ("x", "y"), "lex")
    system = [P.parse("4*x^2*y + y^3 + 2*y + 4"), P.parse("4*x*y^2")]
    sol = solve_system(system)
    assert sol.count() == 16
    compressed = {(a if a is ALL_OF_RING else a.data, b.data) for a, b in sol.solutions}
    assert compressed == {(ALL_OF_RING, 2), (ALL_OF_RING, 6)}
    explicit = {(a.data, b.data) for a, b in sol.explicit()}
    assert explicit == {(t, y) for t in range(8) for y in (2, 6)}


def test_bivariate_field_equations_other_order(z8):
    order = MonomialOrder("lex", (1, 0))
    P = PolyRing(z8, ("x", "y"), order)
    system = [P.parse("4*x^2*y + y^3 + 2*y + 4"), P.parse("4*x*y^2")]
    system += [ring_vanishing_polynomial(z8, P, i) for i in range(P.nvars)]
    with_fm = solve_system(system)
    assert {(a.data, b.data) for a, b in with_fm.explicit()} == {
        (t, y) for t in range(8) for y in (2, 6)
    }


def test_triangular_linear(z9):
    P = PolyRing(z9, ("x", "y"), "lex")
    sol = solve_system([P.parse("x - 1"), P.parse("y - x")])
    assert {(a.data, b.data) for a, b in sol.explicit()} == {(1, 1)}


def test_field_equations_never_change_solutions(z4, z8, z9):
    rng = random.Random(100)
    for ring in (z4, z8, z9):
        P = PolyRing(ring, ("x", "y"), "lex")
        elems = list(ring.elements())
        for _ in range(8):
            system = [
                P.poly(
                    {
                        (rng.randrange(3), rng.randrange(3)): rng.choice(elems)
                        for _ in range(3)
                    }
                )
                for _ in range(2)
            ]
            system = [p for p in system if not p.is_zero()]
            if not system:
                continue
            plain = solve_system(system).explicit()
            fm = [ring_vanishing_polynomial(ring, P, i) for i in range(P.nvars)]
            augmented = solve_system(system + fm).explicit()
            assert plain == augmented


def test_solver_equals_brute_force(z4, z8, z9):
    rng = random.Random(42)
    for ring in (z4, z8, z9):
        P = PolyRing(ring, ("x", "y"), "lex")
        elems = list(ring.elements())
        for _ in range(12):
            system = [
                P.poly(
                    {
                        (rng.randrange(4), rng.randrange(4)): rng.choice(elems)
                        for _ in range(3)
                    }
                )
                for _ in range(rng.randrange(1, 3))
            ]
            system = [p for p in system if not p.is_zero()]
            if not system:
                continue
            assert solve_system(system).explicit() == brute_solve(system).explicit()


@pytest.mark.parametrize(
    "texts, count",
    [
        (["3*x*y*z + 7*x + 3*y^2", "x^2*y + 4*x + 2", "3*x^2 + 5*y^3 + y^2 + 7*y*z"], 0),
        (["5*x^2*y + 6*x*z + z^2", "x^2 + 2*x*z^2 + y^2*z + 5*y^2"], 16),
    ],
)
def test_degree_three_tail_systems(z8, texts, count):
    # two seeded degree-3 systems in three variables whose lex bases took
    # 12-40 s without the chain criterion and take under a second with it
    P = PolyRing(z8, ("x", "y", "z"), "lex")
    system = [P.parse(t) for t in texts]
    solutions = solve_system(system).explicit()
    assert len(solutions) == count
    assert solutions == brute_solve(system).explicit()


def test_lifting_solver_examples(z25, z8):
    P = PolyRing(z25, ("x",), "lex")
    sol = solve_system_lifting([P.parse("x^5 - x"), P.parse("5*x + 10")])
    assert {x.data for (x,) in sol.solutions} == {18}

    # x - a reproduces the digits of a
    P8 = PolyRing(z8, ("x",), "lex")
    for a in range(8):
        sol = solve_system_lifting([P8.parse(f"x - {a}")])
        assert {x.data for (x,) in sol.solutions} == {a}


def test_lifting_agrees_with_elimination(z4, z8):
    rng = random.Random(7)
    for ring in (z4, z8):
        P = PolyRing(ring, ("x", "y"), "lex")
        elems = list(ring.elements())
        for _ in range(8):
            system = [
                P.poly(
                    {
                        (rng.randrange(3), rng.randrange(3)): rng.choice(elems)
                        for _ in range(3)
                    }
                )
                for _ in range(2)
            ]
            system = [p for p in system if not p.is_zero()]
            if not system:
                continue
            # the routes share the lift, so brute force is the independent check
            a = solve_system(system).explicit()
            b = solve_system_lifting(system).explicit()
            assert a == b == brute_solve(system).explicit()


@pytest.mark.parametrize(
    "ring", [Zpk(2, 4), Zpk(3, 3), galois_ring(2, 3, 2)], ids=["Z16", "Z27", "GR(8,2)"]
)
def test_lifting_at_depth_equals_brute_force(ring):
    P = PolyRing(ring, ("x", "y"), "lex")
    x, y = P.gens()
    p = ring.p
    # each Jacobian vanishes mod π at the residue points, so a branch splits
    # into q^2 at every level and the final re-evaluation does the pruning
    systems = [
        [x**p, y**p],
        [(x - y) ** p + x * p, x * y**p],
        [x**p - y * p, y**2 * p],
    ]
    rng = random.Random(31)
    elems = list(ring.elements())
    for _ in range(4):
        systems.append(
            [
                P.poly({(rng.randrange(3), rng.randrange(3)): rng.choice(elems) for _ in range(3)})
                for _ in range(2)
            ]
        )
    for system in systems:
        system = [f for f in system if not f.is_zero()]
        if not system:
            continue
        lifted = solve_system_lifting(system)
        assert lifted.explicit() == solve_system(system).explicit()
        assert lifted.explicit() == brute_solve(system).explicit()
    # x^p = 0 exactly when val(x) >= ⌈ν/p⌉: q^(ν - ⌈ν/p⌉) values in each
    # coordinate, all of them lifts of the single residue point (0, 0)
    per_coordinate = ring.q ** (ring.nu - math.ceil(ring.nu / p))
    assert solve_system_lifting(systems[0]).count() == per_coordinate**2


def test_vanishing_polynomial_golden(z8):
    P = PolyRing(z8, ("x",), "lex")
    fm = ring_vanishing_polynomial(z8, P, 0)
    assert fm == P.parse("x^4 + 6*x^3 + 7*x^2 + 2*x")  # (x^2-x)^2 - 2(x^2-x)


def test_vanishing_polynomial_field_case():
    for p in (2, 3, 5):
        F = Zpk(p, 1)
        P = PolyRing(F, ("x",), "lex")
        fm = ring_vanishing_polynomial(F, P, 0)
        expected = P.poly({(p,): F.one, (1,): F.neg(F.one)})
        assert fm == expected


def test_vanishing_polynomial_minimality(z4, z8, z9):
    for ring in (z4, z8, z9):
        P = PolyRing(ring, ("x",), "lex")
        fm = ring_vanishing_polynomial(ring, P, 0)
        assert all(
            fm.evaluate([x]).is_zero() for x in ring.elements()
        )
        brute = brute_vanishing_poly(ring)
        assert fm.degree_in(0) == len(brute) - 1


def test_vanishing_polynomial_extension(gr42):
    P = PolyRing(gr42, ("x",), "lex")
    fm = ring_vanishing_polynomial(gr42, P, 0)
    assert all(fm.evaluate([x]).is_zero() for x in gr42.elements())
    assert fm.leading_coefficient() == gr42.one


def test_vanishing_cap():
    big = Zpk(2, 17)
    with pytest.raises(TooLarge):
        ring_vanishing_polynomial(big)


def test_product_ring_solving():
    z6 = integer_ring(6)
    P = PolyRing(z6, ("x",), "lex")
    # x^2 - x = 0 over Z6: idempotents 0, 1, 3, 4
    sol = solve_system([P.parse("x^2 - x")])
    values = {x for (x,) in sol.explicit()}
    assert values == {z6.from_int(n) for n in (0, 1, 3, 4)}
    assert values == {x for (x,) in brute_solve([P.parse("x^2 - x")]).explicit()}


PRODUCT_SOLVE_GOLDENS = {
    (6, ("y^2 - y",)): (
        [["*", [0, 0]], ["*", [0, 1]], ["*", [1, 0]], ["*", [1, 1]]],
        24,
    ),
    (12, ("y^2 - y",)): (
        [["*", [0, 0]], ["*", [0, 1]], ["*", [1, 0]], ["*", [1, 1]]],
        48,
    ),
    # x is free in one component and fixed in the other: expanded
    (6, ("y^2 - y", "3*x")): (
        [[[0, a], [b, c]] for a in range(3) for b in range(2) for c in range(2)],
        12,
    ),
    (12, ("y^2 - y", "3*x")): (
        [[[0, a], [b, c]] for a in range(3) for b in range(2) for c in range(2)],
        12,
    ),
}


@pytest.mark.parametrize("n, system", sorted(PRODUCT_SOLVE_GOLDENS))
def test_product_ring_two_variables_all_routes(n, system):
    ring = integer_ring(n)
    P = PolyRing(ring, ("x", "y"), "lex")
    polys = [P.parse(t) for t in system]
    solutions, count = PRODUCT_SOLVE_GOLDENS[(n, system)]
    elim = solve_system(polys)
    lifting = solve_system_lifting(polys)
    brute = brute_solve(polys)
    assert elim.to_json() == {
        "variables": ["x", "y"],
        "solutions": solutions,
        "truncated": False,
        "count": count,
    }
    assert lifting.to_json() == brute.to_json()
    assert brute.to_json()["count"] == count
    assert elim.explicit() == lifting.explicit() == brute.explicit()


def test_product_ring_lifting_respects_the_cap():
    z6 = integer_ring(6)
    P = PolyRing(z6, ("x", "y", "z", "u"), "lex")
    polys = [P.parse("3*x")]
    # 8 solutions mod 2 times 81 mod 3: the join is refused once it passes the cap
    with pytest.raises(ResourceExceeded):
        solve_system_lifting(polys, max_solutions=100)
    lifting = solve_system_lifting(polys)
    assert lifting.count() == 648
    assert lifting.explicit() == brute_solve(polys).explicit()


@pytest.mark.parametrize(
    "variables, terms",
    [
        (("x",), [[[3, 2], [2]], [[3, 1], [1]], [[3, 0], [0]]]),  # (3,2)*x^2 + (3,1)*x + (3,0)
        (("x", "y"), [[[0, 1], [1, 2]], [[3, 2], [0, 0]]]),  # (0,1)*x*y^2 + (3,2)
    ],
)
def test_product_solve_is_empty_and_complete_when_a_component_is(monkeypatch, variables, terms):
    # each system has no solution mod 4, so none over Z12 = Z4 x Z3: at
    # every cap both routes say so, complete, and the Z3 part is never
    # solved (at cap 1 elimination reported a truncated set of unknown size)
    from chainring import solve

    z12 = integer_ring(12)
    P = PolyRing(z12, variables, "lex")
    polys = [P.poly_from_json(terms)]
    assert brute_solve(polys).count() == 0
    rings = []
    for name in ("solve_system", "solve_system_lifting"):

        def spy(polys, cap, real=getattr(solve, name)):
            rings.append(polys[0].ring.ring)
            return real(polys, cap)

        monkeypatch.setattr(solve, name, spy)
    empty = {"variables": list(variables), "solutions": [], "truncated": False, "count": 0}
    for cap in (1, 10, 100):
        assert solve.solve_system(polys, cap).to_json() == empty
        assert solve.solve_system_lifting(polys, cap).to_json() == empty
    assert rings == [z12, z12.components[0]] * 6


def test_chain_ring_solvers_refuse_a_local_ring():
    # they ended in AttributeError (_payload_digit, q) on the local ring
    R = quotient_presentation(2, 2, [2, 0, 0, 1], 1)
    P = PolyRing(R, ("x",), "lex")
    polys = [P.parse("x^2 + 1")]
    for solver in (solve_system, solve_system_lifting, univariate_roots):
        with pytest.raises(NotChainRing, match="solve_local_system"):
            solver(polys)
    assert solve_local_system(polys) == brute_solve(polys).explicit()


def test_product_ring_truncation_lists_cap_plus_one():
    z6 = integer_ring(6)
    P = PolyRing(z6, ("x", "y"), "lex")
    # neither component exceeds the cap; the joined set (15 points) does
    sol = solve_system([P.parse("x*y")], max_solutions=5)
    assert sol.truncated
    assert sol.to_json()["solutions"] == [
        ["*", [0, 0]],
        [[0, 0], [0, 1]],
        [[0, 0], [0, 2]],
        [[0, 0], [1, 0]],
        [[1, 0], [0, 1]],
        [[1, 0], [0, 2]],
    ]


# z does not occur in 2*x*y, so every listed entry leaves it free
@pytest.mark.parametrize("cap, listed", [(1, 1), (10, 1), (100, 7)])
def test_solution_cap_trips_on_running_total(z8, cap, listed):
    P = PolyRing(z8, ("x", "y", "z"), "lex")
    system = [P.parse("2*x*y")]
    sol = solve_system(system, max_solutions=cap)
    assert sol.truncated
    assert len(sol.solutions) == listed
    full = solve_system(system, max_solutions=1000)
    assert not full.truncated
    assert len(full.solutions) == 18
    assert full.count() == 256
    assert SolutionSet(z8, sol.variables, sol.solutions).explicit() <= full.explicit()


def test_coordinate_absent_from_basis_stays_free(z8, monkeypatch):
    # x is eliminated last, after the three coordinates the system leaves free;
    # they leave the lex basis unchanged, so it is computed once
    import chainring.solve as solve_module

    calls = []

    def counting(polys, ring=None):
        calls.append(len(polys))
        return buchberger(polys, ring)

    monkeypatch.setattr(solve_module, "buchberger", counting)
    P = PolyRing(z8, ("x", "y", "z", "u"), "lex")
    system = [P.parse("x^2 - x")]
    sol = solve_system(system)
    assert len(calls) == 1
    assert sol.to_json()["solutions"] == [[0, "*", "*", "*"], [1, "*", "*", "*"]]
    assert sol.count() == 1024
    assert sol.explicit() == brute_solve(system).explicit()


def _counting_solvers(monkeypatch):
    """Record the input of every univariate system and buchberger call that
    solve_system makes: a univariate_roots call's as the tuple of its
    polynomials' terms, a last level's as the tuple of the dense payload
    lists it hands to _hensel_roots (the kernel's calls from within
    univariate_roots are that call's)."""
    import chainring.solve as solve_module

    calls = {"univariate_roots": [], "last_level": [], "buchberger": []}
    roots, kernel, basis = solve_module.univariate_roots, solve_module._hensel_roots, solve_module.buchberger
    inside_roots = []

    def counting_roots(polys, var=None):
        calls["univariate_roots"].append(tuple(p._terms for p in polys))
        inside_roots.append(True)
        try:
            return roots(polys, var)
        finally:
            inside_roots.pop()

    def counting_kernel(R, fs):
        if not inside_roots:
            calls["last_level"].append(tuple(fs))
        return kernel(R, fs)

    def counting_basis(polys, ring=None):
        calls["buchberger"].append(tuple(p._terms for p in polys))
        return basis(polys, ring)

    monkeypatch.setattr(solve_module, "univariate_roots", counting_roots)
    monkeypatch.setattr(solve_module, "_hensel_roots", counting_kernel)
    monkeypatch.setattr(solve_module, "buchberger", counting_basis)
    return calls


@pytest.mark.parametrize(
    "variables, texts, roots_calls, basis_calls",
    [
        # y = 0 and y = 2 both leave x^2, y = 1 and y = 3 both x^2 + 2
        (("x", "y"), ["x^2 + 2*y"], 3, 1),
        # z = 0, 2 and z = 1, 3 leave equal systems in x and y
        (("x", "y", "z"), ["x^2 + y*x + 2*z", "2*y*z + y^2"], 7, 3),
    ],
)
def test_sibling_branches_that_specialise_alike_are_solved_once(
    z4, monkeypatch, variables, texts, roots_calls, basis_calls
):
    # roots_calls counts the univariate systems solved: by univariate_roots
    # above the last level and by the dense kernel on the last
    P = PolyRing(z4, variables, "lex")
    system = [P.parse(t) for t in texts]
    calls = _counting_solvers(monkeypatch)
    sol = solve_system(system)
    for name in calls:
        assert len(calls[name]) == len(set(calls[name]))
    assert calls["last_level"]
    assert len(calls["univariate_roots"]) + len(calls["last_level"]) == roots_calls
    assert len(calls["buchberger"]) == basis_calls
    assert not sol.truncated
    assert sol.explicit() == brute_solve(system).explicit()


@pytest.mark.parametrize(
    "variables, texts, cap, solutions, roots_calls",
    [
        # a replay of x^2's two roots at y = 2 would make 4 > 3
        (("x", "y"), ["x^2 + 2*y"], 3, [[0, 0], [0, 2], [2, 0], [2, 2]], 4),
        (
            ("x", "y", "z"),
            ["x^2 + y*x + 2*z", "2*y*z + y^2"],
            4,
            [[0, 0, 0], [0, 0, 2], [0, 2, 0], [2, 0, 0], [2, 0, 2], [2, 2, 0]],
            9,
        ),
    ],
)
def test_a_replay_past_the_cap_recurses_instead(z4, monkeypatch, variables, texts, cap, solutions, roots_calls):
    # the listed solutions are those of a solve without the memo
    P = PolyRing(z4, variables, "lex")
    system = [P.parse(t) for t in texts]
    calls = _counting_solvers(monkeypatch)
    sol = solve_system(system, max_solutions=cap)
    assert sol.truncated
    assert sol.to_json()["solutions"] == solutions
    # the system met again is solved again, not replayed: on the last level
    assert len(calls["univariate_roots"]) + len(calls["last_level"]) == roots_calls
    assert len(calls["last_level"]) > len(set(calls["last_level"]))
    assert SolutionSet(z4, sol.variables, sol.solutions).explicit() <= brute_solve(system).explicit()


def test_solution_set_cap(z8):
    P = PolyRing(z8, ("x", "y"), "lex")
    sol = solve_system([P.zero, P.parse("8*x")], max_solutions=10)
    # the whole plane is a solution set; symbolic compression keeps it small
    assert (ALL_OF_RING, ALL_OF_RING) in sol.solutions
    assert sol.count() == 64


def test_solutions_reverify_on_emission(z8):
    P = PolyRing(z8, ("x", "y"), "lex")
    system = [P.parse("2*x*y + 4"), P.parse("x + y")]
    sol = solve_system(system)
    for point in sol.explicit():
        assert all(p.evaluate(list(point)).is_zero() for p in system)


def test_failed_reverification_raises(z8):
    # an explicit error, not an assert, so it holds under python -O
    P = PolyRing(z8, ("x", "y"), "lex")
    with pytest.raises(InternalInvariant):
        _verify_solutions(P, [P.parse("x")], frozenset({(z8.one, z8.zero)}))
    with pytest.raises(InternalInvariant):
        _verify_solutions(P, [P.parse("x")], frozenset({(ALL_OF_RING, z8.zero)}))


def test_free_coordinates_pass_when_the_fixed_parts_cancel(z8):
    # x*y and 7*y share the free monomial y; at x = 1 their fixed parts
    # 1 and 7 sum to zero, so (1, *) solves x*y + 7*y for every y
    P = PolyRing(z8, ("x", "y"), "lex")
    _verify_solutions(P, [P.parse("x*y + 7*y"), P.parse("x^2 + 7")], frozenset({(z8.one, ALL_OF_RING)}))


def test_free_coordinates_raise_when_the_fixed_parts_do_not_cancel(z8):
    # x*y + y at x = 1 is 2*y, not zero for every y
    P = PolyRing(z8, ("x", "y"), "lex")
    with pytest.raises(InternalInvariant, match="free coordinates must satisfy the system identically"):
        _verify_solutions(P, [P.parse("x*y + y")], frozenset({(z8.one, ALL_OF_RING)}))


SOLVE_GOLDEN = Path(__file__).resolve().parent / "goldens" / "solve_sets.json"
LOCAL_CUBIC = Path(__file__).resolve().parents[1] / "instances" / "local_cubic.json"
SOLVE_GOLDEN_CAPS = (1, 10, 100)


def solve_golden_cases():
    """Seeded systems as (ring name, PolyRing, polynomials): 1-3 polynomials
    of total degree <= 3 in 1-2 variables (<= 2 in three) over Z4, Z8, Z9,
    Z25, GR(4,2), Z6, Z12 and the local ring of instances/local_cubic.json."""
    local = presentation_from_json(json.loads(LOCAL_CUBIC.read_text())["ring"])
    rings = {
        "z4": Zpk(2, 2),
        "z8": Zpk(2, 3),
        "z9": Zpk(3, 2),
        "z25": Zpk(5, 2),
        "gr42": galois_ring(2, 2, 2),
        "z6": integer_ring(6),
        "z12": integer_ring(12),
        "local_cubic": local,
    }
    small = [(1, 1, 3), (1, 2, 3), (2, 1, 3), (2, 2, 3), (2, 3, 3)]
    strata = {name: small for name in ("z25", "gr42", "z6", "z12")}
    for name in ("z4", "z8", "z9"):
        strata[name] = small + [(3, 1, 2), (3, 2, 2), (3, 3, 2)]
    strata["local_cubic"] = [(1, 1, 3), (1, 2, 3), (2, 2, 2)]
    rng = random.Random(2029)
    for name, ring in rings.items():
        nonzero = sorted(ring.elements(), key=ring.sort_key)[1:]
        for nvars, npolys, degree in strata[name]:
            P = PolyRing(ring, ("x", "y", "z")[:nvars], "lex")
            for _ in range(3):
                polys = []
                for _ in range(npolys):
                    terms = []
                    for _ in range(rng.randint(2, 4)):
                        exps = [0] * nvars
                        for _ in range(rng.randint(0, degree)):
                            exps[rng.randrange(nvars)] += 1
                        terms.append((tuple(exps), rng.choice(nonzero)))
                    polys.append(P.poly(terms))
                yield name, P, polys


def _solve_outcome(fn, *args):
    try:
        return fn(*args).to_json()
    except ChainRingError as exc:
        return {"error": type(exc).__name__}


def solve_set_records():
    """solve_system and solve_system_lifting at each cap of
    SOLVE_GOLDEN_CAPS, and solve_local_system over the local ring."""
    for name, P, polys in solve_golden_cases():
        record = {"ring": name, "vars": list(P.variables), "polys": [P.poly_to_json(f) for f in polys]}
        if name == "local_cubic":
            R = P.ring
            points = sorted(solve_local_system(polys), key=lambda t: [R.sort_key(x) for x in t])
            record["local"] = [[R.element_to_json(x) for x in t] for t in points]
        else:
            for cap in SOLVE_GOLDEN_CAPS:
                record[f"solve_{cap}"] = _solve_outcome(solve_system, polys, cap)
                record[f"lifting_{cap}"] = _solve_outcome(solve_system_lifting, polys, cap)
        yield record


def render_solve_golden() -> str:
    records = list(solve_set_records())
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records) + "\n]\n"


def test_solve_sets_match_golden():
    # every route's answer (truncated ones included) on seeded systems over
    # eight rings, byte for byte as recorded before solve_system memoised
    # its branches and the lift moved to payloads
    assert render_solve_golden() == SOLVE_GOLDEN.read_text()


def test_lift_differentiates_only_once_a_residue_root_survives(monkeypatch):
    # the Jacobian is needed to lift past level 0 only: no gradient is
    # evaluated for a system with no residue root or over a field, and one
    # per polynomial at each surviving residue root otherwise
    from chainring import solve

    calls = []
    for R, texts, roots, residue_roots in (
        (Zpk(2, 2), ["x^2 + x + 1"], [], []),  # no root mod 2
        (Zpk(5, 1), ["x^2 - 1", "x^3 - x"], [1, 4], []),  # a field: nu = 1
        (Zpk(2, 3), ["x^2 - 1"], [1, 3, 5, 7], [1]),
        (Zpk(3, 2), ["x^2 - 1", "x^3 - x"], [1, 8], [1, 8]),  # Γ = {0, 1, 8}
    ):
        P = PolyRing(R, ("x",), "lex")
        polys = [P.parse(t) for t in texts]
        gradient = R._payload_gradient

        def spy(terms, point, k, gradient=gradient):
            calls.append(point)
            return gradient(terms, point, k)

        monkeypatch.setattr(R, "_payload_gradient", spy)
        calls.clear()
        got = solve._lift_roots(R, polys, [0], solve.DEFAULT_SOLUTION_CAP)
        assert sorted(c.data for (c,) in got) == roots
        assert calls == [(g,) for g in residue_roots for _ in polys]


ROUTE_RINGS = {
    "z4": Zpk(2, 2),
    "z8": Zpk(2, 3),
    "z25": Zpk(5, 2),
    "gr42": galois_ring(2, 2, 2),
    "local_cubic": presentation_from_json(json.loads(LOCAL_CUBIC.read_text())["ring"]),
    # the ring of the PR 22 instance whose elimination gives up
    "local_z4": quotient_presentation(2, 2, [2, 0, 0, 1], 1),
}


def seeded_route_systems(name: str, count: int = 40):
    """count seeded systems of 1-3 polynomials over ROUTE_RINGS[name]: total
    degree <= 3 in 1-2 variables and <= 2 in three (degree 3 in three
    variables has a tail of 1-37 s), and 1-2 variables of degree <= 2 over
    the local rings."""
    ring = ROUTE_RINGS[name]
    local = name.startswith("local")
    nonzero = sorted(ring.elements(), key=ring.sort_key)[1:]
    rng = random.Random(f"routes:{name}")
    for _ in range(count):
        nvars = rng.randint(1, 2 if local else 3)
        degree = 2 if local or nvars == 3 else 3
        P = PolyRing(ring, ("x", "y", "z")[:nvars], "lex")
        polys = []
        for _ in range(rng.randint(1, 3)):
            terms = []
            for _ in range(rng.randint(1, 4)):
                exps = [0] * nvars
                for _ in range(rng.randint(0, degree)):
                    exps[rng.randrange(nvars)] += 1
                terms.append((tuple(exps), rng.choice(nonzero)))
            polys.append(P.poly(terms))
        yield polys


@pytest.mark.parametrize("name", ["z4", "z8", "z25", "gr42"])
def test_every_route_equals_enumeration(name):
    # elimination (back-substitution's roots come from the Hensel kernel on
    # dense payload lists) and the whole-system lift (the ring's evaluation
    # kernels) list the brute-force solutions
    for polys in seeded_route_systems(name):
        expected = brute_solve(polys).explicit()
        assert solve_system(polys).explicit() == expected
        assert solve_system_lifting(polys).explicit() == expected


@pytest.mark.parametrize("name", ["local_cubic", "local_z4"])
def test_every_local_route_equals_enumeration(name):
    # solve_local_system eliminates over the Galois subring and falls back
    # to the lift where elimination gives up
    for polys in seeded_route_systems(name):
        assert solve_local_system(polys) == brute_solve(polys).explicit()


BACKSUB_GOLDEN = Path(__file__).resolve().parent / "goldens" / "solve_backsub.json"
BACKSUB_CAPS = (DEFAULT_SOLUTION_CAP, 100, 10, 1)


def backsub_cases():
    """Seeded systems as (stratum, polynomials), 10 per stratum, drawn as
    perfbench's solve workload draws them: 1-3 polynomials of 2-4 terms of
    total degree <= 3 in two variables (<= 2 in three) over Z4, Z8 and Z9
    in two and three variables and over Z25, GR(4,2), Z6 and Z12 in two."""
    rings = {
        "z4": Zpk(2, 2),
        "z8": Zpk(2, 3),
        "z9": Zpk(3, 2),
        "z25": Zpk(5, 2),
        "gr42": galois_ring(2, 2, 2),
        "z6": integer_ring(6),
        "z12": integer_ring(12),
    }
    rng = random.Random(31)
    for name, ring in rings.items():
        nonzero = sorted(ring.elements(), key=ring.sort_key)[1:]
        for nvars in (2, 3) if name in ("z4", "z8", "z9") else (2,):
            degree = 3 if nvars == 2 else 2
            P = PolyRing(ring, ("x", "y", "z")[:nvars], "lex")
            for npolys in (1, 2, 3):
                for _ in range(10):
                    polys = []
                    for _ in range(npolys):
                        terms = []
                        for _ in range(rng.randint(2, 4)):
                            exps = [0] * nvars
                            for _ in range(rng.randint(0, degree)):
                                exps[rng.randrange(nvars)] += 1
                            terms.append((tuple(exps), rng.choice(nonzero)))
                        polys.append(P.poly(terms))
                    yield f"{name}/{nvars}v/{npolys}p", polys


UNIVARIATE_GOLDEN_RINGS = {
    "z2": Zpk(2, 1),
    "z4": Zpk(2, 2),
    "z8": Zpk(2, 3),
    "z27": Zpk(3, 3),
    "z25": Zpk(5, 2),
    "gr42": galois_ring(2, 2, 2),
    "gr83": galois_ring(2, 3, 3),
    "z12": integer_ring(12),
}


def univariate_member(rng: random.Random, P: PolyRing, elems: list):
    """One seeded univariate polynomial: random of degree <= 5, one with a
    double root (its derivative vanishes there), a multiple of p (its
    derivative vanishes mod pi everywhere), zero, or a constant."""
    R = P.ring
    x = P.gen(0)
    kind = rng.choice(("random", "random", "double", "p_multiple", "zero", "constant"))
    if kind == "zero":
        return P.zero
    if kind == "constant":
        return P.constant(rng.choice(elems))
    f = P.poly({(rng.randrange(6),): rng.choice(elems) for _ in range(rng.randint(1, 4))})
    if kind == "double":
        return (x - rng.choice(elems)) ** 2 * (x - rng.choice(elems)) * f
    if kind == "p_multiple":
        # over the product ring Z12 = Z4 x Z3, 2 and 3 are pi in one
        # component and a unit in the other, and 6 is pi in both
        p = R.p if isinstance(R, ChainRing) else rng.choice((2, 3, 6))
        return f.scale(R.from_int(p)) + P.constant(R.from_int(p * rng.randrange(3)))
    return f


def univariate_cases():
    """Seeded systems of 1-3 polynomials in x as (ring name, polynomials),
    15 per ring and system size."""
    rng = random.Random(31)
    for name, ring in UNIVARIATE_GOLDEN_RINGS.items():
        P = PolyRing(ring, ("x",), "lex")
        elems = sorted(ring.elements(), key=ring.sort_key)
        for npolys in (1, 2, 3):
            for _ in range(15):
                yield f"{name}/{npolys}p", [univariate_member(rng, P, elems) for _ in range(npolys)]


def _digest_lines(groups: dict) -> list[str]:
    lines = []
    for label, outcomes in groups.items():
        text = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
        record = {"case": label, "count": len(outcomes), "sha256": hashlib.sha256(text.encode()).hexdigest()}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


def render_backsub_golden() -> str:
    """One SHA-256 per stratum and cap of solve_system's to_json(), and one
    per ring and system size of the systems and their univariate_roots."""
    groups: dict = {}
    for stratum, polys in backsub_cases():
        for cap in BACKSUB_CAPS:
            groups.setdefault(f"solve/{stratum}/cap{cap}", []).append(_solve_outcome(solve_system, polys, cap))
    for label, polys in univariate_cases():
        P = polys[0].ring
        R = P.ring
        roots = univariate_roots(polys, 0)
        got = "*" if roots is ALL_OF_RING else [R.element_to_json(r) for r in roots]
        groups.setdefault(f"roots/{label}", []).append([[P.poly_to_json(f) for f in polys], got])
    return "[\n" + ",\n".join(_digest_lines(groups)) + "\n]\n"


def test_backsub_and_univariate_roots_match_golden():
    # back-substitution's answers at four caps (truncated ones list the
    # same tuples) and the univariate roots, byte for byte as recorded
    # before the last level and univariate_roots moved to dense payload lists
    assert render_backsub_golden() == BACKSUB_GOLDEN.read_text()


@pytest.mark.parametrize("name", list(UNIVARIATE_GOLDEN_RINGS))
def test_univariate_roots_equal_enumeration_property(name):
    # seeded systems of one to three members, zero, constant, with double
    # roots and multiples of p among them, over rings with nu = 1, 2 and 3
    # and the product ring Z12 through the CRT layer: the Hensel kernel
    # lists exactly the brute-force roots, in sort_key order
    R = UNIVARIATE_GOLDEN_RINGS[name]
    P = PolyRing(R, ("x",), "lex")
    elems = sorted(R.elements(), key=R.sort_key)
    rng = random.Random(f"kernel:{name}")
    seen = set()
    for _ in range(40):
        system = [univariate_member(rng, P, elems) for _ in range(rng.randint(1, 3))]
        roots = univariate_roots(system, 0)
        expected = brute_solve(system).explicit()
        if roots is ALL_OF_RING:
            assert all(p.is_zero() for p in system) and len(expected) == R.size
            continue
        assert roots == sorted((x for (x,) in expected), key=R.sort_key)
        seen |= {"zero" for p in system if p.is_zero()}
        seen |= {"constant" for p in system if p.is_constant() and not p.is_zero()}
        if isinstance(R, ChainRing):
            live = [p for p in system if not p.is_zero()]
            for g in R.teichmuller_set():
                if all(R.valuation(p.evaluate([g])) > 0 for p in live):
                    seen |= {"flat" for p in live if R.valuation(p.derivative(0).evaluate([g])) > 0}
    assert {"zero", "constant"} <= seen
    assert "flat" in seen or not isinstance(R, ChainRing)
