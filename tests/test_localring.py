import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chainring
from chainring.errors import ChainRingError, NotARing, ResourceExceeded
from chainring.localring import (
    LocalRingPresentation,
    contract_solutions,
    expand_system,
    presentation_from_json,
    quotient_presentation,
    solve_local_system,
)
from chainring.oracles import brute_solve
from chainring.polys import MultiPoly, PolyRing
from chainring.rings import Zpk
from chainring.solve import ALL_OF_RING, SolutionSet, solve_system


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
            paper_ring.scalar_mul(c, thetas[j]) == paper_ring.zero
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


def test_contract_free_coordinates_equals_contracting_explicit_tuples(paper_ring, z8):
    # contraction expands a free coordinate to its residues mod p^{s_j}
    # only; that gives what expanding it to all of R0 first gave
    P = PolyRing(paper_ring, ("x", "y"), "lex")
    expanded = expand_system([P.poly([((1, 0), paper_ring.from_int(2)), ((0, 0), paper_ring.from_int(4))])])
    inner = solve_system(list(expanded.equations))
    assert any(ALL_OF_RING in sol for sol in inner.solutions)
    by_hand = SolutionSet(
        z8,
        expanded.target_ring.variables,
        frozenset(
            {
                (z8.element(3), ALL_OF_RING, ALL_OF_RING, z8.element(5)),
                (ALL_OF_RING, z8.element(1), z8.element(6), ALL_OF_RING),
                (z8.element(3), z8.element(3), z8.element(6), z8.element(1)),
            }
        ),
    )
    for solutions in (inner, by_hand):
        contracted = contract_solutions(expanded, solutions.solutions)
        assert contracted == contract_solutions(expanded, solutions.explicit())
    # each free tuple gives 16 points, and both hold the fixed tuple's
    # point x = 3*t1 + t2, y = 6*t1 + t2
    assert len(contract_solutions(expanded, by_hand.solutions)) == 16 + 16 - 1


def test_expand_system_builds_no_boxed_polynomial_arithmetic(monkeypatch):
    # expand_system collects packed payload terms: no MultiPoly operator runs
    cases = list(local_golden_cases())
    expected = [expand_system(polys).equations for _, _, polys in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("boxed polynomial arithmetic")

    for op in ("__add__", "__sub__", "__mul__", "__neg__", "scale"):
        monkeypatch.setattr(MultiPoly, op, refuse)
    assert [expand_system(polys).equations for _, _, polys in cases] == expected


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


def test_runaway_expanded_basis_hits_the_term_cap(runaway_local_polynomial, monkeypatch):
    # the expanded system has q^k = 2^6 residue points: a budget of 63
    # refuses the lift fallback, so buchberger's cap error comes through
    monkeypatch.setenv("CHAINRING_BUDGET", "63")
    start = time.perf_counter()
    with pytest.raises(ResourceExceeded, match=r"exceeds the cap of \d+ \(\d+ pairs processed, basis of \d+"):
        solve_local_system([runaway_local_polynomial])
    assert time.perf_counter() - start < 20


def test_runaway_expanded_basis_falls_back_to_the_lift(runaway_local_polynomial, monkeypatch):
    # elimination gives up on the expanded system (six variables over Z4,
    # q^k = 64 within the budget), so the lift solves it; the answer is
    # the enumeration's
    from chainring import solve

    lifting = solve.solve_system_lifting
    calls = []

    def spy(polys, *args, **kwargs):
        calls.append(len(polys))
        return lifting(polys, *args, **kwargs)

    monkeypatch.setattr(solve, "solve_system_lifting", spy)
    f = runaway_local_polynomial
    R = f.ring.ring
    got = solve_local_system([f])
    expected = {
        point
        for point in itertools.product(list(R.elements()), repeat=2)
        if R.is_zero(f.evaluate(list(point)))
    }
    assert calls == [3]
    assert len(got) == 16 and got == frozenset(expected)


@pytest.mark.parametrize("exponent", [1500, 1 << 20])
def test_high_powers_expand_by_squaring(exponent):
    # x^e was expanded one factor at a time, recursing once per step: at e
    # >= 1000 the CLI printed a RecursionError traceback.  The cubic of
    # local_cubic.json with its x^3 raised to x^e solves to the roots that
    # enumeration finds, and stdout is one envelope
    system = json.loads(LOCAL_CUBIC.read_text())
    system["polys"][0][0][1] = [exponent]
    R = presentation_from_json(system["ring"])
    P = PolyRing(R, system["vars"], "lex")
    f = P.poly_from_json(system["polys"][0])
    expected = brute_solve([f]).explicit()
    assert solve_local_system([f]) == frozenset(expected)
    done = subprocess.run(
        [sys.executable, "-m", "chainring.cli", "solve-local", "-"],
        input=json.dumps(system),
        env=dict(os.environ, PYTHONPATH=str(Path(chainring.__file__).resolve().parents[1])),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and done.stderr == ""
    (line,) = done.stdout.splitlines()
    solutions = json.loads(line)["result"]["solutions"]
    assert sorted(solutions) == sorted([R.element_to_json(x) for x in t] for t in expected)


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


LOCAL_GOLDEN = Path(__file__).resolve().parent / "goldens" / "local_expansions.json"
LOCAL_CUBIC = Path(__file__).resolve().parents[1] / "instances" / "local_cubic.json"


def local_golden_cases():
    """Seeded systems as (ring name, PolyRing, polynomials): 1-2 polynomials
    in 1-2 variables over the ring of instances/local_cubic.json and over
    Z4[X]/(X^3 + 2, 2X) (16 elements, gamma = 3)."""
    rings = {
        "local_cubic": presentation_from_json(json.loads(LOCAL_CUBIC.read_text())["ring"]),
        "z4_cubic": quotient_presentation(2, 2, [2, 0, 0, 1], 1),
    }
    strata = [(1, 1, 3), (1, 2, 3), (2, 1, 2), (2, 2, 2)]
    rng = random.Random(2211)
    for name, ring in rings.items():
        nonzero = sorted(ring.elements(), key=ring.sort_key)[1:]
        for nvars, npolys, degree in strata:
            P = PolyRing(ring, ("x", "y")[:nvars], "lex")
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
                yield name, P, polys


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def local_expansion_records():
    """expand_system's target variables and payload terms, and
    solve_local_system's answers in sort_key order, as SHA-256 digests."""
    for name, P, polys in local_golden_cases():
        R = P.ring
        expanded = expand_system(polys)
        record = {
            "ring": name,
            "polys": [P.poly_to_json(f) for f in polys],
            "expansion": _digest((expanded.target_ring.variables, tuple(e._terms for e in expanded.equations))),
        }
        try:
            answers = solve_local_system(polys)
        except ChainRingError as exc:
            record["error"] = type(exc).__name__
        else:
            points = sorted(answers, key=lambda t: [R.sort_key(x) for x in t])
            record["count"] = len(points)
            record["answers"] = _digest([[R.element_to_json(x) for x in t] for t in points])
        yield record


def render_local_golden() -> str:
    records = list(local_expansion_records())
    return "[\n" + ",\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records) + "\n]\n"


def test_local_expansions_match_golden():
    # the expansion and the contracted answers of 80 seeded local systems,
    # byte for byte as the boxed expansion and contraction produced them
    assert render_local_golden() == LOCAL_GOLDEN.read_text()


LOCAL_OPS_GOLDEN = Path(__file__).resolve().parent / "goldens" / "local_ring_ops.json"


def local_ops_rings() -> dict:
    """The rings of local_ring_ops.json.  The last has 128 elements and a
    payload span of 32^2 = 1,024, above rings._OP_TABLE_CAP, so it computes
    without operation tables."""
    return {
        "local_cubic": presentation_from_json(json.loads(LOCAL_CUBIC.read_text())["ring"]),
        "z4_cubic": quotient_presentation(2, 2, [2, 0, 0, 1], 1),
        "z8_paper": quotient_presentation(2, 3, [4, 0, 1], 1),
        "z32_square": quotient_presentation(2, 5, [0, 0, 1], 2),
    }


def local_ring_ops_records(name, R) -> list[str]:
    """The golden's lines for one local ring: the element order, sort keys,
    formats, JSON and descriptor, the add, sub, mul and neg tables over every
    element (pair) and the inverse of every unit, one SHA-256 each."""
    js = R.element_to_json
    elems = list(R.elements())
    pairs = [(a, b) for a in elems for b in elems]
    tables = {
        "elements": [js(a) for a in elems],
        "sort_key": [list(R.sort_key(a)) for a in elems],
        "format": [R.format_element(a) for a in elems],
        "to_json": R.to_json(),
        "descriptor": repr(R.descriptor()),
        "add": [js(R.add(a, b)) for a, b in pairs],
        "sub": [js(R.sub(a, b)) for a, b in pairs],
        "mul": [js(R.mul(a, b)) for a, b in pairs],
        "neg": [js(R.neg(a)) for a in elems],
        "invert": [[js(a), js(R.invert(a))] for a in elems if R.is_unit(a)],
    }
    lines = []
    for op, table in tables.items():
        text = json.dumps(table, separators=(",", ":"))
        record = {"ring": name, "op": op, "size": len(elems), "sha256": hashlib.sha256(text.encode()).hexdigest()}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    return lines


def render_local_ops_golden() -> str:
    lines = []
    for name, R in local_ops_rings().items():
        lines += local_ring_ops_records(name, R)
    return "[\n" + ",\n".join(lines) + "\n]\n"


def test_local_ring_ops_match_golden():
    # every element method of four local rings, byte for byte as the boxed
    # coordinate tuples computed them
    assert render_local_ops_golden() == LOCAL_OPS_GOLDEN.read_text()


def test_local_payloads_are_ints_and_small_rings_are_tabled():
    # a local ring lays its coordinates out as the Galois rings do: one int
    # payload, and flat operation tables when its span of |R0|^gamma
    # payloads is at most rings._OP_TABLE_CAP
    rings = local_ops_rings()
    for R in rings.values():
        elems = list(R.elements())
        assert all(type(a.data) is int for a in elems) and R.zero.data == 0
        assert [a.data for a in elems] == sorted(a.data for a in elems)
        assert all(R.element([c.data for c in R.coords(a)]) == a for a in elems)
    small, large = rings["local_cubic"], rings["z32_square"]
    assert (small._span, len(small._mul_table), len(small._neg_table)) == (64, 64**2, 64)
    assert large._span == 1024 and large._mul_table is None and large._add_table is None
