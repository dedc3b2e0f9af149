import collections
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import chainring
from chainring import groebner, minrank, solve
from chainring.errors import DomainError, Inconclusive, WrongOrder
from chainring.extension import build_extension
from chainring.groebner import buchberger, elimination_subbasis
from chainring.linalg import RingMatrix, payload_echelon, rank, reduced_row_echelon
from chainring.minrank import (
    MinRankInstance,
    ks_model,
    ks_permutation_schedule,
    macaulay_x_block,
    minrank_candidates,
    sm_linearization_matrix,
    sm_model,
    solve_minrank,
    transpose_instance,
)
from chainring.oracles import brute_decode_set, brute_minrank
from chainring.polys import MultiPoly, PolyRing, _add_terms, macaulay_matrix, strong_reduce
from chainring.rankdecode import RankDecodingInstance, decode, key_equation_model, to_minrank
from chainring.rings import RingElement, Zpk, galois_ring, integer_ring
from chainring.solve import x_block_solutions, x_block_system


def as_ints(solutions):
    return sorted([v.data for v in x] for x in solutions)


def test_ks_model_shape(homogeneous_minrank_z8):
    model = ks_model(homogeneous_minrank_z8)
    assert len(model.equations) == 4 * 3  # m * (n - r)
    assert model.poly_ring.variables == ("z1", "z2", "z3", "x1", "x2", "x3")
    # bilinear: no monomial of degree > 2
    for eq in model.equations:
        assert eq.total_degree() <= 2


def test_ks_permutation_schedule():
    sched = ks_permutation_schedule(4, 1)
    assert sched[0] == (3,)
    assert set(sched) == {(0,), (1,), (2,), (3,)}


def test_homogeneous_solutions_all_strategies(homogeneous_minrank_z8):
    expected = [[0, 0, 0], [0, 0, 4], [4, 4, 2], [4, 4, 6]]
    assert as_ints(brute_minrank(homogeneous_minrank_z8)) == expected
    for strategy in ("ks", "sm-groebner", "sm-linearization"):
        assert as_ints(solve_minrank(homogeneous_minrank_z8, strategy)) == expected


def test_homogeneous_closure(homogeneous_minrank_z8, z8):
    sols = {tuple(v.data for v in x) for x in solve_minrank(homogeneous_minrank_z8, "ks")}
    for x in sols:
        for a in range(8):
            scaled = tuple((a * v) % 8 for v in x)
            assert scaled in sols
    # no solution has a unit coordinate, so none can be normalized to 1
    assert all(all(v % 2 == 0 for v in x) for x in sols)


def test_sm_linearization_echelon_golden(homogeneous_minrank_z8, affine_minrank_z8):
    A, subsets = sm_linearization_matrix(homogeneous_minrank_z8)
    assert subsets == ((0,), (1,), (2,), (3,))
    assert (A.m, A.n) == (24, 12)
    E = reduced_row_echelon(A)
    expected = [
        [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
        [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2],
        [0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 2],
        [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4],
    ]
    assert [[v.data for v in row] for row in E.rows] == expected

    # the affine instance adds a z_J column per subset; z_(0,) = 1 takes M0
    A, subsets = sm_linearization_matrix(affine_minrank_z8)
    assert subsets == ((0,), (1,), (2,))
    assert [[v.data for v in row] for row in A.rows] == [
        [6, 6, 3, 1, 0, 0, 0, 0, 0, 6, 5, 0],
        [0, 7, 3, 0, 0, 0, 1, 0, 0, 5, 0, 5],
        [0, 0, 0, 0, 7, 3, 2, 2, 5, 0, 5, 2],
        [7, 0, 7, 0, 1, 0, 0, 0, 0, 7, 5, 0],
        [5, 5, 0, 0, 0, 0, 0, 1, 0, 4, 0, 5],
        [0, 0, 0, 5, 5, 0, 1, 0, 1, 0, 4, 1],
        [6, 3, 6, 0, 0, 1, 0, 0, 0, 5, 4, 0],
        [7, 3, 3, 0, 0, 0, 0, 0, 1, 2, 0, 4],
        [0, 0, 0, 7, 3, 3, 2, 5, 2, 0, 2, 3],
    ]
    assert [[v.data for v in row] for row in reduced_row_echelon(A).rows] == [
        [1, 0, 0, 0, 0, 0, 5, 4, 3, 3, 0, 3],
        [0, 1, 0, 0, 0, 0, 3, 1, 5, 1, 0, 2],
        [0, 0, 1, 0, 0, 0, 4, 3, 7, 2, 0, 1],
        [0, 0, 0, 1, 0, 0, 4, 1, 3, 0, 1, 3],
        [0, 0, 0, 0, 1, 0, 1, 7, 2, 0, 1, 2],
        [0, 0, 0, 0, 0, 1, 1, 3, 5, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 2],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4],
    ]


def test_sm_linearization_matrix_shapes_without_equations(z4):
    # r = n leaves no (r+1)-subset, so no row; the columns stay k * C(n, r),
    # plus C(n, r) for M0; r > n leaves no r-subset, so no column either
    I = RingMatrix.identity(z4, 2)
    J = RingMatrix(z4, [[0, 1], [1, 0]])
    for m0, width in ((None, 2), (RingMatrix(z4, [[1, 0], [0, 0]]), 3)):
        A, subsets = sm_linearization_matrix(MinRankInstance(z4, (I, J), 2, m0))
        assert subsets == ((0, 1),) and (A.m, A.n) == (0, width)
        A, subsets = sm_linearization_matrix(MinRankInstance(z4, (I, J), 3, m0))
        assert subsets == () and (A.m, A.n) == (0, 0)


def test_affine_instance_identity_placement_fails(affine_minrank_z8):
    # the bottom-block Z' misses the solution; the sweep finds it anyway
    model = ks_model(affine_minrank_z8, (2,))
    xs = x_block_solutions(model.poly_ring, model.equations, model.x_vars)
    assert [x for x in xs if affine_minrank_z8.is_solution(x)] == []


def test_affine_instance_ks_sweep(affine_minrank_z8):
    assert as_ints(solve_minrank(affine_minrank_z8, "ks")) == [[1, 3, 6]]


def test_affine_instance_sm_groebner(affine_minrank_z8):
    assert as_ints(solve_minrank(affine_minrank_z8, "sm-groebner")) == [[1, 3, 6]]


def test_macaulay_x_block_builds_no_boxed_matrix(affine_minrank_z8, monkeypatch):
    # the Macaulay matrix and its echelon form stay on payloads
    expected = list(minrank_candidates(affine_minrank_z8, "sm-linearization"))

    def refuse(*args, **kwargs):
        raise AssertionError("a RingMatrix was built")

    monkeypatch.setattr(RingMatrix, "__init__", refuse)
    assert list(minrank_candidates(affine_minrank_z8, "sm-linearization")) == expected
    assert (1, 3, 6) in {tuple(v.data for v in x) for x in expected}


def test_macaulay_x_block_logs_no_row_operation(affine_minrank_z8, monkeypatch):
    # the echelon runs on sparse rows and is handed no operation log
    from chainring import minrank

    logs = []
    payload_echelon = minrank.payload_echelon

    def spy(R, rows, ops=None, **kwargs):
        logs.append(ops)
        assert all(isinstance(row, dict) for row in rows)
        return payload_echelon(R, rows, ops, **kwargs)

    monkeypatch.setattr(minrank, "payload_echelon", spy)
    found = list(minrank_candidates(affine_minrank_z8, "sm-linearization"))
    assert (1, 3, 6) in {tuple(v.data for v in x) for x in found}
    assert logs and all(ops is None for ops in logs)


def test_sm_model_trivial_cases(z8, homogeneous_minrank_z8):
    # r = n leaves no (r+1)-subsets
    M = RingMatrix.identity(z8, 2)
    inst = MinRankInstance(z8, (M,), 2)
    model = sm_model(inst, (0, 1))
    assert model.equations == ()
    # a target rank above n is n: every x qualifies
    above = MinRankInstance(z8, (M,), 3)
    assert sm_model(above, (0, 1)).equations == ()
    assert len(solve_minrank(above, "sm-groebner")) == 8

    model2 = sm_model(homogeneous_minrank_z8, (0,))
    assert len(model2.equations) == 4 * 6  # m rows x C(4,2) subsets
    # the unit coordinate is 1: its variable stays in the ring but is unused
    assert model2.poly_ring.variables[0] == "z1"
    assert all(0 not in eq.vars_used() for eq in model2.equations)

    with pytest.raises(DomainError):
        sm_model(homogeneous_minrank_z8, (0, 1))


def test_all_zero_matrices(z8):
    Z = RingMatrix.zeros(z8, 2, 2)
    inst = MinRankInstance(z8, (Z, Z), 1)
    sols = solve_minrank(inst, "ks")
    assert len(sols) == 64  # every x works
    # every Support-Minors equation is zero, so the x block is unconstrained
    for strategy in ("sm-groebner", "sm-linearization"):
        assert solve_minrank(inst, strategy) == sols


def test_single_matrix_annihilator_scalars(z4):
    inst = MinRankInstance(z4, (RingMatrix.identity(z4, 2),), 1)
    expected = as_ints(brute_minrank(inst))
    assert as_ints(solve_minrank(inst, "ks")) == expected
    assert as_ints(solve_minrank(inst, "sm-groebner")) == expected


def test_transpose_instance(homogeneous_minrank_z8, z4):
    transposed = transpose_instance(homogeneous_minrank_z8)
    assert as_ints(solve_minrank(transposed, "ks")) == as_ints(
        solve_minrank(homogeneous_minrank_z8, "ks")
    )
    # square symmetric instance is a fixed point
    M = RingMatrix(z4, [[1, 2], [2, 3]])
    inst = MinRankInstance(z4, (M,), 1)
    again = transpose_instance(inst)
    assert again.matrices[0] == M

    rng = random.Random(15)
    mats = tuple(
        RingMatrix(z4, [[rng.randrange(4) for _ in range(3)] for _ in range(2)])
        for _ in range(2)
    )
    inst2 = MinRankInstance(z4, mats, 1)
    assert as_ints(brute_minrank(inst2)) == as_ints(brute_minrank(transpose_instance(inst2)))


def test_random_instances_match_brute(z4):
    rng = random.Random(33)
    for _ in range(6):
        mats = tuple(
            RingMatrix(z4, [[rng.randrange(4) for _ in range(2)] for _ in range(2)])
            for _ in range(2)
        )
        m0 = RingMatrix(z4, [[rng.randrange(4) for _ in range(2)] for _ in range(2)])
        inst = MinRankInstance(z4, mats, 1, m0)
        expected = as_ints(brute_minrank(inst))
        assert as_ints(solve_minrank(inst, "ks")) == expected
        assert as_ints(solve_minrank(inst, "sm-groebner")) == expected


def test_sm_linearization_success_implies_brute_equality(z4):
    """The linearization strategy settles every one of these instances, and
    its output is the full solution set."""
    rng = random.Random(61)
    for _ in range(12):
        mats = tuple(
            RingMatrix(z4, [[rng.randrange(4) for _ in range(3)] for _ in range(2)])
            for _ in range(2)
        )
        m0 = RingMatrix(z4, [[rng.randrange(4) for _ in range(3)] for _ in range(2)])
        inst = MinRankInstance(z4, mats, 1, m0)
        assert as_ints(solve_minrank(inst, "sm-linearization")) == as_ints(brute_minrank(inst))


def test_affine_instance_sm_linearization(affine_minrank_z8):
    # degree 1 leaves two of the three J without an x-only row; degree 2
    # settles them
    assert as_ints(solve_minrank(affine_minrank_z8, "sm-linearization")) == [[1, 3, 6]]


def test_sm_linearization_without_equations_enumerates_the_x_block(z8):
    # r >= n leaves no equations, so the x block is unconstrained: every x
    # qualifies, as ks and sm-groebner find
    for r in (2, 3):
        inst = MinRankInstance(z8, (RingMatrix.identity(z8, 2),), r)
        model = sm_model(inst, (0, 1))
        x_ring, polys = macaulay_x_block(model)
        assert polys == [] and x_ring.variables == ("x1",)
        expected = brute_minrank(inst)
        assert len(expected) == 8
        for strategy in ("ks", "sm-groebner", "sm-linearization"):
            assert solve_minrank(inst, strategy) == expected, (r, strategy)


def test_ks_model_solutions_respect_rank_bound(homogeneous_minrank_z8, z8):
    # every (x, Z') zero of the KS model has rank <= r: the structured kernel
    # always has independent columns
    model = ks_model(homogeneous_minrank_z8)
    rng = random.Random(3)
    found = 0
    while found < 5:
        point = [z8.element(rng.randrange(8)) for _ in range(6)]
        if all(eq.evaluate(point).is_zero() for eq in model.equations):
            x = point[3:]
            assert rank(homogeneous_minrank_z8.mx(x)) <= 1
            found += 1


def test_sm_model_unit_solutions_respect_rank_bound(homogeneous_minrank_z8, z8):
    # SM zeros certify the rank bound once some z_J is a unit (over a chain
    # ring every genuine Plücker tuple has a unit coordinate); the unit case
    # split sets z_J = 1 for J = (1,)
    model = sm_model(homogeneous_minrank_z8, (1,))
    rng = random.Random(13)
    found = 0
    while found < 5:
        point = [z8.element(rng.randrange(8)) for _ in range(7)]
        if all(eq.evaluate(point).is_zero() for eq in model.equations):
            x = point[4:]
            assert rank(homogeneous_minrank_z8.mx(x)) <= 1
            found += 1


def test_product_ring_instance():
    z6 = integer_ring(6)
    rng = random.Random(71)
    mats = tuple(
        RingMatrix(z6, [[z6.from_int(rng.randrange(6)) for _ in range(2)] for _ in range(2)])
        for _ in range(1)
    )
    inst = MinRankInstance(z6, mats, 1)
    assert solve_minrank(inst, "ks") == brute_minrank(inst)


def test_minrank_json_roundtrip(affine_minrank_z8):
    clone = MinRankInstance.from_json(affine_minrank_z8.to_json())
    assert clone.matrices == affine_minrank_z8.matrices
    assert clone.m0 == affine_minrank_z8.m0
    assert clone.r == affine_minrank_z8.r


@pytest.mark.parametrize("strategy", ["ks", "sm-groebner"])
def test_product_ring_z12_groebner_strategies_match_brute(strategy):
    z12 = integer_ring(12)
    counts = []
    for seed in range(70, 80):
        rng = random.Random(seed)
        mats = tuple(
            RingMatrix(z12, [[z12.from_int(rng.randrange(12)) for _ in range(2)] for _ in range(2)])
            for _ in range(2)
        )
        inst = MinRankInstance(z12, mats, 1)
        found = solve_minrank(inst, strategy)
        assert found == brute_minrank(inst)
        counts.append(len(found))
    assert counts == [30, 60, 2, 8, 6, 6, 63, 30, 7, 18]


def planted_rank_one(rng, R, m=3, n=3, k=2):
    """M0 = u v^T - sum x_l M_l with random M_l, so x is a solution."""
    def el():
        return RingElement(R, rng.randrange(R.size))

    mats = tuple(RingMatrix(R, [[el() for _ in range(n)] for _ in range(m)]) for _ in range(k))
    x = tuple(el() for _ in range(k))
    u = [el() for _ in range(m)]
    v = [el() for _ in range(n)]
    m0 = RingMatrix(R, [[R.mul(a, b) for b in v] for a in u])
    for xl, M in zip(x, mats):
        m0 = m0 - M.scale(xl)
    return MinRankInstance(R, mats, 1, m0), x


@pytest.mark.parametrize("p, e", [(3, 2), (2, 3)])
def test_sm_groebner_matches_brute_on_planted_instances(p, e):
    # the unit case split keeps the model from being solved by z = 0, so the
    # elimination ideal pins x; checked against the brute-force oracle
    R = Zpk(p, e)
    rng = random.Random(500 + p)
    for _ in range(3):
        inst, x = planted_rank_one(rng, R)
        found = solve_minrank(inst, "sm-groebner")
        assert found == brute_minrank(inst)
        assert x in found


def test_sm_linearization_matches_brute_on_planted_instances():
    # 40 planted instances per ring; every one is settled at degree b <= 2
    for R in (Zpk(2, 2), Zpk(2, 3), Zpk(3, 2)):
        rng = random.Random(900 + R.size)
        for _ in range(40):
            inst, x = planted_rank_one(rng, R)
            found = solve_minrank(inst, "sm-linearization")
            assert found == brute_minrank(inst)
            assert x in found


def test_groebner_strategies_match_brute_on_a_z16_k3_instance():
    # planted rank-1 3x3, K = 3 over Z16: with the field equations adjoined to
    # every model, instances of this shape took 6-149 s; both Gröbner
    # strategies must still find exactly the brute-force solutions
    inst, x = planted_rank_one(random.Random(6), Zpk(2, 4), k=3)
    expected = brute_minrank(inst)
    assert x in expected
    for strategy in ("ks", "sm-groebner"):
        assert solve_minrank(inst, strategy) == expected


def test_target_rank_above_n_reads_as_n(z4):
    # rank(M_x) <= 3 holds for every x of a 2x2 pencil: every strategy
    # returns all 16 x, as brute force does
    I = RingMatrix(z4, [[1, 0], [0, 1]])
    J = RingMatrix(z4, [[0, 1], [1, 0]])
    inst = MinRankInstance(z4, (I, J), 3)
    expected = brute_minrank(inst)
    assert len(expected) == 16
    for strategy in ("ks", "sm-groebner"):
        assert solve_minrank(inst, strategy) == expected
    assert ks_model(inst).equations == ()


MODELS_GOLDEN = Path(__file__).resolve().parent / "goldens" / "minrank_models.json"


def golden_instances():
    cases = json.loads(MODELS_GOLDEN.read_text())
    return {c["name"]: MinRankInstance.from_json(c["instance"]) for c in cases["instances"]}


def every_model(inst):
    n = inst.shape[1]
    r = min(inst.r, n)
    for sub in ks_permutation_schedule(n, r):
        yield "ks", list(sub), ks_model(inst, sub)
    for sub in itertools.combinations(range(n), r):
        yield "sm", list(sub), sm_model(inst, sub)


def model_digest(model):
    P = model.poly_ring
    blob = repr((P.variables, model.x_vars, model.z_vars, tuple(e._terms for e in model.equations)))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_models_match_golden():
    # ks_model in every placement and sm_model for every unit subset, on
    # seeded 3x4, K = 2 instances (homogeneous and affine, r = 1 and 2) over
    # Z4, Z8, Z9 and Z25, on to_minrank of the first round of perfbench's
    # decode words at seeds 1 and 9, and on instances/minrank_rank1.json:
    # the SHA-256 of each model's variables and canonical payload terms, and
    # the full equations of two small models
    golden = json.loads(MODELS_GOLDEN.read_text())
    instances = golden_instances()
    assert len(instances) == 39 and len(golden["models"]) == 300
    digests = {}
    for name, inst in instances.items():
        for kind, sub, model in every_model(inst):
            digests[name, kind, tuple(sub)] = (len(model.equations), model_digest(model))
            for full in golden["full"]:
                if (full["instance"], full["model"], full["subset"]) == (name, kind, sub):
                    P = model.poly_ring
                    assert list(P.variables) == full["vars"]
                    assert [P.poly_to_json(e) for e in model.equations] == full["equations"]
    expected = {
        (c["instance"], c["model"], tuple(c["subset"])): (c["equations"], c["sha256"])
        for c in golden["models"]
    }
    assert digests == expected


def test_models_build_no_boxed_polynomial_arithmetic(monkeypatch):
    # ks_model and sm_model collect payload terms: no MultiPoly operator runs
    instances = golden_instances()
    names = ("z9-r2-affine", "z25-r1-homogeneous", "decode-seed1-1-ambiguous")
    expected = {
        (name, kind, tuple(sub)): model.equations
        for name in names
        for kind, sub, model in every_model(instances[name])
    }

    def refuse(*args, **kwargs):
        raise AssertionError("boxed polynomial arithmetic")

    for op in ("__add__", "__sub__", "__mul__", "__neg__", "scale"):
        monkeypatch.setattr(MultiPoly, op, refuse)
    for name in names:
        for kind, sub, model in every_model(instances[name]):
            assert model.equations == expected[name, kind, tuple(sub)]


def model_bytes(model):
    P = model.poly_ring
    return P.variables, model.x_vars, model.z_vars, [e._terms for e in model.equations]


def test_minrank_candidates_builds_one_mx_table_per_instance(monkeypatch):
    # each strategy builds every model of an instance from one M_x table,
    # read once per call; each model it builds is byte for byte the model that
    # ks_model or sm_model builds from a fresh copy of the instance, with
    # that copy's own table.  No model is solved here.
    builds = []
    build_table = minrank._mx_table
    monkeypatch.setattr(minrank, "_mx_table", lambda inst: builds.append(inst) or build_table(inst))
    built = []
    for name in ("ks_model", "sm_model"):

        def spy(inst, sub, make=getattr(minrank, name)):
            model = make(inst, sub)
            built.append((make, sub, model))
            return model

        monkeypatch.setattr(minrank, name, spy)
    monkeypatch.setattr(minrank, "_lifted_x_block", lambda *args: [])
    monkeypatch.setattr(minrank, "macaulay_x_block", lambda model: (model.poly_ring, []))
    monkeypatch.setattr(minrank, "_x_only_solutions", lambda x_ring, polys: [])
    instances = golden_instances()
    assert len(instances) == 39
    models = 0
    for name, inst in instances.items():
        n = inst.shape[1]
        r = min(inst.r, n)
        for strategy in ("ks", "sm-groebner", "sm-linearization"):
            fresh = MinRankInstance.from_json(inst.to_json())
            builds.clear()
            built.clear()
            assert list(minrank_candidates(fresh, strategy)) == []
            assert len(builds) == 1 and builds[0] is fresh, (name, strategy)
            assert minrank._lent_tables == {}  # the table was lent for the call only
            subsets = ks_permutation_schedule(n, r) if strategy == "ks" else list(itertools.combinations(range(n), r))
            assert [sub for _, sub, _ in built] == subsets
            for make, sub, model in built:
                copy = MinRankInstance.from_json(inst.to_json())
                assert model_bytes(model) == model_bytes(make(copy, sub)), (name, strategy, sub)
                models += 1
    # the 300 models of minrank_models.json, its 150 SM models twice
    assert models == 300 + 150


def test_solve_minrank_builds_one_mx_table_per_instance(affine_minrank_z8, monkeypatch):
    builds = []
    build_table = minrank._mx_table
    monkeypatch.setattr(minrank, "_mx_table", lambda inst: builds.append(inst) or build_table(inst))
    for strategy in ("ks", "sm-groebner", "sm-linearization"):
        builds.clear()
        fresh = MinRankInstance.from_json(affine_minrank_z8.to_json())
        assert as_ints(solve_minrank(fresh, strategy)) == [[1, 3, 6]]
        assert len(builds) == 1 and builds[0] is fresh, strategy


def x_only_systems(inst, strategy):
    """Each model's x-only system as (x_ring, polys), for the models that
    need a solve: no polys are enumerated, a constant has no zero."""
    kind = "ks" if strategy == "ks" else "sm"
    systems = []
    for model_kind, _, model in every_model(inst):
        if model_kind == kind:
            if strategy == "sm-linearization":
                x_ring, polys = macaulay_x_block(model)
            else:
                x_ring, polys = x_block_system(model.poly_ring, model.equations, model.x_vars)
            if polys and not any(p.is_constant() for p in polys):
                systems.append((x_ring, polys))
    return systems


def system_key(polys):
    return frozenset(p._terms for p in polys)


def spy_x_only_routes(monkeypatch):
    """A list that receives (route, system key) for each x-only system
    solved by elimination (solve.solve_system) or by the lift
    (solve._lift_roots); the lift also runs inside elimination
    (univariate_roots), which is not a new solve."""
    solve_system, lift_roots = solve.solve_system, solve._lift_roots
    calls = []
    depth = [0]

    def solve_spy(polys, *args, **kwargs):
        if not depth[0]:
            calls.append(("elimination", system_key(polys)))
        depth[0] += 1
        try:
            return solve_system(polys, *args, **kwargs)
        finally:
            depth[0] -= 1

    def lift_spy(R, polys, *args, **kwargs):
        if not depth[0]:
            calls.append(("lift", system_key(polys)))
        return lift_roots(R, polys, *args, **kwargs)

    monkeypatch.setattr(solve, "solve_system", solve_spy)
    monkeypatch.setattr(solve, "_lift_roots", lift_spy)
    return calls


# the candidates as found when every model's x block was solved afresh; the
# ks instances' models all lie above MODEL_LIFT_CAP, so each is eliminated
SOLVED_ONCE = {
    "sm-linearization": {
        "decode-seed1-1-ambiguous": [[0, 0], [0, 2], [1, 1], [1, 2], [3, 0], [3, 1]],
        "minrank_rank1": [[0, 0, 0], [0, 0, 4], [4, 4, 2], [4, 4, 6]],
        "z8-r1-affine": [],
    },
    "ks": {
        "minrank_rank1": [[0, 0, 0], [0, 0, 4], [4, 4, 2], [4, 4, 6]],
        "z8-r2-affine": [[3, 6], [7, 6], [6, 2], [6, 6]],
        "z25-r2-homogeneous": [[0, 0], [5, 0], [10, 0], [15, 0], [20, 0]],
    },
}


@pytest.mark.parametrize("strategy", ["ks", "sm-linearization"])
def test_each_distinct_x_only_system_is_solved_once(strategy, monkeypatch):
    instances = golden_instances()
    calls = spy_x_only_routes(monkeypatch)
    for name, candidates in SOLVED_ONCE[strategy].items():
        inst = instances[name]
        if strategy == "ks":
            for _, _, model in every_model(inst):
                assert model_lift_size(model) > solve.MODEL_LIFT_CAP, name
        calls.clear()
        found = [[v.data for v in x] for x in minrank_candidates(inst, strategy)]
        assert found == candidates, name
        keys = [key for _, key in calls]
        systems = [system_key(polys) for _, polys in x_only_systems(inst, strategy)]
        assert len(keys) == len(set(keys)) and set(keys) == set(systems), name
    # the decode word's three models share one x-only system
    keys = [system_key(polys) for _, polys in x_only_systems(instances["decode-seed1-1-ambiguous"], strategy)]
    assert len(keys) == 3 and len(set(keys)) == 1


def model_lift_size(model):
    """q^k over the k variables that the whole-model lift would enumerate."""
    used = set(model.x_vars).union(*(e.vars_used() for e in model.equations))
    return model.poly_ring.ring.q ** len(used)


def in_sort_key_order(R, points):
    return sorted(points, key=lambda x: tuple(R.sort_key(v) for v in x))


def elimination_answer(polys):
    return in_sort_key_order(polys[0].ring.ring, solve.solve_system(polys).explicit())


def test_small_x_blocks_are_lifted_and_agree_with_elimination(monkeypatch):
    # every distinct x-only system of every strategy's models, on seeded
    # instances over Z4, Z8, Z9, Z25 (minrank_models.json) and GR(4,2)
    # (planted rank-1 3x3, K = 2) and on to_minrank of the decode workload's
    # words (its code over GR(4,2), x blocks over Z4): each has
    # |R|^k <= DEFAULT_SOLUTION_CAP, takes the lift and lists what
    # elimination lists
    instances = {
        name: inst
        for name, inst in golden_instances().items()
        if name.endswith("-r1-affine") or name.endswith("-r2-homogeneous") or name.startswith("decode-seed1-")
    }
    gr42 = galois_ring(2, 2, 2)
    rng = random.Random(2424)
    for i in range(2):
        instances[f"gr42-planted-{i}"] = planted_rank_one(rng, gr42)[0]
    calls = spy_x_only_routes(monkeypatch)
    counted = collections.Counter()
    for name, inst in instances.items():
        for strategy in ("ks", "sm-groebner", "sm-linearization"):
            try:
                systems = x_only_systems(inst, strategy)
            except Inconclusive:
                continue
            for x_ring, polys in {system_key(polys): (x_ring, polys) for x_ring, polys in systems}.values():
                calls.clear()
                got = solve._x_only_solutions(x_ring, polys)
                assert calls == [("lift", system_key(polys))], (name, strategy)
                assert got == elimination_answer(polys), (name, strategy)
                counted[x_ring.ring.short_name()] += 1
    assert sorted(counted) == ["GR(4,2)", "Z25", "Z4", "Z8", "Z9"]
    assert all(n >= 3 for n in counted.values()), counted


def seeded_x_only_system(rng, R, k, count=2):
    """count polynomials of degree <= 2 in k variables over R, each with
    three random terms."""
    x_ring = PolyRing(R, [f"x{i}" for i in range(k)], "lex")
    monos = [e for e in itertools.product(range(3), repeat=k) if sum(e) <= 2]
    polys = []
    while len(polys) < count:
        p = x_ring.poly([(rng.choice(monos), RingElement(R, rng.randrange(R.size))) for _ in range(3)])
        if not p.is_zero() and not p.is_constant():
            polys.append(p)
    return x_ring, polys


@pytest.mark.parametrize(
    "ring, k, route",
    [
        (Zpk(5, 2), 3, "lift"),  # |R|^k = 15,625, q^k = 125
        (Zpk(11, 1), 2, "lift"),  # q^k = 121
        (Zpk(2, 4), 4, "lift"),  # |R|^k = 65,536, the cap itself, q^k = 16
        (Zpk(13, 1), 2, "elimination"),  # q^k = 169
        (galois_ring(2, 2, 2), 4, "elimination"),  # |R|^k = 65,536, q^k = 256
        (Zpk(251, 1), 2, "elimination"),  # |R|^k = q^k = 63,001
        (Zpk(7, 2), 3, "elimination"),  # |R|^k = 117,649
        (galois_ring(2, 3, 3), 2, "elimination"),  # |R|^k = 262,144
    ],
    ids=["Z25-k3", "Z11-k2", "Z16-k4", "Z13-k2", "GR(4,2)-k4", "Z251-k2", "Z49-k3", "GR(8,3)-k2"],
)
def test_x_only_route_follows_the_size_of_the_block(ring, k, route, monkeypatch):
    small = ring.size**k <= solve.DEFAULT_SOLUTION_CAP and ring.q**k <= solve.LIFT_RESIDUE_CAP
    assert small == (route == "lift")
    rng = random.Random(2425 + ring.size)
    calls = spy_x_only_routes(monkeypatch)
    for _ in range(2 if ring.q**k > 1000 else 3):
        x_ring, polys = seeded_x_only_system(rng, ring, k)
        calls.clear()
        got = solve._x_only_solutions(x_ring, polys)
        assert calls == [(route, system_key(polys))]
        # both routes answer beyond the rule too, and agree
        lifted = solve._lift_roots(ring, polys, range(k), solve.DEFAULT_SOLUTION_CAP)
        assert got == elimination_answer(polys) == in_sort_key_order(ring, lifted)


def test_x_only_route_falls_back_below_the_enumeration_budget(monkeypatch):
    # q^k = 81 residue points: a budget of 80 sends the block to
    # elimination, which still answers, and 81 lets the lift take it
    R = Zpk(3, 2)
    rng = random.Random(2426)
    systems = [seeded_x_only_system(rng, R, 4) for _ in range(3)]
    calls = spy_x_only_routes(monkeypatch)
    answers = {}
    for budget, route in (("80", "elimination"), ("81", "lift")):
        monkeypatch.setenv("CHAINRING_BUDGET", budget)
        for i, (x_ring, polys) in enumerate(systems):
            calls.clear()
            got = solve._x_only_solutions(x_ring, polys)
            assert calls == [(route, system_key(polys))]
            assert answers.setdefault(i, got) == got
    assert any(answers.values())


def planted_key_equation_models(rng, R, count=3):
    """key_equation_model of count words y = x g + beta b over the degree-2
    extension of R, with b in R^3 (an error of rank at most 1): n = 3,
    k = 1, radius 1."""
    S = build_extension(R, 2)

    def el():
        return S.element([RingElement(R, rng.randrange(R.size)) for _ in range(2)])

    models = []
    for _ in range(count):
        g = tuple(el() for _ in range(3))
        x, beta = el(), el()
        y = tuple(
            S.add(S.mul(x, gj), S.mul(beta, S.element([RingElement(R, rng.randrange(R.size)), R.zero])))
            for gj in g
        )
        models.append(key_equation_model(RankDecodingInstance(S, (g,), y, 1)))
    return models


def test_x_block_system_keeps_the_elimination_ideal_and_the_answers():
    # the echelon rows and their pi-multiples generate the equations' ideal,
    # so x_block_system's x-only members and those of a Buchberger run on
    # the raw equations reduce to zero modulo each other and solve alike;
    # KS models in every placement and SM models for every unit subset of
    # the instances of minrank_models.json (Z4, Z8, Z9, Z25) and of planted
    # rank-1 3x3 instances over Z27 and GR(4,2), and key-equation models of
    # planted words over each of those rings
    rng = random.Random(2525)
    instances = golden_instances()
    rings = (Zpk(2, 2), Zpk(2, 3), Zpk(3, 2), Zpk(5, 2), Zpk(3, 3), galois_ring(2, 2, 2))
    for R in rings[4:]:
        for i in range(2):
            instances[f"{R.short_name()}-planted-{i}"] = planted_rank_one(rng, R)[0]
    systems = [
        (model.poly_ring, list(model.equations), model.x_vars)
        for inst in instances.values()
        for _, _, model in every_model(inst)
    ]
    for R in rings:
        systems += [
            (model.r_ring, list(model.r_equations), model.x_vars)
            for model in planted_key_equation_models(rng, R)
        ]
    counted = collections.Counter()
    differ = 0
    for P, equations, x_vars in systems:
        if any(e.is_constant() and not e.is_zero() for e in equations):
            continue  # returned as given, before any echelon
        x_ring, got = x_block_system(P, equations, x_vars)
        raw = elimination_subbasis(buchberger(equations, P), P.nvars - len(x_vars))
        _, want = solve._to_x_ring(P, raw.generators, x_vars)
        assert all(strong_reduce(f, want).is_zero() for f in got)
        assert all(strong_reduce(f, got).is_zero() for f in want)
        assert solve._x_only_solutions(x_ring, got) == solve._x_only_solutions(x_ring, want)
        differ += [f._terms for f in got] != [f._terms for f in want]
        counted[P.ring.short_name()] += 1
    assert sorted(counted) == sorted(R.short_name() for R in rings)
    assert sum(counted.values()) == 342
    # the ideal is the same, the bytes need not be: tails are not canonical
    assert differ > 0


def spy_x_block_work(monkeypatch):
    """A list that receives the name of each echelon step and Buchberger run
    that x_block_system starts."""
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(solve, name, wrapped)

    for name in ("macaulay_rows", "payload_echelon", "buchberger"):
        spy(name, getattr(solve, name))
    return calls


def test_x_block_system_checks_order_and_ring_before_the_echelon(monkeypatch):
    calls = spy_x_block_work(monkeypatch)
    P = PolyRing(Zpk(2, 2), ("z", "x"), "degrevlex")
    with pytest.raises(WrongOrder):
        x_block_system(P, [P.parse("z*x + 2*x"), P.parse("x^2 + 1")], [1])
    # payload_echelon would raise NotChainRing, which is no DomainError
    P = PolyRing(integer_ring(12), ("z", "x"), "lex")
    with pytest.raises(DomainError):
        x_block_system(P, [P.parse("z*x + 2*x"), P.parse("x^2 + 1")], [1])
    assert calls == []


def test_x_block_system_returns_a_constant_with_no_echelon(monkeypatch):
    calls = spy_x_block_work(monkeypatch)
    P = PolyRing(Zpk(2, 3), ("z", "x"), "lex")
    x_ring, polys = x_block_system(P, [P.parse("z*x + x"), P.parse("2"), P.zero], [1])
    assert calls == []
    assert x_ring.variables == ("x",) and [p._terms for p in polys] == [((0, 2),)]
    assert solve._x_only_solutions(x_ring, polys) == []
    x_block_system(P, [P.parse("z*x + x"), P.parse("x^2 + 2")], [1])
    assert calls == ["macaulay_rows", "payload_echelon", "buchberger"]


def test_x_block_system_makes_fewer_s_polynomials(monkeypatch):
    # over the KS models of minrank_models.json: Buchberger on the raw
    # equations makes 7,653 S-polynomials, on the echelon rows smallest head
    # first with their pi-multiples 5,646; the rows in echelon order make
    # 6,588, and without the pi-multiples 5,946
    s_polynomial = groebner.s_polynomial
    made = [0]

    def spy(*args):
        made[0] += 1
        return s_polynomial(*args)

    monkeypatch.setattr(groebner, "s_polynomial", spy)
    counts = {}
    for route in ("raw", "x_block_system"):
        made[0] = 0
        for inst in golden_instances().values():
            for kind, _, model in every_model(inst):
                P, equations = model.poly_ring, list(model.equations)
                if kind != "ks" or any(e.is_constant() and not e.is_zero() for e in equations):
                    continue
                if route == "raw":
                    buchberger(equations, P, keep_from=P.nvars - len(model.x_vars))
                else:
                    x_block_system(P, equations, model.x_vars)
        counts[route] = made[0]
    assert counts == {"raw": 7653, "x_block_system": 5646}


def spy_model_routes(monkeypatch):
    """A list that receives ("lift", equations) for each model that the
    whole-model lift solves and ("elimination", equations) for each model
    that reaches x_block_system, from minrank_candidates or
    x_block_solutions."""
    lifted_x_block, eliminate = solve._lifted_x_block, solve.x_block_system
    routes = []

    def lift_spy(ring, equations, x_vars):
        found = lifted_x_block(ring, equations, x_vars)
        if found is not None:
            routes.append(("lift", tuple(equations)))
        return found

    def elimination_spy(ring, equations, x_vars):
        routes.append(("elimination", tuple(equations)))
        return eliminate(ring, equations, x_vars)

    for module in (solve, minrank):
        monkeypatch.setattr(module, "_lifted_x_block", lift_spy)
        monkeypatch.setattr(module, "x_block_system", elimination_spy)
    return routes


def expected_route(model):
    """The route rule for a model: the lift at q^k <= MODEL_LIFT_CAP, unless
    x_block_system answers it with no Buchberger run (a constant) or no
    equation has a constant term (the model vanishes at the origin)."""
    equations = [e for e in model.equations if not e.is_zero()]
    if (
        any(e.is_constant() for e in equations)
        or all(e._terms[-1][0] for e in equations)
        or model_lift_size(model) > solve.MODEL_LIFT_CAP
    ):
        return "elimination"
    return "lift"


def test_small_models_are_lifted_whole_and_match_brute(monkeypatch):
    # seeded planted rank-1 instances on both sides of MODEL_LIFT_CAP for
    # each ring, by the number of variables the lift would enumerate: 3x3
    # with K = 2 over Z4 and Z8 (q^k = 16) and K = 3 (32), and 2x2 with
    # K = 1 over Z9 (9), Z25 (25) and GR(4,2) (16), are lifted whole and
    # never reach x_block_system; 3x3 with K = 4 over Z4 (64), K = 2 over
    # Z9 (81) and K = 1 over Z25 (125) and GR(4,2) (64) are eliminated, and
    # so are homogeneous instances (M0 = 0) of the small shapes, whose
    # models vanish at the origin; every answer of ks and sm-groebner is
    # brute force's
    cases = [
        (Zpk(2, 2), 3, 2, "lift"),
        (Zpk(2, 2), 3, 3, "lift"),
        (Zpk(2, 2), 3, 4, "elimination"),
        (Zpk(2, 3), 3, 2, "lift"),
        (Zpk(2, 3), 3, 3, "lift"),
        (Zpk(3, 2), 2, 1, "lift"),
        (Zpk(3, 2), 3, 2, "elimination"),
        (Zpk(5, 2), 2, 1, "lift"),
        (Zpk(5, 2), 3, 1, "elimination"),
        (galois_ring(2, 2, 2), 2, 1, "lift"),
        (galois_ring(2, 2, 2), 3, 1, "elimination"),
        (Zpk(2, 3), 3, 2, "homogeneous"),
        (Zpk(3, 2), 2, 1, "homogeneous"),
    ]
    routes = spy_model_routes(monkeypatch)
    rng = random.Random(2626)
    for R, n, k, kind in cases:
        route = "elimination" if kind == "homogeneous" else kind
        for _ in range(2):
            inst, x = planted_rank_one(rng, R, m=n, n=n, k=k)
            if kind == "homogeneous":
                inst, x = MinRankInstance(R, inst.matrices, 1), (R.zero,) * k
            expected = brute_minrank(inst)
            assert x in expected
            for strategy in ("ks", "sm-groebner"):
                routes.clear()
                assert solve_minrank(inst, strategy) == expected, (R.short_name(), n, k, strategy)
                models = [m for kind, _, m in every_model(inst) if kind == strategy[:2]]
                assert routes == [(expected_route(m), m.equations) for m in models]
                assert {r for r, _ in routes} == {route}, (R.short_name(), n, k, strategy)


def ambiguous_golden_words():
    """The ten ambiguous decode words of minrank_models.json, rebuilt over
    GR(4,2) with the decode workload's code g = (1, a, 1 + 2a) from M0 =
    rep(-y) and checked against their MinRank instances."""
    S = build_extension(Zpk(2, 2), 2)
    a = S.alpha
    g = (S.one, a, S.add(S.one, S.add(a, a)))
    words = {}
    for name, inst in golden_instances().items():
        if name.endswith("-ambiguous"):
            m0 = inst.m0.rows
            y = tuple(S.neg(S.element([m0[0][j], m0[1][j]])) for j in range(3))
            rd = RankDecodingInstance(S, (g,), y, 1)
            assert to_minrank(rd) == inst, name
            words[name] = rd
    assert len(words) == 10
    return words


def test_decoding_groebner_and_minrank_ks_lift_the_ambiguous_golden_words(monkeypatch):
    # both routes' models have 4 variables over Z4 (q^k = 16), so they are
    # lifted whole; each route lists exactly brute_decode_set
    routes = spy_model_routes(monkeypatch)
    for name, rd in ambiguous_golden_words().items():
        truth = set(brute_decode_set(rd))
        for strategy in ("groebner", "minrank-ks"):
            routes.clear()
            got = decode(rd, strategy)
            assert got.strategy_used == strategy
            xs = [x for x, _, _ in got.solutions]
            assert len(xs) == len(truth) and set(xs) == truth, (name, strategy)
            assert routes and {r for r, _ in routes} == {"lift"}, (name, strategy)


MACAULAY_GOLDEN = Path(__file__).resolve().parent / "goldens" / "macaulay_x_blocks.json"


def test_macaulay_x_blocks_match_golden():
    # macaulay_x_block on sm_model for every unit subset of the instances of
    # minrank_models.json and of to_minrank of two n = 6, k = 2 GR(4,2)
    # radius-1 words drawn with random.Random(602), whose Macaulay matrices
    # are large and sparse: the SHA-256 of the x ring's variables and the
    # x-only polys' payload terms, or the Inconclusive raised
    golden = json.loads(MACAULAY_GOLDEN.read_text())
    instances = golden_instances()
    for i, word in enumerate(golden["words"]):
        instances[f"gr42-n6-k2-word{i}"] = to_minrank(RankDecodingInstance.from_json(word))
    got = []
    for name, inst in instances.items():
        n = inst.shape[1]
        for sub in itertools.combinations(range(n), min(inst.r, n)):
            entry = {"instance": name, "subset": list(sub)}
            try:
                x_ring, polys = macaulay_x_block(sm_model(inst, sub))
            except Inconclusive as exc:
                entry["inconclusive"] = str(exc)
            else:
                blob = repr((x_ring.variables, tuple(p._terms for p in polys)))
                entry.update(polys=len(polys), sha256=hashlib.sha256(blob.encode()).hexdigest())
            got.append(entry)
    assert len(got) == 162 and got == golden["blocks"]



def reference_sm_equations(inst, sub):
    """sm_model's equations built for one unit subset alone, as _bilinear
    sums with z_J := 1 as the empty monomial: the per-subset model that the
    shared homogeneous equations replace."""
    n = inst.shape[1]
    r = min(inst.r, n)
    ring = sm_model(inst, sub).poly_ring
    subsets = list(itertools.combinations(range(n), r))
    z = {s: 0 if s == tuple(sub) else ring._gens[i] for i, s in enumerate(subsets)}
    return [
        minrank._bilinear(ring, [(row[j], z[big[:s] + big[s + 1 :]], s % 2 == 1) for s, j in enumerate(big)])._terms
        for big in itertools.combinations(range(n), r + 1)
        for row in minrank._mx_table(inst)
    ]


def reference_macaulay_x_rows(model):
    """The x-only rows of the model's own Macaulay matrix, built from its
    equations at b = 1, then at b = 2, echelonized and filtered; None where
    neither degree gives one (macaulay_x_block raises Inconclusive)."""
    ring = model.poly_ring
    z_support = ring._support(sum(ring._gens[v] for v in model.z_vars))
    products = [f._terms for f in model.equations]
    for b in (1, 2):
        if b == 2:
            products += [_add_terms(ring, (), f._terms, ring._gens[v], None) for v in model.x_vars for f in model.equations]
        monos, rows = macaulay_matrix(products)
        nz = next((j for j, mono in enumerate(monos) if not ring._support(mono) & z_support), len(monos))
        payload_echelon(ring.ring, rows, last=range(nz, len(monos)))
        x_rows = [tuple((monos[j], row[j]) for j in sorted(row)) for row in rows if row and min(row) >= nz]
        if x_rows:
            return x_rows
    return None


def seeded_sm_instances():
    """Seeded instances over Z4, Z8, Z9 and Z25 (r = 1 and 2, homogeneous
    and affine, m x n up to 3 x 5 with n > r, K up to 3, some entries
    zero) and to_minrank of random GR(4,2) words (radius 1 and 2)."""
    rng = random.Random(35)

    def matrix(R, m, n):
        return RingMatrix(R, [[R.from_int(rng.randrange(R.modulus) if rng.random() < 0.7 else 0) for _ in range(n)] for _ in range(m)])

    for R in (Zpk(2, 2), Zpk(2, 3), Zpk(3, 2), Zpk(5, 2)):
        for r in (1, 2):
            for affine in (False, True):
                for _ in range(2):
                    m, n, k = rng.randint(2, 3), rng.randint(r + 1, 5), rng.randint(1, 3)
                    mats = tuple(matrix(R, m, n) for _ in range(k))
                    yield MinRankInstance(R, mats, r, matrix(R, m, n) if affine else None)
    S = build_extension(Zpk(2, 2), 2)
    elems = sorted(S.elements(), key=S.sort_key)
    for radius in (1, 2):
        for n in (3, 4):
            g = tuple(rng.choice(elems) for _ in range(n))
            y = tuple(rng.choice(elems) for _ in range(n))
            yield to_minrank(RankDecodingInstance(S, (g,), y, radius))


def test_shared_sm_equations_and_matrices_match_per_subset_builds():
    # every unit subset's model relabels the instance's homogeneous
    # equations, and its x-only rows come from a column permutation of the
    # homogeneous Macaulay matrices: both equal a build from that subset's
    # own equations, Inconclusive included
    blocks = inconclusive = 0
    for inst in seeded_sm_instances():
        n = inst.shape[1]
        for sub in itertools.combinations(range(n), min(inst.r, n)):
            model = sm_model(inst, sub)
            assert [f._terms for f in model.equations] == reference_sm_equations(inst, sub)
            expected = reference_macaulay_x_rows(sm_model(inst, sub))
            if expected is None:
                inconclusive += 1
                with pytest.raises(Inconclusive):
                    macaulay_x_block(model)
            else:
                x_ring, polys = macaulay_x_block(model)
                assert x_ring.variables == tuple(model.poly_ring.variables[v] for v in model.x_vars)
                assert [p._terms for p in polys] == expected
            blocks += 1
    assert blocks > 150 and 0 < inconclusive < blocks, (blocks, inconclusive)


def test_sm_linearization_builds_each_homogeneous_matrix_at_most_once(affine_minrank_z8, monkeypatch):
    # one minrank_candidates call builds one degree-1 Macaulay matrix, and
    # a degree-2 one only when some unit subset needs it, for all its
    # unit subsets together
    sizes = []
    build = minrank.macaulay_matrix
    monkeypatch.setattr(minrank, "macaulay_matrix", lambda products: sizes.append(len(products)) or build(products))
    list(minrank_candidates(affine_minrank_z8, "sm-linearization"))
    m, n = affine_minrank_z8.shape
    equations = m * math.comb(n, 2)  # rows times (r + 1)-subsets, r = 1
    assert sizes == [equations, equations * (1 + affine_minrank_z8.k)]
    for inst in golden_instances().values():
        sizes.clear()
        try:
            list(minrank_candidates(inst, "sm-linearization"))
        except Inconclusive:
            pass
        assert minrank._lent_tables == {}
        assert sizes in ([sizes[0]], [sizes[0], sizes[0] * (1 + inst.k)])

CANDIDATES_SCRIPT = """
import json, sys
from chainring.minrank import MinRankInstance, minrank_candidates
golden = json.load(open(sys.argv[1]))
inst = {c["name"]: c["instance"] for c in golden["instances"]}["decode-seed1-1-ambiguous"]
with open(sys.argv[2]) as f:
    rank1 = json.load(f)
out = []
for obj, strategies in ((inst, ("ks", "sm-linearization")), (rank1, ("ks", "sm-groebner", "sm-linearization"))):
    for strategy in strategies:
        xs = minrank_candidates(MinRankInstance.from_json(obj), strategy)
        out.append([[v.data for v in x] for x in xs])
print(json.dumps(out))
"""


def test_candidate_order_does_not_depend_on_the_hash_seed():
    src = str(Path(chainring.__file__).resolve().parents[1])
    rank1 = Path(__file__).resolve().parents[1] / "instances" / "minrank_rank1.json"
    flags = ["-O"] if sys.flags.optimize else []
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        argv = [sys.executable, *flags, "-c", CANDIDATES_SCRIPT, str(MODELS_GOLDEN), str(rank1)]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        outputs.append(json.loads(done.stdout))
    assert outputs[0] == outputs[1]
    # the decode word's KS models are lifted whole, model by model
    assert outputs[0][0] == [[0, 0], [0, 2], [1, 2], [3, 0], [1, 1], [3, 1]]
