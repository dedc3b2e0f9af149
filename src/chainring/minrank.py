"""MinRank instances over chain rings/PIRs with Kipnis-Shamir and
Support-Minors modelings and solvers.

All three strategies share one loop over models: ks over its Z'
placements, sm-groebner and sm-linearization over the unit Plücker
coordinate of sm_model.  Both models are built from payload terms, every
model of an instance from one table of M_x entry terms, which
minrank_candidates reads once per call (_mx_table), in a lex ring
interned on the coefficient ring (polys.lex_ring).  The Support-Minors
equations are built once per instance too, homogeneous, with every z_J a
variable (_SupportMinors), and so are their degree-1 and degree-2
Macaulay matrices: each unit subset's model relabels those equations, and
its Macaulay matrix is the homogeneous one with its columns permuted.  The
Gröbner strategies lift a model whole from the residue field and project
its roots onto x where the route rule takes it (q^k <= MODEL_LIFT_CAP and
a constant term, as an affine instance gives); otherwise, and always for
sm-linearization, a model gives an x-only system (lex elimination, or the
x-only rows of the Macaulay matrix), and each distinct x-only system is
solved once.  Every candidate is re-verified with an actual rank
computation, so a modeling can lose completeness but never soundness.
The unit split loses no solution; the ks schedule's completeness is
checked against the brute-force oracle in the tests (the paper leaves a
selection rule open).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterator, Sequence

from .errors import DomainError, Inconclusive, ParseError
from .linalg import RingMatrix, payload_echelon, rank, split_matrix
from .polys import MultiPoly, PolyRing, lex_ring, macaulay_matrix
from .rings import Ring, RingElement, _as_list, _int_field, crt_apply, crt_parts, ring_from_json
from .solve import (
    _lifted_x_block,
    _to_x_ring,
    _x_only_solutions,
    join_solutions,
    x_block_system,
)


@dataclass(frozen=True)
class MinRankInstance:
    """Find x with rank(M0 + sum x_l M_l) <= r; homogeneous when M0 = 0."""

    ring: Ring
    matrices: tuple[RingMatrix, ...]
    r: int
    m0: RingMatrix | None = None

    def __post_init__(self):
        if not self.matrices:
            raise DomainError("need at least one matrix")
        shape = (self.matrices[0].m, self.matrices[0].n)
        for M in self.matrices:
            if (M.m, M.n) != shape or M.ring != self.ring:
                raise DomainError("inconsistent matrix dimensions or rings")
        if self.m0 is not None and ((self.m0.m, self.m0.n) != shape or self.m0.ring != self.ring):
            raise DomainError("M0 shape mismatch")
        # r = 0 is admitted for the rank-decoding reduction (y in C, no error)
        if self.r < 0:
            raise DomainError("target rank must be >= 0")

    @property
    def k(self) -> int:
        return len(self.matrices)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.matrices[0].m, self.matrices[0].n)

    @property
    def homogeneous(self) -> bool:
        return self.m0 is None or self.m0.is_zero()

    def mx(self, x: Sequence[RingElement]) -> RingMatrix:
        """M0 + sum x_l M_l, summed on the matrices' payload rows."""
        R = self.ring
        x = [R.coerce(v).data for v in x]
        if len(x) != self.k:
            raise DomainError("wrong number of coefficients")
        m, n = self.shape
        rows = list(self.m0._rows) if self.m0 is not None else [{}] * m
        for v, M in zip(x, self.matrices):
            rows = [R._payload_addmul(a, v, b) for a, b in zip(rows, M._rows)]
        return RingMatrix._from_payloads(R, rows, n)

    def is_solution(self, x: Sequence[RingElement]) -> bool:
        return rank(self.mx(x)) <= self.r

    def to_json(self):
        matrices = [M.to_json()["data"] for M in self.matrices]
        out = {"ring": self.ring.to_json(), "r": self.r, "matrices": matrices}
        if self.m0 is not None:
            out["m0"] = self.m0.to_json()["data"]
        return out

    @classmethod
    def from_json(cls, obj) -> "MinRankInstance":
        ring = ring_from_json(obj["ring"])
        mats = tuple(
            RingMatrix.from_json_rows(ring, M, "matrices") for M in _as_list(obj["matrices"], "matrices")
        )
        m0 = RingMatrix.from_json_rows(ring, obj["m0"], "m0") if obj.get("m0") is not None else None
        if "r" not in obj:
            raise ParseError("instance needs the target rank r")
        return cls(ring, mats, _int_field(obj, "r"), m0)


def transpose_instance(inst: MinRankInstance) -> MinRankInstance:
    """Same solution set (rank is transpose-invariant), fewer variables when
    m < n after modeling."""
    return MinRankInstance(
        inst.ring,
        tuple(M.transpose() for M in inst.matrices),
        inst.r,
        inst.m0.transpose() if inst.m0 is not None else None,
    )


# -- Kipnis-Shamir modeling -----------------------------------------------------


@dataclass(frozen=True)
class KSModel:
    poly_ring: PolyRing
    equations: tuple[MultiPoly, ...]
    zprime_rows: tuple[int, ...]
    x_vars: tuple[int, ...]
    z_vars: tuple[int, ...]


def _x_names(k: int) -> list[str]:
    return [f"x{l + 1}" for l in range(k)]


def _mx_table(inst: MinRankInstance) -> list[list[list]]:
    """The M_x table: entry (i, t) of M_x as (packed x-monomial, payload)
    terms, zero payloads left out, each entry's terms descending (x1 first,
    M0's last).  The x variables are the lowest lex fields of every model
    ring and of the lex ring in x alone, so their packed monomials are the
    same in all of them, and one table serves every model of the
    instance."""
    x_gens = lex_ring(inst.ring, _x_names(inst.k))._gens
    mats = list(inst.matrices) + ([inst.m0] if inst.m0 is not None else [])
    monos = list(x_gens) + ([0] if inst.m0 is not None else [])
    m, n = inst.shape
    return [
        [[(xm, c) for xm, M in zip(monos, mats) if (c := M._rows[i].get(t)) is not None] for t in range(n)]
        for i in range(m)
    ]


# what running minrank_candidates calls lend the models of their
# instances, by id(instance): [M_x table, Support-Minors equations or None
# until first built]; a call holds its instance while the entry lives, so
# the id names no other instance
_lent_tables: dict[int, list] = {}


def _mx_terms(inst: MinRankInstance) -> list[list[list]]:
    """The M_x table that minrank_candidates lent inst for its call, else
    one read now."""
    lent = _lent_tables.get(id(inst))
    return _mx_table(inst) if lent is None else lent[0]


def _bilinear(ring: PolyRing, products) -> MultiPoly:
    """The sum of ±entry * z over products, (entry terms, packed z-monomial,
    negated) triples.  The z-monomials of one equation are distinct (z_J for
    distinct J, or z_(pos, j) for distinct pos, and the empty one at most
    once) and lie above every x field, and an entry's terms are nonzero and
    descend (_mx_table): so no two terms share a monomial, and the entries'
    terms, shifted, in descending z order, are the canonical term list."""
    neg = ring.ring._payload_neg
    terms = []
    for entry, zm, negated in sorted(products, key=itemgetter(1), reverse=True):
        terms += [(xm + zm, neg(c)) for xm, c in entry] if negated else [(xm + zm, c) for xm, c in entry]
    return MultiPoly(ring, tuple(terms))


def ks_model(inst: MinRankInstance, zprime_rows: Sequence[int] | None = None) -> KSModel:
    """Bilinear system M_x @ Z = 0 with Z = P (I; Z'); zprime_rows are the
    rows of Z holding Z' (default: the bottom r rows, the identity placement).
    A target rank above n is read as n."""
    n = inst.shape[1]
    r = min(inst.r, n)
    k = inst.k
    R = inst.ring
    if zprime_rows is None:
        zprime_rows = tuple(range(n - r, n))
    zprime_rows = tuple(sorted(zprime_rows))
    if len(zprime_rows) != r or any(not 0 <= i < n for i in zprime_rows):
        raise DomainError("zprime_rows must be r distinct row indices")
    if r == 1:
        z_names = [f"z{j + 1}" for j in range(n - r)]
    else:
        z_names = [f"z{i + 1}_{j + 1}" for i in range(r) for j in range(n - r)]
    ring = lex_ring(R, z_names + _x_names(k))
    nz = len(z_names)
    z_vars = tuple(range(nz))
    x_vars = tuple(range(nz, nz + k))

    ident_rows = [i for i in range(n) if i not in zprime_rows]
    equations = []
    for row in _mx_terms(inst):
        for j in range(n - r):
            # column j of Z: 1 (the empty monomial) in row ident_rows[j], and
            # z_(pos, j) in row zprime_rows[pos]
            products = [(row[ident_rows[j]], 0, False)]
            for pos, t in enumerate(zprime_rows):
                products.append((row[t], ring._gens[pos * (n - r) + j], False))
            equations.append(_bilinear(ring, products))
    return KSModel(ring, tuple(equations), zprime_rows, x_vars, z_vars)


def ks_permutation_schedule(n: int, r: int) -> list[tuple[int, ...]]:
    """Identity placement first, then every other Z'-row subset in lex order."""
    identity = tuple(range(n - r, n))
    rest = [s for s in itertools.combinations(range(n), r) if s != identity]
    return [identity] + rest


# -- Support-Minors modeling -----------------------------------------------------


def _z_subset_name(subset: tuple[int, ...]) -> str:
    return "z" + "_".join(str(j + 1) for j in subset)


class _SupportMinors:
    """The Support-Minors equations of an instance with every Plücker
    coordinate z_J a variable, and their Macaulay matrices: built once per
    instance and shared by the models of all its unit subsets (SMModel).

    For every (r+1)-subset J' and row i of M_x, the equation is
    sum_s (-1)^s M_x[i, j_s] z_(J' - j_s), with J' = (j_0 < ... < j_r), in
    the order (J' lex, i) and as a descending term list.  Every term has
    exactly one z factor, of degree 1: so setting z_J = 1 merges no two
    terms, and lex, which puts every z variable above every x, groups the
    columns of each Macaulay matrix by their z factor, in the order of the
    subsets."""

    def __init__(self, inst: MinRankInstance, entries: list[list[list]]):
        n = inst.shape[1]
        r = min(inst.r, n)
        self.subsets = tuple(itertools.combinations(range(n), r))
        nz = len(self.subsets)
        ring = self.ring = lex_ring(inst.ring, [_z_subset_name(s) for s in self.subsets] + _x_names(inst.k))
        self.z_vars = tuple(range(nz))
        self.x_vars = tuple(range(nz, nz + inst.k))
        z = dict(zip(self.subsets, ring._gens))
        self.equations = [
            _bilinear(ring, [(row[j], z[big[:s] + big[s + 1 :]], s % 2 == 1) for s, j in enumerate(big)])._terms
            for big in itertools.combinations(range(n), r + 1)
            for row in entries
        ]
        self._matrices: dict[int, tuple] = {}

    def matrix(self, b: int) -> tuple[list, list, list]:
        """The degree-b Macaulay matrix, built on first use: (columns, rows,
        bounds) as macaulay_matrix gives them, plus bounds[u]:bounds[u + 1],
        the columns of z_(subsets[u]).  Degree 1 holds the equations' own
        terms; degree 2 adds each equation times each x variable, in
        macaulay_rows' shift-major order.  The rows are shared: a caller
        that updates rows copies them first."""
        found = self._matrices.get(b)
        if found is None:
            gens = self.ring._gens
            products = self.equations
            if b == 2:
                # an x exponent reaches 2 at most, so no field overflows
                products = products + [[(m + gens[v], c) for m, c in f] for v in self.x_vars for f in self.equations]
            monos, rows = macaulay_matrix(products)
            # the columns descend, so z_J's are those left that are >= z_J
            bounds = [0]
            for v in self.z_vars:
                j = bounds[-1]
                while j < len(monos) and monos[j] >= gens[v]:
                    j += 1
                bounds.append(j)
            found = self._matrices[b] = (monos, rows, bounds)
        return found


class SMModel:
    """The Support-Minors model of an instance at one unit Plücker
    coordinate: its shared equations (_SupportMinors) with z_J := 1 for J =
    subsets[unit].  The unit coordinate's variable stays in the ring."""

    def __init__(self, system: _SupportMinors, unit: int):
        self.system = system
        self.unit = unit
        self.poly_ring: PolyRing = system.ring
        self.subsets: tuple[tuple[int, ...], ...] = system.subsets  # r-subsets indexing the z variables
        self.x_vars: tuple[int, ...] = system.x_vars
        self.z_vars: tuple[int, ...] = system.z_vars

    @cached_property
    def equations(self) -> tuple[MultiPoly, ...]:
        """The shared equations relabelled: each term with a z_J factor
        drops it and moves to the end of its equation, which keeps the terms
        descending (they are x-only now, and keep their order)."""
        ring = self.poly_ring
        g = ring._gens[self.z_vars[self.unit]]
        return tuple(
            MultiPoly(ring, tuple([t for t in terms if not t[0] & g] + [(m - g, c) for m, c in terms if m & g]))
            for terms in self.system.equations
        )


def _support_minors(inst: MinRankInstance) -> _SupportMinors:
    """The Support-Minors equations that minrank_candidates lent inst for
    its call, built on first use, else built now from a table read now."""
    lent = _lent_tables.get(id(inst))
    if lent is None:
        return _SupportMinors(inst, _mx_table(inst))
    if lent[1] is None:
        lent[1] = _SupportMinors(inst, lent[0])
    return lent[1]


def sm_model(inst: MinRankInstance, unit_subset: Sequence[int]) -> SMModel:
    """For every (r+1)-subset J' and row i, the alternating-sign relation
    between M_x entries and the Plücker variables z_J, with z_J := 1 for
    J = unit_subset (the unit case split).

    When rank(M_x) <= r, row(M_x) lies in a free rank-r module, which has a
    unit maximal minor; scaled by its inverse, that module's Plücker
    coordinates solve the model for J = that minor's columns.  Looping J over
    every r-subset therefore loses no solution.  The unit coordinate's
    variable stays in the ring.  A target rank above n is read as n.

    The equations are one homogeneous system per instance, with every z_J a
    variable (_SupportMinors), relabelled for J when first read; the models
    of one minrank_candidates call share it, and a call outside one builds
    its own.
    """
    system = _support_minors(inst)
    try:
        unit = system.subsets.index(tuple(unit_subset))
    except ValueError:
        raise DomainError("unit_subset must be r increasing column indices") from None
    return SMModel(system, unit)


def sm_linearization_matrix(inst: MinRankInstance):
    """Coefficient matrix of the SM system in the monomials x_l*z_J (grouped
    by J, then l) followed by the plain z_J columns for inhomogeneous
    instances.  Equations ordered by (row, (r+1)-subset lex).

    It is a re-indexed view of the rows of the homogeneous degree-1
    Macaulay matrix that every unit subset's macaulay_x_block permutes.
    With r >= n there is no (r+1)-subset, so no equation: the matrix has
    no row but keeps its width (none when r > n leaves no r-subset)."""
    m, n = inst.shape
    k, R = inst.k, inst.ring
    subsets = tuple(itertools.combinations(range(n), inst.r))
    width = k * len(subsets) + (0 if inst.homogeneous else len(subsets))
    if inst.r >= n:
        return RingMatrix._from_payloads(R, [], width), subsets
    system = _support_minors(inst)
    gens = system.ring._gens
    col = {}
    for J, v in enumerate(system.z_vars):
        col[gens[v]] = k * len(subsets) + J
        col.update({gens[v] + gens[x]: J * k + l for l, x in enumerate(system.x_vars)})
    monos, rows, _ = system.matrix(1)
    out = [{} for _ in rows]
    for e, payloads in enumerate(rows):
        b, i = divmod(e, m)  # the rows run over ((r+1)-subset b, row i)
        row = out[i * (len(rows) // m) + b]
        for j, c in payloads.items():
            row[col[monos[j]]] = c
    return RingMatrix._from_payloads(R, out, width), subsets


# -- solvers ---------------------------------------------------------------------


def split_instance(inst: MinRankInstance) -> list[MinRankInstance]:
    """The instance in each CRT component of its ring; [inst] over a chain ring."""
    mats = [split_matrix(M) for M in inst.matrices]
    m0s = None if inst.m0 is None else split_matrix(inst.m0)
    return crt_parts(
        inst.ring, inst, lambda i, C: MinRankInstance(C, tuple(M[i] for M in mats), inst.r, m0s and m0s[i])
    )


def solve_minrank(inst: MinRankInstance, strategy: str = "ks") -> list[tuple[RingElement, ...]]:
    """All x with rank(M_x) <= r found by the chosen modeling; every returned
    tuple is rank-verified.  Product-ring instances split through the CRT and
    the component solutions recombine by cartesian product (rank over a PIR
    is the max over components)."""
    R = inst.ring
    found = crt_apply(R, split_instance(inst), solve_minrank, join_solutions, _chain_candidates, strategy)
    return sorted(found, key=lambda x: tuple(R.sort_key(v) for v in x))


def _chain_candidates(inst: MinRankInstance, strategy: str) -> Iterator[tuple[RingElement, ...]]:
    return filter(inst.is_solution, minrank_candidates(inst, strategy))


def minrank_candidates(
    inst: MinRankInstance, strategy: str = "ks"
) -> Iterator[tuple[RingElement, ...]]:
    """The distinct x-block solutions of every model of a chain-ring
    instance, unverified: a superset of the solutions the strategy finds.

    Models are built from payload terms, all of them from one M_x table
    read once per call and lent to the models until the call ends.  The
    Gröbner strategies first ask
    the route rule (solve._lifted_x_block): a model with q^k <=
    MODEL_LIFT_CAP over the k variables it uses, and with a constant term
    (a homogeneous instance's models vanish at the origin and are left to
    elimination), is lifted whole from the residue field, and its roots'
    x blocks are the model's candidates.  Any
    other model gives an x-only system (x_block_system's lex elimination
    for the Gröbner strategies, macaulay_x_block for sm-linearization);
    each distinct x-only system is solved once, since a repeat could only
    give x already yielded.  A lifted model is solved afresh each time.
    Each model's candidates come out in sort_key order, the models' in
    schedule order.

    Both Gröbner routes keep every solution that the model keeps: a lifted
    model lists the x blocks of all its zeros, and the elimination ideal
    vanishes on each of them.  The field equations F_m would add nothing:
    F_m vanishes at every point of R, so V_R(I) = V_R(I + F_m), and every
    x-only member of I already vanishes on the x block of each solution.
    """
    n = inst.shape[1]
    if strategy == "ks":
        models = (ks_model(inst, sub) for sub in ks_permutation_schedule(n, min(inst.r, n)))
    elif strategy in ("sm-groebner", "sm-linearization"):
        subsets = itertools.combinations(range(n), min(inst.r, n))
        models = (sm_model(inst, sub) for sub in subsets)
    else:
        raise DomainError(f"unknown strategy {strategy!r}")

    def groebner_x_block(model):
        return x_block_system(model.poly_ring, model.equations, model.x_vars)

    linearize = strategy == "sm-linearization"
    x_system = macaulay_x_block if linearize else groebner_x_block
    solved = set()
    seen = set()
    # every model of the call reads one M_x table (_mx_terms), and the SM
    # models one set of homogeneous equations and Macaulay matrices
    # (_support_minors), lent for the call only: an instance its caller
    # keeps keeps neither
    _lent_tables[id(inst)] = [_mx_table(inst), None]
    try:
        for model in models:
            found = None if linearize else _lifted_x_block(model.poly_ring, model.equations, model.x_vars)
            if found is None:
                x_ring, polys = x_system(model)
                key = frozenset(p._terms for p in polys)
                if key in solved:
                    continue
                solved.add(key)
                found = _x_only_solutions(x_ring, polys)
            for x in found:
                if x not in seen:
                    seen.add(x)
                    yield x
    finally:
        _lent_tables.pop(id(inst), None)


def macaulay_x_block(model: SMModel) -> tuple[PolyRing, list[MultiPoly]]:
    """The x-only rows of the model's Macaulay matrix, mapped to a ring in
    the x variables alone (solve._to_x_ring).

    The matrix holds the equations times every x-monomial of degree < b,
    with columns in the ring's lex order, so every monomial with a z
    variable comes before the x-only ones; its Hermite form's rows that are
    zero on every z column are polynomials in x alone.  Each such row is an
    R-combination of the equations, so the x block of every zero of the
    model solves it (Bardet et al., ASIACRYPT 2020).  b = 2 is tried only
    when b = 1 gives no x-only row.

    The matrix is the instance's homogeneous one (_SupportMinors.matrix,
    built once per minrank_candidates call) with its columns permuted: z_J's
    columns, J the unit subset, move after every other z column and are
    read x-only, and no other column changes its relative order.  Setting
    z_J = 1 merges no two terms and keeps the order among z_J's columns, so
    these are the rows, in the order, that the model's own Macaulay matrix
    has.  The echelon takes the permutation as its pivot order (z_J's
    columns last), on a copy of the rows, since it updates them in place.
    They stay sparse payload rows throughout: nothing is boxed, and no row
    operation is logged.  A model with no nonzero equation (r >= n, or
    M_x = 0) leaves the x block unconstrained: no x-only poly.
    """
    ring = model.poly_ring
    if not any(model.system.equations):
        return _to_x_ring(ring, [], model.x_vars)
    u = model.unit
    g = ring._gens[model.z_vars[u]]
    for b in (1, 2):
        monos, rows, bounds = model.system.matrix(b)
        # z_J's columns, read x-only, are pivoted after the other z columns
        x_cols = range(bounds[u], bounds[u + 1])
        d = [dict(row) for row in rows]
        payload_echelon(ring.ring, d, last=x_cols)
        # a row's columns ascend, so its monomials descend, as terms do
        x_rows = [
            MultiPoly(ring, tuple((monos[j] - g, row[j]) for j in sorted(row)))
            for row in d
            if row and min(row) in x_cols and max(row) in x_cols
        ]
        if x_rows:
            return _to_x_ring(ring, x_rows, model.x_vars)
    raise Inconclusive("the Macaulay matrix has no x-only row at degree 2")
