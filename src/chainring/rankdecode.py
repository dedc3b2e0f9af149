"""Rank-metric decoding over Galois extensions of finite PIRs.

Four solver routes, all re-verified against the rank bound: the skew
key-equation solved by linearization (Hermite form) or by Gröbner expansion
over the base ring, and the reduction to MinRank solved by Kipnis-Shamir or
by Support-Minors.  Support-Minors has one model, minrank.sm_model: decoding
reduces to MinRank, splits on a unit Plücker coordinate there and solves
each split by the x-only rows of its Macaulay matrix (sm-linearization).
A product extension is a product ring, split through the CRT.

Every route returns the sorted list of rank-verified x.  The complete
routes (sm, groebner, minrank-ks) return an empty list when no x lies within
the radius; linearization, which is not complete, never returns an empty
list.  A route that cannot settle the word raises Inconclusive or
ResourceExceeded, and decode falls through to the next one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, Inconclusive, NoSolution, ParseError, ResourceExceeded
from .extension import (
    GaloisExtension,
    ProductExtension,
    _coordinate_rows,
    extension_from_json,
    payload_vector_rank,
)
from .linalg import RingMatrix, hermite_form
from .minrank import MinRankInstance, _bilinear, minrank_candidates
from .polys import MultiPoly, PolyRing
from .rings import Ring, RingElement, _as_list, _int_field, crt_apply, crt_parts
from .solve import enumeration_budget, join_solutions, x_block_solutions


@dataclass(frozen=True)
class RankDecodingInstance:
    """Find c = xG with rank(y - c) <= r over the extension S of R."""

    ext: GaloisExtension | ProductExtension
    generator: tuple[tuple[RingElement, ...], ...]
    received: tuple[RingElement, ...]
    radius: int

    def __post_init__(self):
        if not self.generator or not self.received:
            raise DomainError("empty generator or received word")
        n = len(self.received)
        if any(len(row) != n for row in self.generator):
            raise DomainError("generator width must match the received word")
        if self.radius < 0:
            raise DomainError("radius must be >= 0")

    @property
    def k(self) -> int:
        return len(self.generator)

    @property
    def n(self) -> int:
        return len(self.received)

    def codeword(self, x: Sequence[RingElement]) -> tuple[RingElement, ...]:
        return tuple(RingElement(self.ext, c) for c in self._codeword_data(x))

    def error_of(self, x: Sequence[RingElement]) -> tuple[RingElement, ...]:
        return tuple(RingElement(self.ext, e) for e in self._error_data(self._codeword_data(x)))

    def _codeword_data(self, x: Sequence[RingElement]) -> list:
        """The payloads of the codeword xG."""
        S = self.ext
        add, mul = S._payload_add, S._payload_mul
        zero = S._zero_data
        x = [S.coerce(v).data for v in x]
        terms = [(xi, row) for xi, row in zip(x, self.generator) if xi != zero]
        out = []
        for j in range(self.n):
            c = zero
            for xi, row in terms:
                c = add(c, mul(xi, row[j].data))
            out.append(c)
        return out

    def _error_data(self, c: list) -> list:
        """The payloads of y - c for the payloads c of a codeword."""
        S = self.ext
        add, neg = S._payload_add, S._payload_neg
        return [add(y.data, neg(cj)) for y, cj in zip(self.received, c)]

    def _solution(self, x: Sequence[RingElement]) -> tuple:
        """(x, c, e) with c = xG and e = y - c."""
        S = self.ext
        c = self._codeword_data(x)
        e = self._error_data(c)
        return (x, tuple(RingElement(S, v) for v in c), tuple(RingElement(S, v) for v in e))

    def check(self, x: Sequence[RingElement]) -> bool:
        """rank(y - xG) <= radius, on payloads; over a product extension, in
        every CRT component."""
        S = self.ext
        e = self._error_data(self._codeword_data(x))
        parts = crt_parts(S, (S, e), lambda idx, C: (C, [v[idx].data for v in e]))
        return all(payload_vector_rank(C, part) <= self.radius for C, part in parts)

    def to_json(self):
        S = self.ext
        return {
            "extension": self.ext.to_json(),
            "generator": [[S.element_to_json(v) for v in row] for row in self.generator],
            "received": [S.element_to_json(v) for v in self.received],
            "radius": self.radius,
        }

    @classmethod
    def from_json(cls, obj) -> "RankDecodingInstance":
        S = extension_from_json(obj["extension"])
        gen = generator_from_json(S, obj["generator"])
        rec = word_from_json(S, obj["received"], "received")
        if "radius" not in obj:
            raise ParseError("instance needs the radius")
        return cls(S, gen, rec, _int_field(obj, "radius"))


def word_from_json(S: Ring, value, key: str) -> tuple[RingElement, ...]:
    """A JSON list of elements of S; anything else is malformed input."""
    return tuple(S.element_from_json(v) for v in _as_list(value, key))


def generator_from_json(S: Ring, value) -> tuple[tuple[RingElement, ...], ...]:
    """A generator matrix: a JSON list of rows, each a list of elements."""
    return tuple(word_from_json(S, row, "generator") for row in _as_list(value, "generator"))


# -- reduction to MinRank ---------------------------------------------------------


def to_minrank(rd: RankDecodingInstance) -> MinRankInstance:
    """M0 = rep(-y), M_(i,u) = rep(alpha^u * g_i), with rep the
    coordinate matrix of matrix_representation; x-coordinates recombine as
    x_i = sum_u x_(i,u) alpha^u.  Computed on payloads; nothing is boxed."""
    S = rd.ext
    if isinstance(S, ProductExtension):
        raise DomainError("split product instances before the MinRank reduction")
    base = S.base
    mul = S._payload_mul
    alpha_pows = [S._payload_pow(S.alpha.data, u) for u in range(S.degree)]

    def rep(payloads) -> RingMatrix:
        return RingMatrix._from_payloads(base, _coordinate_rows(S, payloads), len(payloads))

    mats = tuple(rep([mul(a, g.data) for g in row]) for row in rd.generator for a in alpha_pows)
    m0 = rep([S._payload_neg(v.data) for v in rd.received])
    return MinRankInstance(base, mats, max(rd.radius, 0), m0)


def minrank_x_to_codeword_x(
    rd: RankDecodingInstance, x_flat: Sequence[RingElement]
) -> tuple[RingElement, ...]:
    """x_i = sum_u x_(i,u) alpha^u.  The powers alpha^u with u < m are the
    coordinate basis of S, so the x_(i,u) are x_i's coordinates."""
    S = rd.ext
    m = S.degree
    return tuple(S.element(x_flat[i * m : (i + 1) * m]) for i in range(rd.k))


# -- key-equation variable names ---------------------------------------------------


def _x_names(k: int, m: int) -> list[str]:
    if k == 1:
        return [f"x{u}" for u in range(m)]
    return [f"x{i + 1}_{u}" for i in range(k) for u in range(m)]


def _z_tilde_names(r: int, m: int) -> list[str]:
    if r == 1:
        return [f"t{v}" for v in range(m)]
    return [f"z{l}_{v}" for l in range(r) for v in range(m)]


# -- Support-Minors through the MinRank reduction ----------------------------------


def solve_sm_rd(rd: RankDecodingInstance) -> list[tuple[RingElement, ...]]:
    """All x within the radius, from the x-only rows of the degree-b
    Macaulay matrix of the Support-Minors model of to_minrank(rd), one unit
    Plücker coordinate at a time (minrank.macaulay_x_block).  The matrices
    are built once per word, homogeneous in the Plücker coordinates, and
    each unit coordinate's matrix is a column permutation of them.

    Complete: if x is within the radius, rank(M_x) <= r, so row(M_x) lies in
    a free rank-r module with a unit maximal minor at some r-subset J, and
    the scaled Plücker coordinates of that module extend x to a zero of
    sm_model(inst, J); the unit split therefore loses no solution.  Every
    x-only row is an R-combination of the model's equations times
    x-monomials, so every zero's x block satisfies it.  Sound: each candidate
    passes rd.check.  Inconclusive when some J leaves no x-only row at b = 2.
    A radius >= n leaves no equation and every x qualifies: they are
    enumerated within the budget.
    """
    return _verified_xs(rd, minrank_candidates(to_minrank(rd), "sm-linearization"))


def _verified_xs(rd: RankDecodingInstance, x_flats) -> list[tuple[RingElement, ...]]:
    """The distinct x (from base-ring coordinates) within the rank bound,
    in canonical order; rd.check is the only rank test each candidate gets."""
    S = rd.ext
    found = {}
    for x_flat in x_flats:
        x = minrank_x_to_codeword_x(rd, x_flat)
        key = tuple(S.sort_key(v) for v in x)
        if key not in found and rd.check(x):
            found[key] = x
    return [found[k] for k in sorted(found)]


# -- skew key equation --------------------------------------------------------------


@dataclass(frozen=True)
class KeyEquationSystem:
    """sum_l z_l sigma^l(y) = sum_l z_l sigma^l(xG) with z_r = 1, plus its
    coordinates over R in the alpha basis, bilinear in
    x~ = (x_{1,1}..x_{k,m}) and z~ = (z_{0,1}..z_{r-1,m})."""

    rd: RankDecodingInstance
    s_ring: PolyRing
    s_equations: tuple[MultiPoly, ...]
    r_ring: PolyRing
    r_equations: tuple[MultiPoly, ...]
    z_vars: tuple[int, ...]
    x_vars: tuple[int, ...]


def key_equation_model(rd: RankDecodingInstance) -> KeyEquationSystem:
    """Equation j is sum_l z_l sigma^l(x g_j - y_j), built from payload
    terms as minrank's models are (_bilinear): entry alpha^v sigma^l(x g_j -
    y_j) times z_(l,v) for l < r, and sigma^r(x g_j - y_j) alone, its x_(i,u)
    coefficients alpha^v sigma^l(g_ij) sigma^l(alpha^u), zeros dropped.  The
    R form splits each S term into its coordinates, in the same order."""
    if isinstance(rd.ext, ProductExtension):
        raise DomainError("split product instances before modeling")
    S: GaloisExtension = rd.ext
    base = S.base
    m = S.degree
    r = rd.radius
    k = rd.k
    z_names = _z_tilde_names(r, m)
    x_names = _x_names(k, m)
    names = z_names + x_names
    s_ring = PolyRing(S, names, "lex")
    r_ring = PolyRing(base, names, "lex")
    z_vars = tuple(range(len(z_names)))
    x_vars = tuple(range(len(z_names), len(names)))
    mul, neg, frob, zero = S._payload_mul, S._payload_neg, S._payload_frobenius, S._zero_data
    alpha_pows = [S._payload_pow(S.alpha.data, u) for u in range(m)]
    x_monos = [s_ring._gens[v] for v in x_vars]

    def entry(w: list, a) -> list:
        """The nonzero terms of a * w, for w's (monomial, payload) terms."""
        return [(xm, x) for xm, c in w if (x := mul(a, c)) != zero]

    s_equations = []
    for j in range(rd.n):
        products = []
        for l in range(r + 1):
            # sigma^l(x g_j - y_j), its x terms descending, the constant last
            sigma_alpha = [frob(a, l) for a in alpha_pows]
            w = []
            for i, row in enumerate(rd.generator):
                g = frob(row[j].data, l)
                w += [(x_monos[i * m + u], mul(g, a)) for u, a in enumerate(sigma_alpha)]
            w.append((0, neg(frob(rd.received[j].data, l))))
            if l == r:
                products.append(([(xm, c) for xm, c in w if c != zero], 0, False))
            else:
                products += [(entry(w, a), s_ring._gens[z_vars[l * m + v]], False) for v, a in enumerate(alpha_pows)]
        s_equations.append(_bilinear(s_ring, products))
    coords, base_zero = S._coords, base._zero_data
    r_equations = []
    for eq in s_equations:
        split = [[] for _ in range(m)]
        for mono, c in eq._terms:
            for t, x in enumerate(coords(c)):
                if x != base_zero:
                    split[t].append((mono, x))
        r_equations += [MultiPoly(r_ring, tuple(terms)) for terms in split]

    return KeyEquationSystem(rd, s_ring, tuple(s_equations), r_ring, tuple(r_equations), z_vars, x_vars)


def linearization_matrix(rd: RankDecodingInstance) -> RingMatrix:
    """Columns -sigma^0(y^T) .. -sigma^(r-1)(y^T) | sigma^0(G^T) ..
    sigma^r(G^T) | -sigma^r(y^T), one row per code position.  Computed on
    payloads (Frobenius through the ring's sigma matrices); nothing is boxed."""
    S: GaloisExtension = rd.ext
    r = rd.radius
    frob, neg = S._payload_frobenius, S._payload_neg

    def neg_y(l):
        return [neg(frob(v.data, l)) for v in rd.received]

    cols = [neg_y(l) for l in range(r)]
    cols += [[frob(v.data, l) for v in row] for l in range(r + 1) for row in rd.generator]
    cols.append(neg_y(r))
    zero = S._zero_data
    rows = [{c: col[j] for c, col in enumerate(cols) if col[j] != zero} for j in range(rd.n)]
    return RingMatrix._from_payloads(S, rows, len(cols))


def solve_key_linearization(rd: RankDecodingInstance) -> tuple[RingElement, ...]:
    """Hermite-form shortcut: when T ends in a block (I_k | b), the solution
    is x = -sigma^(-r)(b^T).  Raises Inconclusive when the shape is absent."""
    S: GaloisExtension = rd.ext
    r = rd.radius
    k = rd.k
    A = linearization_matrix(rd)
    T = hermite_form(A).t._rows
    top = r * (k + 1)
    width = (k + 1) * (r + 1)
    if A.n != width or len(T) < top + k:
        raise Inconclusive("not enough rows for the block shape")
    for i in range(k):
        row = T[top + i]
        if min(row, default=top) < top:
            raise Inconclusive("T3 block not isolated")
        if {j: v for j, v in row.items() if j < top + k} != {top + i: S.one.data}:
            raise Inconclusive("T3 block is not (I | b)")
    if any(T[top + k :]):
        raise Inconclusive("nonzero rows below the block")
    b = [RingElement(S, T[top + i].get(width - 1, S._zero_data)) for i in range(k)]
    x = tuple(S.neg(S.frobenius(v, -r)) for v in b)
    if not rd.check(x):
        raise Inconclusive("linearization candidate fails the rank bound")
    return x


def solve_key_groebner(rd: RankDecodingInstance) -> list[tuple[RingElement, ...]]:
    """All x within the radius, from the Gröbner basis of the R-expansion
    under lex z~ > x~: the x-part of the elimination ideal pins x.

    Complete: if x is within the radius, its error's support lies in a free
    rank-r module (linalg.free_envelope), whose monic annihilator of q-degree
    r vanishes on the error; its coefficients extend x to a zero of the
    key-equation model with z_r = 1, so the x block of the elimination keeps
    x.  Sound: each candidate passes rd.check.  Empty when no x qualifies."""
    model = key_equation_model(rd)
    return _verified_xs(rd, x_block_solutions(model.r_ring, model.r_equations, model.x_vars))


# -- the decoding pipeline ------------------------------------------------------------


@dataclass(frozen=True)
class DecodeResult:
    solutions: tuple  # tuples (x, c, e), every one rank-verified
    strategy_used: str

    @property
    def unique(self) -> bool:
        return len(self.solutions) == 1

    @property
    def x(self):
        return self.solutions[0][0]

    @property
    def c(self):
        return self.solutions[0][1]

    @property
    def e(self):
        return self.solutions[0][2]


# strategy -> route; each entry looks its solver up when called, so a
# wrapper installed on the module attribute (tracing) is seen
ROUTES = {
    "linearization": lambda rd: [solve_key_linearization(rd)],
    "sm": lambda rd: solve_sm_rd(rd),
    "groebner": lambda rd: solve_key_groebner(rd),
    "minrank-ks": lambda rd: _verified_xs(rd, minrank_candidates(to_minrank(rd), "ks")),
}

_AUTO_ORDER = ("linearization", "sm", "groebner", "minrank-ks")


def decode(rd: RankDecodingInstance, strategy: str = "auto") -> DecodeResult:
    """Decoding pipeline: CRT split, per-component strategy chain
    (linearization, Support-Minors, Gröbner expansion, MinRank-KS), exact
    recombination; NoSolution only after brute-force confirmation."""
    if strategy != "auto" and strategy not in ROUTES:
        raise DomainError(f"unknown strategy {strategy!r}")

    def join(S, results):
        """The decoding over a product extension from its components'."""
        results = list(results)
        xs = join_solutions(S, [[sol[0] for sol in res.solutions] for res in results])
        strategies = ",".join(sorted({res.strategy_used for res in results}))
        return DecodeResult(tuple(rd._solution(x) for x in xs), strategies)

    return crt_apply(rd.ext, split_decoding(rd), decode, join, _decode_chain, strategy)


def _decode_chain(rd: RankDecodingInstance, strategy: str) -> DecodeResult:
    order = _AUTO_ORDER if strategy == "auto" else (strategy,)
    errors = []
    for strat in order:
        try:
            xs = ROUTES[strat](rd)
        except (Inconclusive, ResourceExceeded) as exc:
            errors.append(f"{strat}: {exc}")
            continue
        if not xs:
            # only a complete route returns an empty list; confirm by brute
            # force within the budget before giving up
            _confirm_empty(rd)
            raise NoSolution("no codeword within the radius (brute-confirmed)")
        return DecodeResult(tuple(rd._solution(x) for x in xs), strat)
    raise Inconclusive(f"all strategies inconclusive: {'; '.join(errors)}")


def _confirm_empty(rd: RankDecodingInstance):
    S = rd.ext
    if S.size**rd.k > enumeration_budget():
        raise ResourceExceeded("cannot brute-confirm emptiness within the budget")
    for combo in itertools.product(list(S.elements()), repeat=rd.k):
        if rd.check(combo):
            raise Inconclusive(
                "strategies missed an existing solution; instance kept for analysis"
            )


def split_decoding(rd: RankDecodingInstance) -> list[RankDecodingInstance]:
    """The instance in each CRT component of its extension; [rd] over a chain ring."""

    def part(idx, C):
        gen = tuple(tuple(v.data[idx] for v in row) for row in rd.generator)
        return RankDecodingInstance(C, gen, tuple(v.data[idx] for v in rd.received), rd.radius)

    return crt_parts(rd.ext, rd, part)
