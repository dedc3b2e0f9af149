"""Independent brute-force reference implementations.

These certify the other modules at desk scale and deliberately avoid their
code paths: rank comes from generating-subset search or module cardinalities
(never the Smith form), solving from plain enumeration, annihilators from
coefficient enumeration.  Budgets refuse oversized inputs instead of
degrading.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import BudgetExceeded, DomainError, InternalInvariant
from .extension import ProductExtension
from .linalg import RingMatrix
from .minrank import MinRankInstance
from .polys import MultiPoly
from .rings import ChainRing, ProductRing, RingElement, Zpk
from .skew import SkewPoly
from .solve import SolutionSet, enumeration_budget


@dataclass(frozen=True)
class OracleBudget:
    """Hard cap on enumeration size; oracles raise rather than degrade."""

    max_enumeration: int = field(default_factory=enumeration_budget)

    def check(self, n: int, what: str = "enumeration"):
        if n > self.max_enumeration:
            raise BudgetExceeded(f"{what} needs {n} > budget {self.max_enumeration}")


DEFAULT_BUDGET = OracleBudget()


# -- module helpers (additive closure; oracle-local) -------------------------------


def module_elements(ring, generators, budget: OracleBudget = DEFAULT_BUDGET):
    """All elements of the module generated by the given vectors: the sumset
    R*g_1 + ... + R*g_t, built one generator at a time.  The budget is checked
    on every insertion, so memory never exceeds it by more than one entry."""
    zero = tuple(ring.zero for _ in (generators[0] if generators else ()))
    elems = list(ring.elements())
    seen = {zero}
    for g in generators:
        multiples = {tuple(ring.mul(c, v) for v in g) for c in elems}
        nxt = set()
        for u in seen:
            for w in multiples:
                s = tuple(ring.add(a, b) for a, b in zip(u, w))
                if s not in nxt:
                    budget.check(len(nxt) + 1, "module closure")
                    nxt.add(s)
        seen = nxt
    return seen


def _module_log_size(ring: ChainRing, generators, budget: OracleBudget) -> int:
    M = module_elements(ring, generators, budget)
    size = len(M)
    # size is a power of p; return log_q
    logp = 0
    while size > 1:
        size //= ring.p
        logp += 1
    q_log = 0
    q = ring.q
    while q > 1:
        q //= ring.p
        q_log += 1
    if logp % q_log:
        raise InternalInvariant("module size is not a power of q")
    return logp // q_log


def brute_rank(A: RingMatrix, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Minimal generating-subset search over row(A), per the definition."""
    ring = A.ring
    if isinstance(ring, ProductRing):
        return max(
            brute_rank(_component_matrix(A, idx, comp), budget)
            for idx, comp in enumerate(ring.components)
        )
    rows = [tuple(r) for r in A.rows]
    module = module_elements(ring, rows, budget)
    if len(module) == 1:
        return 0
    elems = sorted(module, key=lambda v: tuple(ring.sort_key(x) for x in v))
    for t in range(1, A.m + 1):
        budget.check(math.comb(len(elems), t), "subset search")
        for subset in itertools.combinations(elems, t):
            if len(module_elements(ring, list(subset), budget)) == len(module):
                return t
    return A.m


def _component_matrix(A: RingMatrix, idx: int, comp) -> RingMatrix:
    """A's image in CRT component idx (oracle-local projection)."""
    return RingMatrix(comp, [[x.data[idx] for x in row] for row in A.rows])


def rank_leq_by_cardinality(
    ring: ChainRing, rows, r: int, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """rank(A) <= r via rank = log_q|row(A)| - log_q|pi row(A)|; Smith-free."""
    lam0 = _module_log_size(ring, rows, budget)
    pi_rows = [tuple(ring.mul(ring.pi_element, x) for x in row) for row in rows]
    lam1 = _module_log_size(ring, pi_rows, budget)
    return lam0 - lam1 <= r


# -- system solving ------------------------------------------------------------------


def brute_solve(
    polys: list[MultiPoly], budget: OracleBudget = DEFAULT_BUDGET
) -> SolutionSet:
    """Enumerate the full ring power in canonical order."""
    if not polys:
        raise DomainError("empty system")
    ring = polys[0].ring
    R = ring.ring
    k = ring.nvars
    budget.check(R.size**k, "solution enumeration")
    elems = sorted(R.elements(), key=R.sort_key)
    sols = set()
    live = [p for p in polys if not p.is_zero()]
    for point in itertools.product(elems, repeat=k):
        if all(p.evaluate(list(point)).is_zero() for p in live):
            sols.add(tuple(point))
    return SolutionSet(R, ring.variables, frozenset(sols))


def brute_ideal_slice(
    polys: list[MultiPoly], max_deg: int, budget: OracleBudget = DEFAULT_BUDGET
):
    """All ideal elements expressible as combinations with cofactor monomials
    of degree <= max_deg - deg(f_i); a finite module closure."""
    ring = polys[0].ring
    R = ring.ring
    monos = _monomials_up_to(ring.nvars, max_deg)
    mono_index = {mo: i for i, mo in enumerate(monos)}
    gens = []
    for f in polys:
        if f.is_zero():
            continue
        for mo in monos:
            shifted = f.term_mul(mo, R.one)
            if shifted.total_degree() > max_deg:
                continue
            vec = [R.zero] * len(monos)
            for e, c in shifted.terms:
                vec[mono_index[e]] = c
            gens.append(tuple(vec))
    closure = module_elements(R, gens, budget)

    def poly_key(f: MultiPoly):
        vec = [R.zero] * len(monos)
        for e, c in f.terms:
            if e not in mono_index:
                return None
            vec[mono_index[e]] = c
        return tuple(vec)

    return closure, monos, poly_key


def _monomials_up_to(nvars: int, d: int):
    out = []
    for total in range(d + 1):
        for combo in itertools.product(range(d + 1), repeat=nvars):
            if sum(combo) == total:
                out.append(combo)
    return out


# -- MinRank ---------------------------------------------------------------------------


def brute_minrank(
    inst: MinRankInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> list[tuple[RingElement, ...]]:
    """Exhaust x over R^k, testing the rank bound without Smith forms."""
    R = inst.ring
    k = inst.k
    budget.check(R.size**k, "MinRank enumeration")
    if isinstance(R, Zpk):
        return _brute_minrank_zpk(inst, budget)
    if isinstance(R, ProductRing):
        comp_sols = []
        for idx, comp in enumerate(R.components):
            mats = tuple(_component_matrix(M, idx, comp) for M in inst.matrices)
            m0 = _component_matrix(inst.m0, idx, comp) if inst.m0 is not None else None
            comp_sols.append(brute_minrank(MinRankInstance(comp, mats, inst.r, m0), budget))
        out = []
        for combo in itertools.product(*comp_sols):
            out.append(
                tuple(
                    RingElement(R, tuple(sol[i] for sol in combo)) for i in range(k)
                )
            )
        return sorted(out, key=lambda x: tuple(R.sort_key(v) for v in x))
    sols = []
    elems = sorted(R.elements(), key=R.sort_key)
    for x in itertools.product(elems, repeat=k):
        rows = [tuple(row) for row in inst.mx(x).rows]
        if rank_leq_by_cardinality(R, rows, inst.r, budget):
            sols.append(tuple(x))
    return sols


# x rows per kernel chunk are sized so that one chunk's products hold about
# this many int64 entries (16 MB), whatever |R|^k is
_KERNEL_CHUNK_ENTRIES = 1 << 21


def _brute_minrank_zpk(inst: MinRankInstance, budget: OracleBudget):
    import numpy as np

    R: Zpk = inst.ring
    M = R.modulus
    k = inst.k
    m, n = inst.shape
    budget.check(M**m * 4, "kernel enumeration")
    mats = np.array(
        [[[v.data for v in row] for row in Mi.rows] for Mi in inst.matrices],
        dtype=np.int64,
    )
    m0 = (
        np.array([[v.data for v in row] for row in inst.m0.rows], dtype=np.int64)
        if inst.m0 is not None
        else np.zeros((m, n), dtype=np.int64)
    )
    xs = np.array(list(itertools.product(range(M), repeat=k)), dtype=np.int64)
    mx = (np.tensordot(xs, mats, axes=(1, 0)) + m0) % M  # (N, m, n)
    cs = np.array(list(itertools.product(range(M), repeat=m)), dtype=np.int64)

    def log_row_size(mats_all):
        ker = np.empty(len(mats_all), dtype=np.int64)  # |left kernel| per x
        step = max(1, _KERNEL_CHUNK_ENTRIES // (len(cs) * n))
        for lo in range(0, len(mats_all), step):
            prod = np.einsum("cm,xmn->xcn", cs, mats_all[lo : lo + step]) % M
            ker[lo : lo + step] = (prod == 0).all(axis=2).sum(axis=1)
        sizes = (M**m) // ker
        logs = np.zeros(len(sizes), dtype=np.int64)
        s = sizes.copy()
        while (s > 1).any():
            mask = s > 1
            logs[mask] += 1
            s[mask] //= R.p
        return logs

    lam0 = log_row_size(mx)
    lam1 = log_row_size((mx * R.p) % M)
    good = (lam0 - lam1) <= inst.r
    out = []
    for flat, ok in zip(xs, good):
        if ok:
            out.append(tuple(R.element(int(v)) for v in flat))
    return out


# -- skew annihilators --------------------------------------------------------------------


def brute_annihilators(ext, u, r: int, budget: OracleBudget = DEFAULT_BUDGET):
    """Every monic degree-r skew polynomial annihilating u."""
    u = [ext.coerce(x) for x in u]
    budget.check(ext.size**r, "annihilator enumeration")
    elems = sorted(ext.elements(), key=ext.sort_key)
    out = []
    for tail in itertools.product(elems, repeat=r):
        f = SkewPoly(ext, list(tail) + [ext.one])
        if all(f.evaluate(x).is_zero() for x in u):
            out.append(f)
    return out


# -- vanishing polynomial --------------------------------------------------------------------


def brute_vanishing_poly(ring: ChainRing, budget: OracleBudget = DEFAULT_BUDGET):
    """Minimal-degree monic vanishing polynomial by breadth-first search over
    degrees, coefficient tails enumerated lexicographically (low-degree
    coefficient slowest); coefficients returned low-to-high."""
    if isinstance(ring, Zpk):
        return _brute_vanishing_zpk(ring, budget)
    elems = sorted(ring.elements(), key=ring.sort_key)
    d = 1
    while True:
        budget.check(ring.size**d, "vanishing-poly enumeration")
        for tail in itertools.product(elems, repeat=d):
            coeffs = list(tail) + [ring.one]
            if all(_eval_unipoly(ring, coeffs, x).is_zero() for x in elems):
                return coeffs
        d += 1


def _eval_unipoly(ring, coeffs, x):
    acc = ring.zero
    for c in reversed(coeffs):
        acc = ring.add(ring.mul(acc, x), c)
    return acc


def _brute_vanishing_zpk(ring: Zpk, budget: OracleBudget):
    import numpy as np

    M = ring.modulus
    pts = np.arange(M, dtype=np.int64)
    d = 1
    while True:
        budget.check(M**d, "vanishing-poly enumeration")
        powers = np.stack([pow_mod_vec(pts, i, M) for i in range(d)])  # (d, M)
        top = pow_mod_vec(pts, d, M)
        tails = itertools.product(range(M), repeat=d)
        while True:
            block = list(itertools.islice(tails, 1 << 15))
            if not block:
                break
            C = np.array(block, dtype=np.int64)  # (B, d)
            vals = (C @ powers + top) % M  # (B, M)
            hits = np.nonzero((vals == 0).all(axis=1))[0]
            if len(hits):
                tail = block[int(hits[0])]
                coeffs = [ring.element(int(c)) for c in tail] + [ring.one]
                return coeffs
        d += 1


def pow_mod_vec(xs, e: int, M: int):
    import numpy as np

    out = np.ones_like(xs)
    base = xs % M
    while e:
        if e & 1:
            out = (out * base) % M
        base = (base * base) % M
        e >>= 1
    return out


# -- free envelopes --------------------------------------------------------------------------


def brute_free_envelopes(
    E: RingMatrix, r: int, budget: OracleBudget = DEFAULT_BUDGET
):
    """All rank-r free submodules containing row(E), as canonical generator
    matrices (desk scale; r = 1 or tiny)."""
    ring = E.ring
    n = E.n
    budget.check(ring.size ** (n * r), "envelope enumeration")
    target = module_elements(ring, [tuple(row) for row in E.rows], budget)
    elems = sorted(ring.elements(), key=ring.sort_key)
    vectors = list(itertools.product(elems, repeat=n))
    seen_modules = {}
    for basis in itertools.combinations(vectors, r):
        if not _is_free_basis(ring, basis):
            continue
        mod = frozenset(module_elements(ring, list(basis), budget))
        if not target <= mod:
            continue
        if mod not in seen_modules:
            seen_modules[mod] = basis
    out = []
    for mod in seen_modules:
        gens = _canonical_generators(ring, mod, r, budget)
        out.append(gens)
    out.sort(key=lambda rows: tuple(ring.sort_key(x) for row in rows for x in row))
    return out


def _is_free_basis(ring, basis) -> bool:
    r = len(basis)
    for coeffs in itertools.product(list(ring.elements()), repeat=r):
        if all(c.is_zero() for c in coeffs):
            continue
        total = [ring.zero] * len(basis[0])
        for c, vec in zip(coeffs, basis):
            for i, v in enumerate(vec):
                total[i] = ring.add(total[i], ring.mul(c, v))
        if all(t.is_zero() for t in total):
            return False
    return True


def _canonical_generators(ring, module: frozenset, r: int, budget: OracleBudget):
    """Lexicographically smallest free basis of the module."""
    elems = sorted(module, key=lambda v: tuple(ring.sort_key(x) for x in v))
    for basis in itertools.combinations(elems, r):
        if not _is_free_basis(ring, basis):
            continue
        if len(module_elements(ring, list(basis), budget)) == len(module):
            return tuple(basis)
    raise DomainError("module admitted no free basis of the requested rank")


# -- rank weight of extension vectors (decoding oracle) ----------------------------------------


def brute_vector_rank(ext, u, budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Rank of a vector over the extension via module cardinalities."""
    base = ext.base
    rows = [ext.coords(ext.coerce(x)) for x in u]
    lam0 = _module_log_size(base, rows, budget)
    pi_rows = [tuple(base.mul(base.pi_element, c) for c in row) for row in rows]
    lam1 = _module_log_size(base, pi_rows, budget)
    return lam0 - lam1


def brute_decode_set(rd, budget: OracleBudget = DEFAULT_BUDGET):
    """All x in S^k whose error has rank weight <= r (independent of the
    decoding strategies); over a product extension the weight is the
    largest of the components'."""
    ext = S = rd.ext
    budget.check(S.size**rd.k, "decoding enumeration")
    if isinstance(ext, ProductExtension):
        comps = list(enumerate(ext.components))

        def weight(e):
            return max(brute_vector_rank(c, [v.data[i] for v in e], budget) for i, c in comps)

    else:

        def weight(e):
            return brute_vector_rank(ext, e, budget)

    out = []
    elems = sorted(S.elements(), key=S.sort_key)
    for x in itertools.product(elems, repeat=rd.k):
        if weight(rd.error_of(x)) <= rd.radius:
            out.append(tuple(x))
    return out
