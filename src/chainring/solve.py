"""Solution sets of polynomial systems over chain rings and PIRs.

Two routes that differ in elimination: lexicographic elimination with
back-substitution, and direct multivariate lifting of the whole system.
Both lift residue-field solutions one π-adic digit at a time.  One variable
goes through the univariate Hensel kernel (_hensel_roots), which evaluates
dense payload coefficient lists by Horner's rule and lifts each residue
root by one division where some member's derivative is a unit mod π.
Several variables go through _lift_roots, which carries each branch as a
point c of R^k, a tuple of ring payloads, and extends it one level at a
time by a residue-field linear solve; only the roots are boxed.  The
system is compiled once, through one monomial table (polys.compile_polys),
and its points are evaluated by the ring's kernels (_payload_evaluate, and
_payload_gradient for the Jacobian).  Each surviving residue root's
Jacobian is factored once by the ring's _residue_solver, whose log every
branch at every level above the root replays on its right-hand side; Zpk
runs all three kernels on native ints.  Back-substitution's univariate
roots go through the Hensel kernel, and its last level runs on dense
payload lists: each value of the next-to-last variable specialises the
basis straight into coefficient lists in the last variable, whose roots
are emitted as they are.  Within one call, back-substitution solves each
distinct specialised system once and replays its solutions where it meets
the system again.
The x-block tail that MinRank and decoding share combines the two routes
under one route rule (_lifts): a small model is lifted whole and projected
onto x (_lifted_x_block); otherwise elimination gives the x-only system,
and a small x block is lifted (_x_only_solutions).
The system is solved as given: adjoining the field equations F_m, which
vanish at every point of R, never changes a solution set.  The independent
reference is oracles.brute_solve.  A product ring's system splits into its
CRT components, whose answers join (rings.crt_apply, join_solutions).
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from . import _unipoly as up
from .errors import (
    DomainError,
    InternalInvariant,
    ResourceExceeded,
    TooLarge,
    WrongOrder,
)
from .groebner import buchberger
from .linalg import payload_echelon
from .polys import (
    MAX_EXPONENT,
    MultiPoly,
    PolyRing,
    _univariate_var,
    compile_polys,
    lex_ring,
    macaulay_rows,
    split_compiled,
)
from .rings import ChainRing, Ring, RingElement, crt_apply, crt_joined, crt_parts


class _AllOfRing:
    """Marker for a coordinate that ranges over the entire ring."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ALL_OF_RING"


ALL_OF_RING = _AllOfRing()

DEFAULT_SOLUTION_CAP = 1 << 16
DESK_SCALE_RING_CAP = 1 << 16
# the x-only tail lifts a block only if Γ^k has at most this many points:
# the lift tests each of them, and on the KS x blocks of planted MinRank
# instances it took 0.16-0.77× elimination's time up to q^k = 343, tied at
# 289 (Z17) and was slower from q^k = 529 on (75× over Z251 with k = 2);
# the cap sits below every measured crossover
LIFT_RESIDUE_CAP = 1 << 7
# a whole model (z and x variables) is lifted instead of eliminated only if
# Γ^k has at most this many points: on planted rank-1 3x3 KS models the lift
# took 0.3-0.7× elimination's time at q^k = 16 (Z4, Z8), 0.07-0.15× at 32
# and 0.5× at 81 (Z9), on SM models 0.6-0.8× at 16, on n = 3, k = 1
# key-equation models 0.85× at 16; before the ring kernels it took 1.9× at
# 256 (GR(4,2)) and 2.7× on n = 6, k = 2 key-equation models at 64.  At 81
# every Z9 model of the minrank benchmark would be lifted and none would
# reach Buchberger
MODEL_LIFT_CAP = 1 << 5


def enumeration_budget() -> int:
    """Brute-force enumeration cap; CHAINRING_BUDGET overrides."""
    try:
        return int(os.environ.get("CHAINRING_BUDGET", ""))
    except ValueError:
        return 1 << 20


def _lifts(R: Ring, k: int, residue_cap: int) -> bool:
    """The route rule: a system in k variables over R is solved by the
    residue-field lift (_lift_roots) rather than by elimination when R is a
    chain ring, |R|^k <= DEFAULT_SOLUTION_CAP and q^k <= residue_cap and
    enumeration_budget().  The lift tests every point of Γ^k, so its cost
    grows with q^k where elimination's follows the system; residue_cap is
    the measured crossover of the caller's kind of system (LIFT_RESIDUE_CAP
    for x blocks, MODEL_LIFT_CAP for whole models).  Under the rule the lift
    cannot hit its cap: a level-j branch is a distinct point mod π^(j+1),
    so there are at most |R|^k of them."""
    return (
        isinstance(R, ChainRing)
        and R.size**k <= DEFAULT_SOLUTION_CAP
        and R.q**k <= min(residue_cap, enumeration_budget())
    )


@dataclass(frozen=True)
class SolutionSet:
    """Solutions as tuples over the ring, with ALL_OF_RING markers for free
    coordinates; every listed tuple re-verifies against the input system."""

    ring: Ring
    variables: tuple[str, ...]
    solutions: frozenset
    truncated: bool = False
    cap: int = DEFAULT_SOLUTION_CAP

    def count(self) -> int:
        total = 0
        for sol in self.solutions:
            n = 1
            for x in sol:
                if x is ALL_OF_RING:
                    n *= self.ring.size
            total += n
        return total

    def check_cap(self):
        """ResourceExceeded if the expanded set would pass the cap."""
        if self.count() > self.cap:
            raise ResourceExceeded(f"solution set larger than cap {self.cap}")

    def explicit(self) -> frozenset:
        """Fully expanded tuples (cap-guarded)."""
        self.check_cap()
        out = set()
        elems = None
        for sol in self.solutions:
            slots = []
            for x in sol:
                if x is ALL_OF_RING:
                    if elems is None:
                        elems = list(self.ring.elements())
                    slots.append(elems)
                else:
                    slots.append([x])
            for combo in itertools.product(*slots):
                out.add(tuple(combo))
        return frozenset(out)

    def __contains__(self, point) -> bool:
        point = tuple(self.ring.coerce(x) for x in point)
        for sol in self.solutions:
            if all(s is ALL_OF_RING or s == x for s, x in zip(sol, point)):
                return True
        return False

    def to_json(self):
        sols = []
        for sol in sorted(
            self.solutions,
            key=lambda s: tuple(
                (0,) if x is ALL_OF_RING else (1,) + self.ring.sort_key(x) for x in s
            ),
        ):
            sols.append(
                ["*" if x is ALL_OF_RING else self.ring.element_to_json(x) for x in sol]
            )
        return {
            "variables": list(self.variables),
            "solutions": sols,
            "truncated": self.truncated,
            "count": self.count() if not self.truncated else None,
        }


# -- the ring's vanishing polynomial F_m --------------------------------------


def _vanishing_product_length(q: int, nu: int) -> int:
    d = 1
    while True:
        total = d
        qj = q
        while qj <= d:
            total += d // qj
            qj *= q
        if total >= nu:
            return d
        d += 1


def vanishing_coefficients(R: ChainRing) -> list[RingElement]:
    """Coefficients (low to high) of the minimal monic F with F(x) = 0 on R.

    F = T(x^q - x) where T(y) = prod_{i<D} (y - b_i), b_i running through the
    pi-adic digit enumeration of pi*R and D the smallest length making every
    value's valuation reach nu.  Matches x^q - x for fields.
    """
    if R._vanishing is not None:
        return list(R._vanishing)
    if R.size > DESK_SCALE_RING_CAP:
        raise TooLarge(f"|R| = {R.size} exceeds the vanishing-polynomial cap")
    gamma = R.teichmuller_set()
    q, nu = R.q, R.nu
    D = _vanishing_product_length(q, nu)
    e_poly = [R.zero] * (q + 1)
    e_poly[1] = R.neg(R.one)
    e_poly[q] = R.add(e_poly[q], R.one)
    result = [R.one]
    for i in range(D):
        digits = []
        ii = i
        while ii:
            digits.append(gamma[ii % q])
            ii //= q
        b = R.mul(R.pi_element, R.pi_adic_compose(digits))
        factor = up.sub(R, e_poly, [b])
        result = up.mul(R, result, factor)
    if not all(up.evaluate(R, result, x).is_zero() for x in R.elements()):
        raise InternalInvariant("vanishing polynomial does not vanish on the ring")
    R._vanishing = tuple(result)
    return list(result)


def ring_vanishing_polynomial(
    R: ChainRing, poly_ring: PolyRing | None = None, var: int = 0
) -> MultiPoly:
    """F_m as a polynomial in poly_ring's var (fresh univariate ring if None)."""
    coeffs = vanishing_coefficients(R)
    if poly_ring is None:
        poly_ring = PolyRing(R, ("x",), "lex")
        var = 0
    terms = []
    for d, c in enumerate(coeffs):
        exps = [0] * poly_ring.nvars
        exps[var] = d
        terms.append((tuple(exps), c))
    return poly_ring.poly(terms)


# -- univariate solving --------------------------------------------------------


def univariate_roots(polys: Sequence[MultiPoly], var: int | None = None):
    """All roots in R of a univariate system; ALL_OF_RING for the zero ideal.

    The roots are lifted from the residue field by the Hensel kernel on
    the polynomials' dense payload lists in var (_hensel_roots); over a
    product ring each CRT component is solved and the roots are joined.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return ALL_OF_RING
    ring = polys[0].ring
    var = _univariate_var(polys, var)
    R = ring.ring
    roots = crt_apply(R, _split_polys(polys), univariate_roots, _join_roots, _chain_roots, var)
    roots.sort(key=R.sort_key)
    return roots


def _chain_roots(polys: list[MultiPoly], var: int) -> list:
    R = polys[0].ring.ring
    return [RingElement(R, x) for x in _hensel_roots(R, [_dense(p, var) for p in polys])]


def _dense(p: MultiPoly, var: int) -> tuple:
    """The payload coefficients of a nonzero p that uses no variable but
    var, lowest degree first; the first term has the highest degree."""
    s = p.ring._shifts[var]
    out = [p.ring.ring._zero_data] * (((p._terms[0][0] >> s) & MAX_EXPONENT) + 1)
    for m, c in p._terms:
        out[(m >> s) & MAX_EXPONENT] = c
    return tuple(out)


def _hensel_roots(R: ChainRing, fs: Sequence[Sequence]) -> list:
    """The common roots in R of dense payload polynomials fs (coefficient
    lists, lowest degree first, none zero), as ascending payloads, which
    is sort_key order.

    The lift of _lift_roots in one variable: level 0 evaluates every member
    by Horner at each γ0 in Γ.  A residue root γ0 is lifted one π-adic
    digit per level, c -> c + π^j z, and z solves d_f z = -(f(c)/π^j mod π)
    for every member f, where d_f is f'(γ0) mod π (f' is constant mod π on
    the branch).  If some d_f is a unit the one candidate is z = rhs/d_f,
    kept if the other members agree; if every d_f is ≡ 0, every z in Γ
    when every right-hand side is ≡ 0, and none otherwise.  Each final
    candidate is evaluated exactly, so the result is exact.
    """
    add, mul, neg = R._payload_add, R._payload_mul, R._payload_neg
    digit, quo_pi, residue = R._payload_digit, R._payload_quo_pi, R._payload_residue
    zero = R._zero_data
    zero_residue = residue(zero)

    def horner(f, x):
        v = f[-1]
        for i in range(len(f) - 2, -1, -1):
            v = add(mul(v, x), f[i])
        return v

    def slope(f, x):
        """f'(x), by Horner's rule carried along f's own."""
        v, d = f[-1], zero
        for i in range(len(f) - 2, -1, -1):
            d = add(mul(d, x), v)
            v = add(mul(v, x), f[i])
        return d

    gamma = [g.data for g in R.teichmuller_set()]
    roots = []
    for g0 in gamma:
        values = []
        for f in fs:
            v = horner(f, g0)
            if residue(v) != zero_residue:
                break
            values.append(v)
        else:
            if R.nu == 1:  # the values are exact
                if all(v == zero for v in values):
                    roots.append(g0)
                continue
            ds = [digit(slope(f, g0)) for f in fs]
            pivot = next((i for i, d in enumerate(ds) if d != zero), None)
            if pivot is not None:
                inv = R._payload_pow(ds[pivot], R.q - 2)  # Γ* has order q - 1
            branches = [g0]
            for j in range(1, R.nu):
                pi_j = R._payload_pi_power(j)
                lifted = []
                for c in branches:
                    # the only level-1 branch is g0, whose values level 0 kept
                    at_c = values if j == 1 else [horner(f, c) for f in fs]
                    rhs = [digit(neg(quo_pi(v, j))) for v in at_c]
                    if pivot is None:
                        if all(b == zero for b in rhs):
                            lifted += [add(c, mul(pi_j, z)) for z in gamma]
                    else:
                        z = mul(inv, rhs[pivot])
                        if all(residue(add(b, neg(mul(d, z)))) == zero_residue for b, d in zip(rhs, ds)):
                            lifted.append(add(c, mul(pi_j, z)))
                    if len(lifted) > DEFAULT_SOLUTION_CAP:
                        raise ResourceExceeded("lifting branch count exceeds cap")
                branches = lifted
            roots += [c for c in branches if all(horner(f, c) == zero for f in fs)]
    roots.sort()
    return roots


def _join_roots(R: Ring, parts: Iterable) -> list:
    """The roots over R from its CRT components' root lists (ALL_OF_RING
    where a component's image is zero); some component's image is nonzero,
    so no joined root stays free."""
    parts = ([(ALL_OF_RING,)] if roots is ALL_OF_RING else [(r,) for r in roots] for roots in parts)
    return [r for (r,) in join_solutions(R, parts)]


def solve_univariate(polys: Sequence[MultiPoly], var: int | None = None) -> SolutionSet:
    polys = list(polys)
    if not polys:
        raise DomainError("empty system")
    ring = polys[0].ring
    if var is None:
        used = set()
        for p in polys:
            used |= p.vars_used()
        var = next(iter(used)) if used else 0
    roots = univariate_roots(polys, var)
    name = (ring.variables[var],)
    if roots is ALL_OF_RING:
        return SolutionSet(ring.ring, name, frozenset({(ALL_OF_RING,)}))
    return SolutionSet(ring.ring, name, frozenset((r,) for r in roots))


# -- multivariate elimination solver -------------------------------------------


def solve_system(
    polys: Sequence[MultiPoly], max_solutions: int = DEFAULT_SOLUTION_CAP
) -> SolutionSet:
    """Exact solution set via lex Gröbner elimination and back-substitution;
    truncated once it passes max_solutions."""
    return _by_components(polys, max_solutions, solve_system, _eliminate)


def _eliminate(polys: list[MultiPoly], max_solutions: int) -> SolutionSet:
    """solve_system over a chain ring."""
    ring = polys[0].ring
    if ring.order.kind != "lex":
        raise WrongOrder("solve_system requires a lex order")
    R: ChainRing = ring.ring
    original = [p for p in polys if not p.is_zero()]
    found: list[tuple] = []
    emitted = [0]  # solutions the entries of found stand for
    truncated = [False]
    # (system terms, len(remaining), is_basis) -> (the remaining variables'
    # values of each solution its subtree emitted, the number they stand for)
    memo: dict = {}
    # a last level's dense system -> its roots
    last_roots: dict = {}

    def emit(assignment: dict):
        sol = tuple(assignment[i] for i in range(ring.nvars))
        found.append(sol)
        emitted[0] += R.size ** sum(x is ALL_OF_RING for x in sol)

    def last_level(system: tuple | None, var: int, assignment: dict):
        """Emit the solutions whose last unassigned variable var is a root
        of system, the nonzero dense payload lists in var that the branch
        leaves (None: a nonzero constant, a dead branch)."""
        if system is None:
            return
        if not system:
            roots = [ALL_OF_RING]
        else:
            roots = last_roots.get(system)
            # a replay past the cap solves the system again, as the memo
            # of the levels above recurses there
            if roots is not None:
                fixed_free = sum(x is ALL_OF_RING for x in assignment.values())
                if emitted[0] + len(roots) * R.size**fixed_free > max_solutions:
                    roots = None
            if roots is None:
                roots = last_roots[system] = [RingElement(R, x) for x in _hensel_roots(R, system)]
        for c in roots:
            assignment[var] = c
            emit(assignment)
        assignment.pop(var, None)
        if emitted[0] > max_solutions:
            truncated[0] = True

    def rec(system: list[MultiPoly], remaining: list[int], assignment: dict, is_basis: bool):
        system = [p for p in system if not p.is_zero()]
        if any(p.is_constant() for p in system):
            return  # nonzero constant: dead branch
        if len(remaining) < 2:  # the first call only; lower levels end in last_level
            if remaining:
                last_level(tuple(_dense(p, remaining[0]) for p in system), remaining[0], assignment)
            else:
                emit(assignment)
            return
        # the subtree depends on nothing else, so an equal system met on
        # another branch replays its solutions, unless they would cross the
        # cap: then it recurses as it would without the memo, so a truncated
        # answer lists the same solutions
        key = (tuple(p._terms for p in system), len(remaining), is_basis)
        known = memo.get(key)
        if known is not None:
            partials, count = known
            fixed_free = sum(x is ALL_OF_RING for x in assignment.values())
            if emitted[0] + count * R.size**fixed_free <= max_solutions:
                for partial in partials:
                    assignment.update(zip(remaining, partial))
                    emit(assignment)
                for v in remaining:
                    assignment.pop(v, None)
                return
        start = len(found)
        last = remaining[-1]
        if system and not is_basis:
            system = list(buchberger(system, ring).generators)
            is_basis = True
        if any(last in g.vars_used() for g in system):
            roots = univariate_roots([g for g in system if g.vars_used() <= {last}], last)
            candidates = list(R.elements()) if roots is ALL_OF_RING else roots
        else:
            # last is free: the basis holds for every value of it
            candidates = [ALL_OF_RING]
        if len(remaining) == 2:
            # one variable stays: each branch reads the basis as dense lists in it
            var = remaining[0]
            by_degree = [_by_degree(g, var, last) for g in system]
        for c in candidates:
            assignment[last] = c
            if len(remaining) == 2:
                last_level(_specialised(R, by_degree, c), var, assignment)
            elif c is ALL_OF_RING:  # the basis is unchanged
                rec(system, remaining[:-1], assignment, is_basis)
            else:
                rec([g.substitute(last, c) for g in system], remaining[:-1], assignment, False)
            del assignment[last]
            if truncated[0]:
                return
        if assignment:  # the root's system never recurs
            partials = [tuple(sol[v] for v in remaining) for sol in found[start:]]
            count = sum(R.size ** sum(x is ALL_OF_RING for x in p) for p in partials)
            memo[key] = (partials, count)

    rec(original, list(ring.order.priority), {}, False)
    solutions = frozenset(found)
    _verify_solutions(ring, original, solutions)
    return SolutionSet(R, ring.variables, solutions, truncated[0], max_solutions)


def _by_degree(g: MultiPoly, var: int, other: int) -> list[list]:
    """g, which uses no variable but var and other, as one list of terms
    per exponent of var, lowest first: each term compiled over other alone
    (polys.compile_polys' format), so the ring's _payload_evaluate gives the
    coefficient of that power of var at a value of other."""
    s, t = g.ring._shifts[var], g.ring._shifts[other]
    groups: list[list] = [[] for _ in range(g.degree_in(var) + 1)]
    for m, c in g._terms:
        e = (m >> t) & MAX_EXPONENT
        groups[(m >> s) & MAX_EXPONENT].append((c, ((0, e),) if e else ()))
    return groups


def _specialised(R: ChainRing, by_degree: list[list], c) -> tuple | None:
    """The polynomials that by_degree holds (one _by_degree list each) with
    the other variable set to c, as dense payload lists in var; c is a ring
    element, or ALL_OF_RING where no polynomial uses the other variable.
    Zero lists are dropped, and None stands for a nonzero constant."""
    evaluate, zero = R._payload_evaluate, R._zero_data
    point = (zero if c is ALL_OF_RING else c.data,)
    out = []
    for groups in by_degree:
        f = [evaluate(terms, point) for terms in groups]
        while f and f[-1] == zero:
            f.pop()
        if len(f) == 1:
            return None
        if f:
            out.append(tuple(f))
    return tuple(out)


def _verify_solutions(ring: PolyRing, original: list[MultiPoly], solutions):
    """InternalInvariant unless every tuple solves the original system.  A
    tuple with free coordinates must solve it for every value of them: for
    each monomial in the free variables, the fixed parts of its terms must
    sum to zero (polys.split_compiled), as substituting the fixed
    coordinates must leave the zero polynomial."""
    R = ring.ring
    evaluate, zero = R._payload_evaluate, R._zero_data
    system = compile_polys(original, range(ring.nvars))
    parts_by_free: dict = {}  # free positions -> the fixed parts to sum
    for sol in solutions:
        point = [None if x is ALL_OF_RING else x.data for x in sol]
        if None not in point:
            for f in system:
                if evaluate(f, point) != zero:
                    raise InternalInvariant("solver emitted a non-solution")
            continue
        free = frozenset(i for i, x in enumerate(point) if x is None)
        parts = parts_by_free.get(free)
        if parts is None:
            parts = parts_by_free[free] = [part for f in system for part in split_compiled(f, free)]
        if any(evaluate(part, point) != zero for part in parts):
            raise InternalInvariant("free coordinates must satisfy the system identically")


def _by_components(polys: Sequence[MultiPoly], max_solutions: int, solver, chain) -> SolutionSet:
    """The solution set of a system over a chain ring, chain(polys,
    max_solutions); over a product ring, each CRT component's system solved
    by solver at the same cap, and the sets joined."""
    polys = list(polys)
    if not polys:
        raise DomainError("empty system")
    ring = polys[0].ring
    if any(p.ring != ring for p in polys):
        raise DomainError("mixed polynomial rings")

    def join(R, sets):
        """The components' sets are solved in turn, and an empty, complete
        one leaves the product empty and complete and the later ones
        unsolved.  Otherwise the first max_solutions + 1 joined tuples,
        truncated if there are more or a component's set is truncated."""
        done = []
        for s in sets:
            if not (s.solutions or s.truncated):
                return SolutionSet(R, ring.variables, frozenset(), False, max_solutions)
            done.append(s)
        ordered = [sorted(s.solutions, key=lambda t: tuple(repr(x) for x in t)) for s in done]
        sols = list(itertools.islice(join_solutions(R, ordered), max_solutions + 1))
        truncated = len(sols) > max_solutions or any(s.truncated for s in done)
        return SolutionSet(R, ring.variables, frozenset(sols), truncated, max_solutions)

    return crt_apply(ring.ring, _split_polys(polys), solver, join, chain, max_solutions)


def _split_polys(polys: Sequence[MultiPoly]) -> list[list[MultiPoly]]:
    """The system in each CRT component of its ring; [polys] over a chain ring."""
    ring = polys[0].ring

    def part(idx, C):
        comp_ring = PolyRing(C, ring.variables, ring.order)
        # equal variables and order pack monomials alike
        return [comp_ring._collect([(m, c[idx].data) for m, c in p._terms]) for p in polys]

    return crt_parts(ring.ring, polys, part)


def join_solutions(R: Ring, parts: Iterable[Iterable[tuple]]) -> Iterable[tuple]:
    """The solution tuples over R whose CRT parts are drawn from parts, one
    iterable of tuples per component: their cartesian recombination,
    lazily and in the order of parts; over a chain ring the one part itself.

    A coordinate stays ALL_OF_RING only when it is free in every component;
    a coordinate free in some components and fixed in others is expanded.
    """
    return crt_joined(R, parts, lambda parts: _joined_tuples(R, parts))


def _joined_tuples(product, parts) -> Iterator[tuple]:
    for combo in itertools.product(*parts):
        slots = []
        for coord in zip(*combo):
            if all(x is ALL_OF_RING for x in coord):
                slots.append([ALL_OF_RING])
            elif any(x is ALL_OF_RING for x in coord):
                per_comp = [
                    list(comp.elements()) if x is ALL_OF_RING else [x]
                    for x, comp in zip(coord, product.components)
                ]
                slots.append(
                    [RingElement(product, vals) for vals in itertools.product(*per_comp)]
                )
            else:
                slots.append([RingElement(product, coord)])
        yield from itertools.product(*slots)


# -- the x block of a lex elimination ideal ------------------------------------


def x_block_solutions(
    ring: PolyRing, equations: Sequence[MultiPoly], x_vars: Sequence[int]
) -> list[tuple]:
    """Explicit x blocks of the equations' solutions, in sort_key order: by
    the whole-model lift where the route rule takes it (_lifted_x_block),
    else the solutions of the elimination ideal in the trailing x_vars
    (x_block_system, then _x_only_solutions)."""
    found = _lifted_x_block(ring, equations, x_vars)
    if found is None:
        found = _x_only_solutions(*x_block_system(ring, equations, x_vars))
    return found


def _lifted_x_block(
    ring: PolyRing, equations: Sequence[MultiPoly], x_vars: Sequence[int]
) -> list[tuple] | None:
    """The distinct x blocks of the equations' solutions in sort_key order,
    by lifting the whole system over the variables it uses and x_vars; None
    when the route rule (_lifts, MODEL_LIFT_CAP) sends it to elimination.

    Each x block listed is that of a solution, so the list is contained in
    the solutions of the elimination ideal, which may hold more x; no
    wanted x is lost, since every caller's completeness argument extends a
    wanted x to a solution of the whole system.  A system with no nonzero
    equation or with a constant one is left to x_block_system, which
    answers it with no Buchberger run.  So is a system with no constant
    term, which vanishes at the origin: in the bilinear models that reach
    here (Kipnis-Shamir, Support-Minors, key equation) x = 0 then solves it
    for every z, the lift lists at least |R|^(z count) roots, and on
    homogeneous KS and SM models with q^k <= 32 it took 0.7-58×
    elimination's time, more than elimination in 9 of 10 measured sets."""
    R = ring.ring
    work = [w for w in equations if not w.is_zero()]
    if not work or any(w.is_constant() for w in work):
        return None
    if all(w._terms[-1][0] for w in work):  # terms descend, so a constant is last
        return None
    used = set(x_vars).union(*(w.vars_used() for w in work))
    if not _lifts(R, len(used), MODEL_LIFT_CAP):
        return None
    variables = sorted(used)
    at = [variables.index(v) for v in x_vars]
    roots = _lift_roots(R, work, variables, DEFAULT_SOLUTION_CAP)
    found = {tuple(c[i] for i in at) for c in roots}
    return sorted(found, key=lambda x: tuple(R.sort_key(v) for v in x))


def x_block_system(
    ring: PolyRing, equations: Sequence[MultiPoly], x_vars: Sequence[int]
) -> tuple[PolyRing, list[MultiPoly]]:
    """The x-only members of a lex Gröbner basis of the equations, mapped
    to a ring in x_vars alone (see _to_x_ring).

    Before the Buchberger run the equations are echelonized as the rows of
    their Macaulay matrix at degree 0 (_echelon_rows), F4's first step:
    row operations are invertible, and each π-multiple appended lies in the
    ideal, so the rows generate the ideal of the equations, and its
    elimination ideal, variety and x-block solutions are those of the
    equations.  The rows enter buchberger smallest head first, so each
    larger row is head-reduced by the monomial multiples of the smaller
    ones as it enters, where it would otherwise wait for S-pairs.  The
    π-multiple π^(ν-v)·r of a row r whose pivot is π^v (v > 0) is r's
    A-polynomial; echelonized with the rows, these stand in for the
    A-polynomials that buchberger would otherwise queue for those heads.
    Bases over chain rings are not canonical yet (their tails depend on the
    reduction path), so the result generates the same ideal as the x-only
    members of buchberger(equations, keep_from=...) but may differ from
    them in bytes: {x1 + 1, x2 + 3, 2} and {x1 + 3, x2 + 1, 2} over Z4 are
    one ideal.

    buchberger's keep_from interreduces the x-only members alone (the
    others are never read here), and its run stops once a unit constant
    appears, whose basis (1) leaves no solution.  Every x-only member of
    the ideal vanishes on the x block of every solution, so the x tuples of
    the system's solutions solve it; an empty subbasis leaves the x block
    unconstrained.  The field equations F_m are not needed for that: F_m
    vanishes at every point of R, so adjoining it leaves the solutions over
    R unchanged and only makes the basis larger.  A nonzero constant
    equation is returned as the system, with no echelon and no Buchberger
    run: it has no solution.
    """
    work = [w for w in equations if not w.is_zero()]
    x_only = [w for w in work if w.is_constant()]
    if not x_only:
        # buchberger's checks, made first so that no echelon runs and its
        # NotChainRing never stands in for DomainError
        if ring.order.kind != "lex":
            raise WrongOrder("elimination requires a lexicographic basis")
        if not isinstance(ring.ring, ChainRing):
            raise DomainError("Gröbner bases require a chain ring; split PIRs first")
        rows = _echelon_rows(ring, work)
        x_only = buchberger(rows, ring, keep_from=ring.nvars - len(x_vars)).generators
    return _to_x_ring(ring, x_only, x_vars)


def _echelon_rows(ring: PolyRing, polys: Sequence[MultiPoly]) -> list[MultiPoly]:
    """The nonzero rows of the echelonized degree-0 Macaulay matrix of
    polys, with π^(ν-v)·r adjoined for each row r whose pivot is π^v,
    v > 0, and echelonized again; smallest head first."""
    R = ring.ring
    monos, rows = macaulay_rows(polys, [0])
    payload_echelon(R, rows)
    rows = [row for row in rows if row]
    # a row's first column holds its pivot, π^v
    extra = [
        R._payload_scale(R._payload_pi_power(R.nu - v), row)
        for row in rows
        if (v := R._payload_valuation(row[min(row)]))
    ]
    if any(extra):
        rows += extra
        payload_echelon(R, rows)
    # a row's columns ascend, so its monomials descend, as terms do
    return [
        MultiPoly(ring, tuple((monos[j], row[j]) for j in sorted(row)))
        for row in reversed(rows)
        if row
    ]


def _to_x_ring(
    ring: PolyRing, polys: Sequence[MultiPoly], x_vars: Sequence[int]
) -> tuple[PolyRing, list[MultiPoly]]:
    """The lex ring in x_vars alone (interned, polys.lex_ring) and polys,
    which use no other variable of ring, mapped into it.  Where x_vars are
    the lowest fields of a lex ring, as in every model's ring, a poly packs
    alike in both rings and keeps its terms."""
    x_ring = lex_ring(ring.ring, [ring.variables[v] for v in x_vars])
    if not ring._weighted and [ring._shifts[v] for v in x_vars] == list(x_ring._shifts):
        return x_ring, [MultiPoly(x_ring, g._terms) for g in polys]
    index = {v: i for i, v in enumerate(x_vars)}
    var_map = [index.get(i, 0) for i in range(ring.nvars)]
    return x_ring, [g.map_to(x_ring, var_map) for g in polys]


def _x_only_solutions(x_ring: PolyRing, polys: Sequence[MultiPoly]) -> list[tuple]:
    """Explicit common zeros of nonzero polys in x_ring, in sort_key order;
    with no polys the x block is unconstrained and is enumerated within the
    budget, and a nonzero constant among them leaves no zero.

    This is the tail of the paper's combination: elimination has reduced
    the system to the k variables of the x block, and a small block is then
    solved by the residue-field lift (_lift_roots) where the route rule
    takes it (_lifts with LIFT_RESIDUE_CAP).  Under that rule neither route
    can hit its cap: the lift makes at most |R|^k branches, and explicit()
    lists at most |R|^k tuples.  Both are exact, so they give the same
    list; any other system is solved by elimination (solve_system).  The
    q^k bound follows cost: the lift tests every point of Γ^k, while
    elimination's back-substitution enumerates only q residues per variable
    and branch."""
    R = x_ring.ring
    k = x_ring.nvars
    if not polys:
        if R.size**k > enumeration_budget():
            raise ResourceExceeded("unconstrained x block exceeds the budget")
        # elements() ascends in sort_key order, so the product does too
        return list(itertools.product(list(R.elements()), repeat=k))
    if any(p.is_constant() for p in polys):
        return []
    if _lifts(R, k, LIFT_RESIDUE_CAP):
        found = _lift_roots(R, polys, range(k), DEFAULT_SOLUTION_CAP)
    else:
        found = solve_system(polys).explicit()
    return sorted(found, key=lambda x: tuple(R.sort_key(v) for v in x))


# -- multivariate lifting solver ------------------------------------------------


def solve_system_lifting(
    polys: Sequence[MultiPoly], max_solutions: int = DEFAULT_SOLUTION_CAP
) -> SolutionSet:
    """Residue-field solutions lifted level by level through the linear
    congruences D f(γ0) z = -(f(c)/π^j mod π); exact.  It skips elimination
    but shares the lift with the x-block tail of the elimination route
    (_x_only_solutions), so brute_solve, not the elimination route, is its
    independent check."""
    found = _by_components(polys, max_solutions, solve_system_lifting, _lift_system)
    if found.truncated:  # only a product's join truncates
        raise ResourceExceeded(f"product solution set larger than cap {max_solutions}")
    return found


def _lift_system(polys: list[MultiPoly], max_solutions: int) -> SolutionSet:
    """solve_system_lifting over a chain ring."""
    ring = polys[0].ring
    R: ChainRing = ring.ring
    k = ring.nvars
    work = [p for p in polys if not p.is_zero()]
    if not work:
        if R.size**k > enumeration_budget():
            raise ResourceExceeded("zero system over a too-large domain")
        return SolutionSet(
            R, ring.variables, frozenset({(ALL_OF_RING,) * k})
        )
    if R.q**k > enumeration_budget():
        raise ResourceExceeded("residue enumeration exceeds the budget")
    solutions = _lift_roots(R, work, range(k), max_solutions)
    return SolutionSet(R, ring.variables, frozenset(solutions))


def _lift_roots(
    R: ChainRing, polys: Sequence[MultiPoly], variables: Sequence[int], max_solutions: int
) -> set[tuple]:
    """Common zeros in R^k of nonzero polys in the k given variables (the
    polys use no other), lifted from Γ^k.

    A branch at level j is a point c at which every polynomial f vanishes
    mod π^j; it extends to c + π^j z for the residue solutions z of
    D f(γ0) z = -(f(c)/π^j mod π), which makes f vanish mod π^{j+1}.  Every
    root's truncations are branches, and each final candidate is
    re-evaluated, so the result is exact.  The polynomials are compiled
    once over the variables, with one monomial table for the system
    (polys.compile_polys), and the branches are tuples of payloads
    evaluated by the ring's kernels: _payload_evaluate tests level 0, and a
    residue root γ0 that survives it, when ν > 1, takes its Jacobian rows
    D f(γ0) from one _payload_gradient call per polynomial.  D f(c) ≡
    D f(γ0) (mod π) on every branch above γ0, so the rows are factored once
    per residue root (the ring's _residue_solver), and each branch at each
    level only replays the factoring on its right-hand side; the level-1
    one comes from the level-0 values.  Only roots are boxed.
    """
    add, mul = R._payload_add, R._payload_mul
    evaluate, gradient = R._payload_evaluate, R._payload_gradient
    residue = R._payload_residue
    zero = R._zero_data
    zero_residue = residue(zero)
    k = len(variables)
    fs = compile_polys(polys, variables)
    gamma = [g.data for g in R.teichmuller_set()]
    solutions = set()
    # level 0 tests every point of Γ^k, so a system whose residue-field
    # projection vanishes identically needs no special case
    for g0 in itertools.product(gamma, repeat=k):
        values = []
        for f in fs:
            v = evaluate(f, g0)
            if residue(v) != zero_residue:
                break
            values.append(v)
        if len(values) < len(fs):
            continue
        if R.nu > 1:
            solve = R._residue_solver([gradient(f, g0, k) for f in fs])
        branches = [g0]
        for j in range(1, R.nu):
            pi_j = R._payload_pi_power(j)
            next_branches = []
            for c in branches:
                # the only level-1 branch is g0, whose values level 0 kept
                at_c = values if j == 1 else [evaluate(f, c) for f in fs]
                for z in solve(at_c, j):
                    next_branches.append(tuple(add(x, mul(pi_j, y)) for x, y in zip(c, z)))
                    if len(next_branches) > max_solutions:
                        raise ResourceExceeded("lifting branch count exceeds cap")
            branches = next_branches
        for c in branches:
            if all(evaluate(f, c) == zero for f in fs):
                solutions.add(tuple(RingElement(R, x) for x in c))
    return solutions
