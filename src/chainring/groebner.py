"""Gröbner bases over finite chain rings via S- and A-polynomials.

Buchberger's loop with the two completeness obligations rings add: for every
pair the S-polynomial, and for every generator the A-polynomial (annihilator
multiple of its head).  Two criteria drop S-pairs that Buchberger's
criterion does not need: the coprime criterion for unit heads, and the chain
criterion in its valuation-aware form (a third head term-divides the pair's
lcm and its pairs with both members are already treated); a unit head's
A-polynomial is zero and is never queued.  Output is fully
interreduced with leading coefficients normalized to pi^val, so golden tests
are byte-stable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    EqualInputs,
    ResourceExceeded,
    WrongOrder,
    ZeroElement,
    ZeroIdeal,
    ZeroPolynomial,
)
from .polys import MultiPoly, PolyRing, _univariate_var, divisor_table, strong_reduce
from .rings import ChainRing


@dataclass(frozen=True)
class GroebnerBasis:
    generators: tuple[MultiPoly, ...]
    ring: PolyRing
    minimal: bool = False

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def reduce(self, f: MultiPoly, full: bool = True) -> MultiPoly:
        return strong_reduce(f, self.generators, full=full)

    def contains(self, f: MultiPoly) -> bool:
        return self.reduce(f).is_zero()


def s_polynomial(g1: MultiPoly, g2: MultiPoly) -> MultiPoly:
    """c1*x^a1*g1 - c2*x^a2*g2 killing the common head lcm exactly."""
    if g1.is_zero() or g2.is_zero():
        raise ZeroPolynomial("S-polynomial of zero polynomial")
    if g1 == g2:
        raise EqualInputs("S-polynomial needs distinct inputs")
    ring = g1.ring
    R = ring.ring
    e1, l1, inv1 = g1.head_data()
    e2, l2, inv2 = g2.head_data()
    lcm = ring._lcm(e1, e2)
    l = max(l1, l2)
    # c_i = b_i^{-1} pi^{l-l_i} where lc(g_i) = b_i pi^{l_i}
    k1 = R._payload_mul(inv1, R._payload_pi_power(l - l1))
    k2 = R._payload_mul(inv2, R._payload_pi_power(l - l2))
    return ring.zero._plus_multiple(g1, lcm - e1, k1)._plus_multiple(g2, lcm - e2, R._payload_neg(k2))


def a_polynomial(g: MultiPoly) -> MultiPoly:
    """pi^(nu - val(lc(g))) * g; annihilates the leading term."""
    if g.is_zero():
        raise ZeroPolynomial("A-polynomial of zero polynomial")
    R = g.ring.ring
    return MultiPoly(g.ring, g._scaled(R._payload_pi_power(R.nu - g.head_data()[1])))


def _normalize_head(g: MultiPoly) -> MultiPoly:
    """Scale by a unit so the leading coefficient becomes pi^val."""
    if g.is_zero():
        return g
    return MultiPoly(g.ring, g._scaled(g.head_data()[2]))


def interreduce(polys: Iterable[MultiPoly], ring: PolyRing) -> tuple[MultiPoly, ...]:
    """Canonical form: heads normalized, every element fully reduced by the
    others, sorted by (leading monomial desc, valuation asc).

    One ascending pass reduces each member by all the others.  Whether a
    term is reducible depends only on the divisors' head terms, so a member
    that vanishes (the earlier ones lose a divisor) or keeps its head term
    (the heads are the same) leaves the earlier members fully reduced, and
    the pass goes on; only a changed head re-sorts and starts again.
    """
    def sort_key(f):
        m, v, _ = f.head_data()
        return (m, -v)  # a packed monomial is its own order key

    current = [_normalize_head(p) for p in polys if not p.is_zero()]
    for _ in range(1000):
        current.sort(key=sort_key)
        table = divisor_table(current)  # one per pass, kept in step with current
        i = 0
        while i < len(current):
            f = current[i]
            h = strong_reduce(f, current[:i] + current[i + 1 :], True, table[:i] + table[i + 1 :])
            if h.is_zero():
                del current[i], table[i]
                continue
            h = _normalize_head(h)
            if h != f:
                current[i] = h
                if h._terms[0] != f._terms[0]:
                    break  # a new head: re-sort and start again
                table[i : i + 1] = divisor_table([h], i)
            i += 1
        else:
            # descending lm; among equal lm the smaller valuation first
            current.sort(key=sort_key, reverse=True)
            return tuple(current)
    raise ResourceExceeded("interreduction did not stabilize")


_MAX_PAIRS = 200_000


def buchberger(polys: Sequence[MultiPoly], ring: PolyRing | None = None) -> GroebnerBasis:
    """Gröbner basis of the ideal generated by polys, interreduced.

    The pending queue holds both S-pairs and A-polynomials, processed in
    normal-selection order (minimal lcm).  Two criteria drop S-pairs whose
    S-polynomial has a representation by the basis with every term below
    its lcm, which is all Buchberger's criterion asks of a pair:

    - Coprime: both heads have unit coefficients and coprime monomials (the
      coefficient-blind field version of this criterion is unsound over
      rings).  The pair is never queued.
    - Chain, checked when the pair (i, j) is popped: some other member g_k
      has a head that term-divides the head term pi^l * T of the pair, where
      T = lcm(lm g_i, lm g_j) and l = max(val lc g_i, val lc g_j) (lm g_k
      divides T and val lc g_k <= l), and neither (i, k) nor (j, k) is
      pending.  With L_ik = lcm(lm g_i, lm g_k), l_ik = max(val lc g_i,
      val lc g_k) and likewise for (j, k),

          S_ij = pi^(l - l_ik) (T / L_ik) S_ik - pi^(l - l_jk) (T / L_jk) S_jk

      exactly: both sides carry the same multiples of g_i and g_j, and the
      multiples of g_k, u_k^-1 pi^(l - val lc g_k) (T / lm g_k) g_k, cancel
      (u_k is the unit part of lc g_k).  S_ik and S_jk were treated, so each
      has a representation below its lcm, and scaling them puts every term
      of S_ij's representation below T.  A pair is skipped only against
      pairs already treated, so the argument never runs in a circle.

    A-polynomials are queued only for heads with a non-unit coefficient: a
    unit head's A-polynomial is pi^nu * g = 0.
    """
    if ring is None:
        if not polys:
            raise DomainError("cannot infer the polynomial ring from an empty list")
        ring = polys[0].ring
    R = ring.ring
    if not isinstance(R, ChainRing):
        raise DomainError("Gröbner bases require a chain ring; split PIRs first")

    guard = ring._guard
    basis: list[MultiPoly] = []
    divisors: list[tuple] = []  # divisor_table(basis), grown with it
    # (packed lm, val lc, the variables of lm as guard bits) of each member
    heads: list[tuple[int, int, int]] = []
    queue: list = []  # (packed lcm, which is its order key; tiebreak; payload)
    pending: set[tuple[int, int]] = set()  # queued S-pairs (j, i) with j < i
    counter = 0

    def add(h: MultiPoly):
        nonlocal counter
        new = len(basis)
        eg, vg, _ = h.head_data()
        basis.append(h)
        divisors.extend(divisor_table([h], new))
        for j, (eh, vh, _) in enumerate(heads):
            lcm = ring._lcm(eg, eh)
            if vg == 0 and vh == 0 and lcm == eg + eh:
                continue
            heapq.heappush(queue, (lcm, counter, ("s", j, new)))
            pending.add((j, new))
            counter += 1
        heads.append((eg, vg, ring._support(eg)))
        if vg > 0:
            heapq.heappush(queue, (eg, counter, ("a", new, -1)))
            counter += 1

    def chain_skips(i: int, j: int, lcm: int) -> bool:
        _, vi, si = heads[i]
        _, vj, sj = heads[j]
        top = lcm | guard
        l = max(vi, vj)
        outside = ~(si | sj)  # lm g_k cannot divide lcm if it uses these
        for k, (ek, vk, sk) in enumerate(heads):
            if (
                vk <= l
                and not sk & outside
                and k != i
                and k != j
                and (top - ek) & guard == guard
                and (min(i, k), max(i, k)) not in pending
                and (min(j, k), max(j, k)) not in pending
            ):
                return True
        return False

    for f in polys:
        if f.is_zero():
            continue
        h = strong_reduce(f, basis, False, divisors)
        if not h.is_zero():
            add(h)

    if not basis:
        return GroebnerBasis((), ring, minimal=True)

    steps = 0
    while queue:
        steps += 1
        if steps > _MAX_PAIRS:
            raise ResourceExceeded(
                f"buchberger exceeded {_MAX_PAIRS} pair reductions", tuple(basis)
            )
        lcm, _, (kind, i, j) = heapq.heappop(queue)
        if kind == "s":
            pending.remove((i, j))
            if chain_skips(i, j, lcm):
                continue
            candidate = s_polynomial(basis[i], basis[j])
        else:
            candidate = a_polynomial(basis[i])
        if candidate.is_zero():
            continue
        h = strong_reduce(candidate, basis, False, divisors)
        if h.is_zero():
            continue
        add(h)

    generators = interreduce(basis, ring)
    return GroebnerBasis(generators, ring, minimal=True)


def verify_groebner(G: GroebnerBasis) -> bool:
    """Check the two characterization conditions directly."""
    gens = [g for g in G.generators if not g.is_zero()]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if not strong_reduce(s_polynomial(gens[i], gens[j]), gens).is_zero():
                return False
    for g in gens:
        apoly = a_polynomial(g)
        if not apoly.is_zero() and not strong_reduce(apoly, gens).is_zero():
            return False
    return True


def elimination_subbasis(G: GroebnerBasis, keep_from: int) -> GroebnerBasis:
    """Members involving only the variables of priority index >= keep_from.

    Requires a lex basis; the result is a Gröbner basis of the elimination
    ideal in those variables.
    """
    if G.ring.order.kind != "lex":
        raise WrongOrder("elimination requires a lexicographic basis")
    keep = set(G.ring.order.priority[keep_from:])
    members = tuple(g for g in G.generators if g.vars_used() <= keep)
    return GroebnerBasis(members, G.ring, minimal=G.minimal)


@dataclass(frozen=True)
class UnivariateLadder:
    """Minimal univariate basis {pi^{a_i} g_i} plus the derived h_j sequence.

    levels[i] = (a_i, g_i) with a_0 < ... < a_s, g_i monic, degrees strictly
    decreasing.  h[j] = g_i for a_i <= j < a_{i+1} (a_{s+1} = nu).
    """

    levels: tuple[tuple[int, MultiPoly], ...]
    h: tuple[MultiPoly, ...]
    ring: PolyRing
    var: int


def minimal_univariate_basis(
    polys: Sequence[MultiPoly], var: int | None = None
) -> UnivariateLadder:
    """Canonical ladder for a univariate system over a chain ring.

    Normalizes a_0 = 0 by adjoining the ring's vanishing polynomial when the
    ideal has no unit-valuation member (solution-set preserving).
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        raise ZeroIdeal("the zero ideal: every ring element is a solution")
    ring = polys[0].ring
    R = ring.ring
    var = _univariate_var(polys, var)

    G = buchberger(polys, ring)
    gens = list(G.generators)
    if not gens:
        raise ZeroIdeal("the zero ideal: every ring element is a solution")

    vals = [R.valuation(g.leading_coefficient()) for g in gens]
    if min(vals) > 0:
        from .solve import ring_vanishing_polynomial

        fm = ring_vanishing_polynomial(R, ring, var)
        G = buchberger(gens + [fm], ring)
        gens = list(G.generators)

    # canonical interreduced univariate GB: degrees strictly decreasing,
    # valuations strictly increasing (heads pairwise non-divisible)
    gens.sort(key=lambda g: g.degree_in(var), reverse=True)
    levels = []
    h: list[MultiPoly | None] = [None] * R.nu
    for g in gens:
        a = R.valuation(g.leading_coefficient())
        monic = g.scale(R.invert(R.unit_part(g.leading_coefficient())))
        monic = _exact_poly_div_pi(monic, a)
        levels.append((a, monic))
    levels.sort(key=lambda t: t[0])
    for idx, (a, g) in enumerate(levels):
        upper = levels[idx + 1][0] if idx + 1 < len(levels) else R.nu
        for j in range(a, upper):
            h[j] = g
    if any(x is None for x in h):
        raise ZeroIdeal("no member at level 0 even after normalization")
    return UnivariateLadder(tuple(levels), tuple(h), ring, var)


def _exact_poly_div_pi(g: MultiPoly, l: int) -> MultiPoly:
    """Divide every coefficient by pi^l exactly (minimal-lex quotients)."""
    if l == 0:
        return g
    R = g.ring.ring
    if any(R._payload_valuation(c) < l for _, c in g._terms):
        raise ZeroElement(f"a coefficient is not divisible by pi^{l}")
    return MultiPoly(g.ring, tuple((m, R._payload_quo_pi(c, l)) for m, c in g._terms))


def ladder_properties_hold(ladder: UnivariateLadder) -> bool:
    """Conditions (i)-(iv) of the minimal-basis characterization."""
    R = ladder.ring.ring
    var = ladder.var
    levels = ladder.levels
    a_vals = [a for a, _ in levels]
    if a_vals != sorted(set(a_vals)) or (a_vals and not (0 <= a_vals[0] <= R.nu - 1)):
        return False
    degs = [g.degree_in(var) for _, g in levels]
    if any(degs[i] <= degs[i + 1] for i in range(len(degs) - 1)):
        return False
    for _, g in levels:
        if g.is_zero() or not g.leading_coefficient().is_unit():
            return False
    # (iv): pi^{a_{i+1}} g_i lies in the ideal of the higher levels
    for i in range(len(levels) - 1):
        a_next = levels[i + 1][0]
        member = levels[i][1].scale(R.pow(R.pi_element, a_next))
        tail = [g.scale(R.pow(R.pi_element, a)) for a, g in levels[i + 1 :]]
        Gtail = buchberger(tail, ladder.ring)
        if not Gtail.contains(member):
            return False
    return True
