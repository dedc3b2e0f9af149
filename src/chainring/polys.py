"""Multivariate polynomials over chain rings and PIRs with admissible orders.

A MultiPoly is a canonical term list: nonzero coefficients, strictly
descending monomials under the ring's active order.  Strong reduction in the
chain-ring sense (term division requires coefficient-valuation divisibility)
lives here; Gröbner machinery builds on it in the groebner module.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    InternalInvariant,
    ParseError,
    ResourceExceeded,
    ZeroPolynomial,
)
from .rings import ChainRing, Ring, RingElement


class MonomialOrder:
    """lex or degrevlex with an explicit variable priority (highest first)."""

    def __init__(self, kind: str, priority: Sequence[int]):
        if kind not in ("lex", "degrevlex"):
            raise DomainError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.priority = tuple(priority)

    def key(self, exps: tuple[int, ...]):
        """Sort key: key(a) > key(b) iff a > b in this order."""
        if self.kind == "lex":
            return tuple(exps[i] for i in self.priority)
        total = sum(exps)
        return (total,) + tuple(-exps[i] for i in reversed(self.priority))

    def greater(self, a: tuple[int, ...], b: tuple[int, ...]) -> bool:
        return self.key(a) > self.key(b)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.priority == other.priority
        )

    def __hash__(self):
        return hash((self.kind, self.priority))

    def __repr__(self):
        return f"{self.kind}{self.priority}"


def _identity_key(exps):
    return exps


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


class PolyRing:
    """Context for polynomials: coefficient ring, variable names, order."""

    def __init__(self, ring: Ring, variables: Sequence[str], order: MonomialOrder | str = "lex"):
        self.ring = ring
        self.variables = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise DomainError("duplicate variable names")
        if isinstance(order, str):
            order = MonomialOrder(order, range(len(self.variables)))
        if len(order.priority) != len(self.variables) or sorted(order.priority) != list(
            range(len(self.variables))
        ):
            raise DomainError("order priority must permute the variables")
        self.order = order
        self.nvars = len(self.variables)
        self._key_cache: dict = {}
        if order.kind == "lex" and order.priority == tuple(range(self.nvars)):
            self._key = _identity_key  # natural lex: the exponent tuple is its own key
        self.zero = MultiPoly(self, ())

    def _key(self, exps):
        k = self._key_cache.get(exps)
        if k is None:
            k = self.order.key(exps)
            self._key_cache[exps] = k
        return k

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.ring == other.ring
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.ring, self.variables, self.order))

    def __repr__(self):
        return f"{self.ring}[{','.join(self.variables)}; {self.order}]"

    def poly(self, terms) -> MultiPoly:
        """Build from {exps: coeff} or [(exps, coeff)]; canonicalizes."""
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        checked = []
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars or any(e < 0 for e in exps):
                raise DomainError(f"bad exponent vector {exps}")
            checked.append((exps, self.ring.coerce(coeff)))
        return self._collect(checked)

    def _collect(self, terms: Iterable[tuple]) -> MultiPoly:
        """The canonical polynomial of (exps, coeff) terms: like terms
        summed, zeros dropped, monomials in descending order."""
        R = self.ring
        acc: dict = {}
        for e, c in terms:
            if c.is_zero():
                continue
            if e in acc:
                c = R.add(acc[e], c)
            acc[e] = c
        key = self._key
        items = [(e, c) for e, c in acc.items() if not c.is_zero()]
        items.sort(key=lambda t: key(t[0]), reverse=True)
        return MultiPoly(self, tuple(items))

    def constant(self, c) -> MultiPoly:
        c = self.ring.coerce(c)
        if c.is_zero():
            return self.zero
        return MultiPoly(self, (((0,) * self.nvars, c),))

    @property
    def one(self) -> MultiPoly:
        return self.constant(self.ring.one)

    def gen(self, i: int) -> MultiPoly:
        exps = [0] * self.nvars
        exps[i] = 1
        return MultiPoly(self, ((tuple(exps), self.ring.one),))

    def gens(self) -> tuple[MultiPoly, ...]:
        return tuple(self.gen(i) for i in range(self.nvars))

    def var_index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise DomainError(f"unknown variable {name!r}") from None

    # -- parsing and serialization --------------------------------------------

    _token = re.compile(r"\s*([+-]|\*|\^|\d+|[A-Za-z_][A-Za-z_0-9]*)")

    def parse(self, text: str) -> MultiPoly:
        """Parse '4*x^2*y + y^3 + 2*y + 4' (integer coefficients only)."""
        pos = 0
        tokens = []
        while pos < len(text):
            m = self._token.match(text, pos)
            if not m:
                if text[pos:].strip():
                    raise ParseError(f"bad polynomial text at {text[pos:]!r}")
                break
            tokens.append(m.group(1))
            pos = m.end()
        terms = []
        i = 0
        sign = 1
        if tokens and tokens[0] in "+-":
            sign = -1 if tokens[0] == "-" else 1
            i = 1
        while i < len(tokens):
            coeff = 1
            exps = [0] * self.nvars
            expect_factor = True
            saw_any = False
            while i < len(tokens) and tokens[i] not in "+-":
                tok = tokens[i]
                if tok == "*":
                    i += 1
                    expect_factor = True
                    continue
                if not expect_factor:
                    raise ParseError(f"unexpected token {tok!r} in {text!r}")
                if tok.isdigit():
                    coeff *= int(tok)
                else:
                    v = self.var_index(tok)
                    e = 1
                    if i + 2 < len(tokens) and tokens[i + 1] == "^":
                        if not tokens[i + 2].isdigit():
                            raise ParseError(f"bad exponent in {text!r}")
                        e = int(tokens[i + 2])
                        i += 2
                    elif i + 1 < len(tokens) and tokens[i + 1] == "^":
                        raise ParseError(f"dangling '^' in {text!r}")
                    exps[v] += e
                saw_any = True
                expect_factor = False
                i += 1
            if not saw_any:
                raise ParseError(f"empty term in {text!r}")
            terms.append((tuple(exps), self.ring.from_int(sign * coeff)))
            if i < len(tokens):
                sign = -1 if tokens[i] == "-" else 1
                i += 1
                if i == len(tokens):
                    raise ParseError(f"trailing sign in {text!r}")
        return self.poly(terms)

    def poly_to_json(self, f: MultiPoly):
        return [[self.ring.element_to_json(c), list(e)] for e, c in f.terms]

    def poly_from_json(self, obj) -> MultiPoly:
        if not isinstance(obj, list):
            raise ParseError("polynomial JSON must be a list of [coeff, exps] pairs")
        terms = []
        for item in obj:
            if not (isinstance(item, list) and len(item) == 2):
                raise ParseError(f"bad term {item!r}")
            coeff, exps = item
            terms.append((tuple(exps), self.ring.element_from_json(coeff)))
        return self.poly(terms)


class MultiPoly:
    """Immutable polynomial; terms strictly descending under the ring order."""

    __slots__ = ("ring", "terms", "_head")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self.terms = terms
        self._head = None

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    # -- leading data ----------------------------------------------------------

    def leading_term(self) -> tuple[tuple[int, ...], RingElement]:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        return self.terms[0]

    def leading_monomial(self) -> tuple[int, ...]:
        return self.leading_term()[0]

    def leading_coefficient(self) -> RingElement:
        return self.leading_term()[1]

    def head_data(self):
        """(lm, val lc, inverse of the unit part of lc) over a chain ring,
        computed on first use and kept: the polynomial never changes."""
        head = self._head
        if head is None:
            e, c = self.leading_term()
            R = self.ring.ring
            head = self._head = (e, R.valuation(c), R.invert(R.unit_part(c)))
        return head

    def leading_data(self):
        """(lt, lm, lc) of the first term under the active order."""
        exps, coeff = self.leading_term()
        return (exps, coeff), exps, coeff

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e, _ in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(e[var] for e, _ in self.terms)

    def vars_used(self) -> set[int]:
        used = set()
        for e, _ in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(i)
        return used

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e, _ in self.terms)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        return self._merge(other, False)

    def __sub__(self, other):
        other = self._coerce(other)
        return self._merge(other, True)

    def _merge(self, other: "MultiPoly", negate: bool) -> "MultiPoly":
        """Linear merge of the two sorted term lists."""
        R = self.ring.ring
        key = self.ring._key
        ta, tb = self.terms, other.terms
        na, nb = len(ta), len(tb)
        out = []
        i = j = 0
        while i < na and j < nb:
            ea, ca = ta[i]
            eb, cb = tb[j]
            if ea == eb:
                c = R.sub(ca, cb) if negate else R.add(ca, cb)
                if not c.is_zero():
                    out.append((ea, c))
                i += 1
                j += 1
            elif key(ea) > key(eb):
                out.append(ta[i])
                i += 1
            else:
                out.append((eb, R.neg(cb)) if negate else tb[j])
                j += 1
        if i < na:
            out.extend(ta[i:])
        while j < nb:
            eb, cb = tb[j]
            out.append((eb, R.neg(cb)) if negate else tb[j])
            j += 1
        return MultiPoly(self.ring, tuple(out))

    def __neg__(self):
        R = self.ring.ring
        return MultiPoly(self.ring, tuple((e, R.neg(c)) for e, c in self.terms))

    def __mul__(self, other):
        other = self._coerce(other)
        R = self.ring.ring
        return self.ring._collect(
            (mono_mul(e1, e2), R.mul(c1, c2))
            for e1, c1 in self.terms
            for e2, c2 in other.terms
        )

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: RingElement) -> MultiPoly:
        # scaling leaves the monomials, and so their order, unchanged
        R = self.ring.ring
        c = R.coerce(c)
        out = []
        for e, old in self.terms:
            v = R.mul(c, old)
            if not v.is_zero():
                out.append((e, v))
        return MultiPoly(self.ring, tuple(out))

    def term_mul(self, exps: tuple[int, ...], coeff: RingElement) -> MultiPoly:
        # multiplying every monomial by a fixed one preserves the sort order
        R = self.ring.ring
        out = []
        for e, c in self.terms:
            v = R.mul(coeff, c)
            if not v.is_zero():
                out.append((mono_mul(e, exps), v))
        return MultiPoly(self.ring, tuple(out))

    def _coerce(self, other) -> MultiPoly:
        if isinstance(other, MultiPoly):
            if other.ring != self.ring:
                raise DomainError("polynomials from different rings")
            return other
        return self.ring.constant(other)

    # -- evaluation and substitution ----------------------------------------------

    def evaluate(self, point: Sequence[RingElement]) -> RingElement:
        R = self.ring.ring
        if len(point) != self.ring.nvars:
            raise DomainError("evaluation point has wrong arity")
        point = [R.coerce(x) for x in point]
        total = R.zero
        for e, c in self.terms:
            v = c
            for i, exp in enumerate(e):
                if exp:
                    v = R.mul(v, R.pow(point[i], exp))
            total = R.add(total, v)
        return total

    def substitute(self, var: int, value: RingElement) -> MultiPoly:
        """Specialize one variable to a ring constant."""
        R = self.ring.ring
        value = R.coerce(value)
        return self.ring._collect(
            (e[:var] + (0,) + e[var + 1 :], R.mul(c, R.pow(value, e[var])))
            if e[var]
            else (e, c)
            for e, c in self.terms
        )

    def derivative(self, var: int) -> MultiPoly:
        # dividing the monomials that contain var by var keeps them distinct
        # and in order, since both orders are compatible with multiplication
        R = self.ring.ring
        out = []
        for e, c in self.terms:
            exp = e[var]
            if exp:
                v = R.mul(R.from_int(exp), c)
                if not v.is_zero():
                    out.append((e[:var] + (exp - 1,) + e[var + 1 :], v))
        return MultiPoly(self.ring, tuple(out))

    def map_to(self, target: PolyRing, var_map: Sequence[int]) -> MultiPoly:
        """Reinterpret in another PolyRing; var_map[i] = target index of var i."""
        terms = []
        for e, c in self.terms:
            ne = [0] * target.nvars
            for i, exp in enumerate(e):
                if exp:
                    ne[var_map[i]] = exp
            terms.append((tuple(ne), target.ring.coerce(c)))
        return target.poly(terms)

    def __repr__(self):
        return self.format()

    def format(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        R = self.ring.ring
        for e, c in self.terms:
            factors = []
            cs = R.format_element(c)
            mono = []
            for i, exp in enumerate(e):
                if exp == 1:
                    mono.append(self.ring.variables[i])
                elif exp > 1:
                    mono.append(f"{self.ring.variables[i]}^{exp}")
            if not mono:
                factors.append(f"({cs})" if any(ch in cs for ch in "+ ") else cs)
            else:
                if cs != "1":
                    factors.append(f"({cs})" if any(ch in cs for ch in "+ ") else cs)
                factors.extend(mono)
            parts.append("*".join(factors))
        return " + ".join(parts)


# -- strong reduction -----------------------------------------------------------


def term_divides(ring: PolyRing, t1, t2):
    """Cofactor term c*x^a with t2 = c*x^a*t1, or None.

    Over a chain ring t1 | t2 iff the monomials divide and
    val(lc(t1)) <= val(lc(t2)); the cofactor coefficient is the canonical
    quotient unit_part(c2) * unit_part(c1)^-1 * pi^(v2-v1).
    """
    R = ring.ring
    if not isinstance(R, ChainRing):
        raise DomainError("term division requires a chain ring")
    (e1, c1), (e2, c2) = t1, t2
    if not mono_divides(e1, e2):
        return None
    v1, v2 = R.valuation(c1), R.valuation(c2)
    if v1 > v2:
        return None
    u = R.mul(R.unit_part(c2), R.invert(R.unit_part(c1)))
    coeff = R.mul(u, R.pow(R.pi_element, v2 - v1))
    return (mono_div(e2, e1), coeff)


_MAX_REDUCTION_STEPS = 200_000


def _reduce_core(f: MultiPoly, basis, full: bool, record):
    ring = f.ring
    R = ring.ring
    key = ring._key
    pi = R.pi_element
    heads = [g.head_data() + (gi,) for gi, g in enumerate(basis)]
    rem: list = []
    work = f
    steps = 0
    last_key = None
    while work.terms:
        e2, c2 = work.terms[0]
        v2 = R.valuation(c2)
        hit = None
        for e1, v1, inv1, gi in heads:
            if v1 <= v2 and all(a <= b for a, b in zip(e1, e2)):
                hit = (e1, v1, inv1, gi)
                break
        if hit is None:
            if not full:
                rem.extend(work.terms)
                break
            rem.append(work.terms[0])
            work = MultiPoly(ring, work.terms[1:])
        else:
            e1, v1, inv1, gi = hit
            coeff = R.mul(R.mul(R.unit_part(c2), inv1), R.pow(pi, v2 - v1))
            cof_exps = mono_div(e2, e1)
            work = work - basis[gi].term_mul(cof_exps, coeff)
            if record is not None:
                record.append((gi, cof_exps, coeff))
        steps += 1
        if steps > _MAX_REDUCTION_STEPS:
            raise ResourceExceeded("reduction did not terminate within the step cap")
        if work.terms:
            k = key(work.terms[0][0])
            if last_key is not None and k >= last_key:
                raise InternalInvariant("reduction must descend")
            last_key = k
    return MultiPoly(ring, tuple(rem))


def strong_reduce(f: MultiPoly, basis: Iterable[MultiPoly], full: bool = False) -> MultiPoly:
    """Normal form of f under one-step strong reduction by the basis.

    Head-only by default (no lt(g) divides lt(result)); with full=True the
    reduction continues into lower terms for canonical output.
    """
    basis = [g for g in basis if not g.is_zero()]
    return _reduce_core(f, basis, full, None)


def strong_reduce_with_witness(f: MultiPoly, basis, full: bool = False):
    """Like strong_reduce but also returns quotients q_i with
    f = sum q_i * basis_i + remainder."""
    basis = [g for g in basis if not g.is_zero()]
    record: list = []
    remainder = _reduce_core(f, basis, full, record)
    quotients = [f.ring.zero for _ in basis]
    for gi, exps, coeff in record:
        quotients[gi] = quotients[gi] + f.ring.poly([(exps, coeff)])
    return remainder, quotients
