"""Multivariate polynomials over chain rings and PIRs with admissible orders.

A MultiPoly is a canonical term list: nonzero coefficients, strictly
descending monomials under the ring's active order.  Each term is stored as
(packed monomial, ring payload): the exponent vector packed into one int
(see PolyRing) and the coefficient's RingElement.data, which the ring's
_payload_* methods compute on.  Exponent tuples and RingElements appear
only at the API boundary (terms, leading_term, evaluate, parse, JSON,
format).  Strong reduction in the chain-ring sense (term division requires
coefficient-valuation divisibility) lives here; Gröbner machinery builds on
it in the groebner module.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    DomainError,
    ExponentOverflow,
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


# A packed monomial gives each variable a field of _FIELD_BITS bits: the
# exponent in the low bits and a guard bit on top, clear in every valid
# monomial, which absorbs the borrow of a field-wise subtraction.
_FIELD_BITS = 32
MAX_EXPONENT = (1 << (_FIELD_BITS - 1)) - 1

_first = itemgetter(0)


class PolyRing:
    """Context for polynomials: coefficient ring, variable names, order.

    Packing: the fields are laid out in the order's priority, highest
    priority in the most significant field, so for lex the packed int
    compares like the monomial.  For degrevlex the bits above the fields
    hold the linear weight deg(e) * B^n - sum_j e[r_j] * B^(n-1-j) (B =
    2^_FIELD_BITS, r the priority reversed), which orders monomials as
    MonomialOrder.key does; so for both orders the packed int is its own
    order key.  Packing is linear in the exponents: a product is a + b, a
    quotient b - a, and a | b iff ((b | G) - a) & G == G with G the guard
    bits.
    """

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
        n = self.nvars = len(self.variables)
        w = _FIELD_BITS
        shifts = [0] * n
        for rank, v in enumerate(order.priority):
            shifts[v] = (n - 1 - rank) * w
        weights = [0] * n
        if order.kind == "degrevlex":
            for j, v in enumerate(reversed(order.priority)):
                weights[v] = (1 << (n * w)) - (1 << ((n - 1 - j) * w))
        self._shifts = tuple(shifts)  # bit offset of each variable's field
        self._weighted = order.kind == "degrevlex"
        # the packed monomial of each variable
        self._gens = tuple((1 << s) + (wt << (n * w)) for s, wt in zip(shifts, weights))
        self._guard = sum(1 << (s + w - 1) for s in shifts)
        self._ones = sum(1 << s for s in shifts)
        self.zero = MultiPoly(self, ())

    # -- packed monomials ----------------------------------------------------------

    def _pack(self, exps: Sequence[int]) -> int:
        m = 0
        for e, g in zip(exps, self._gens):
            if e:
                if e < 0:
                    raise DomainError(f"negative exponent in {tuple(exps)}")
                if e > MAX_EXPONENT:
                    raise ExponentOverflow(f"exponent {e} exceeds {MAX_EXPONENT}")
                m += e * g
        return m

    def _unpack(self, m: int) -> tuple[int, ...]:
        return tuple((m >> s) & MAX_EXPONENT for s in self._shifts)

    def _lcm(self, a: int, b: int) -> int:
        guard = self._guard
        d = (b | guard) - a  # field v: guard + b_v - a_v, guard bit set iff b_v >= a_v
        t = d & guard
        excess = d & (t - (t >> (_FIELD_BITS - 1)))  # max(b_v - a_v, 0) per field
        if self._weighted:
            excess = self._pack(self._unpack(excess))
        return a + excess

    def _support(self, m: int) -> int:
        """The guard bits of the variables m uses."""
        guard = self._guard
        return ((m | guard) - self._ones) & guard

    # -- construction ------------------------------------------------------------

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
            checked.append((self._pack(exps), self.ring.coerce(coeff).data))
        return self._collect(checked)

    def _collect(self, terms: Iterable[tuple]) -> MultiPoly:
        """The canonical polynomial of (packed monomial, payload) terms:
        like terms summed, zeros dropped, monomials in descending order."""
        R = self.ring
        add = R._payload_add
        zero = R._zero_data
        acc: dict = {}
        for m, c in terms:
            if c == zero:
                continue
            old = acc.get(m)
            acc[m] = c if old is None else add(old, c)
        items = [t for t in acc.items() if t[1] != zero]
        items.sort(key=_first, reverse=True)
        return MultiPoly(self, tuple(items))

    def constant(self, c) -> MultiPoly:
        c = self.ring.coerce(c)
        if c.is_zero():
            return self.zero
        return MultiPoly(self, ((0, c.data),))

    @property
    def one(self) -> MultiPoly:
        return self.constant(self.ring.one)

    def gen(self, i: int) -> MultiPoly:
        return MultiPoly(self, ((self._gens[i], self.ring.one.data),))

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
        if i == len(tokens):
            raise ParseError(f"no terms in {text!r}")
        while i < len(tokens):
            coeff = 1
            exps = [0] * self.nvars
            expect_factor = True
            while i < len(tokens) and tokens[i] not in "+-":
                tok = tokens[i]
                if tok == "*":
                    if expect_factor:
                        raise ParseError(f"'*' without a factor before it in {text!r}")
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
                expect_factor = False
                i += 1
            if expect_factor:
                raise ParseError(f"empty term or trailing '*' in {text!r}")
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
            if not (isinstance(exps, list) and all(type(e) is int for e in exps)):
                raise ParseError(f"bad term {item!r}: exponents must be a list of integers")
            if len(exps) != self.nvars or min(exps, default=0) < 0:
                raise ParseError(f"bad term {item!r}: bad exponent vector")
            terms.append((tuple(exps), self.ring.element_from_json(coeff)))
        return self.poly(terms)


def lex_ring(ring: Ring, variables: Sequence[str]) -> PolyRing:
    """The lex PolyRing over ring in variables, interned on ring: the models
    of one MinRank instance, and their x blocks, are built over one
    coefficient ring with the same names again and again, and share one
    ring each.  A PolyRing never changes, so a race only builds an equal
    one twice."""
    key = tuple(variables)
    interned = ring.__dict__.setdefault("_lex_rings", {})
    P = interned.get(key)
    if P is None:
        P = interned[key] = PolyRing(ring, key, "lex")
    return P


class MultiPoly:
    """Immutable polynomial; terms strictly descending under the ring order.

    _terms holds (packed monomial, ring payload) pairs; terms is their boxed
    view, (exponent tuple, RingElement) pairs, built on first read.
    """

    __slots__ = ("ring", "_terms", "_head", "_boxed")

    def __init__(self, ring: PolyRing, terms: tuple):
        self.ring = ring
        self._terms = terms
        self._head = None
        self._boxed = None

    @property
    def terms(self) -> tuple[tuple[tuple[int, ...], RingElement], ...]:
        boxed = self._boxed
        if boxed is None:
            R = self.ring.ring
            unpack = self.ring._unpack
            boxed = self._boxed = tuple((unpack(m), RingElement(R, c)) for m, c in self._terms)
        return boxed

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, self._terms))

    # -- leading data ----------------------------------------------------------

    def leading_term(self) -> tuple[tuple[int, ...], RingElement]:
        if not self._terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        m, c = self._terms[0]
        return self.ring._unpack(m), RingElement(self.ring.ring, c)

    def leading_coefficient(self) -> RingElement:
        return self.leading_term()[1]

    def head_data(self):
        """(packed lm, val lc, payload of the inverse of the unit part of lc)
        over a chain ring, computed on first use and kept: the polynomial
        never changes."""
        head = self._head
        if head is None:
            if not self._terms:
                raise ZeroPolynomial("zero polynomial has no leading term")
            m, c = self._terms[0]
            R = self.ring.ring
            v = R._payload_valuation(c)
            head = self._head = (m, v, R._payload_invert(R._payload_quo_pi(c, v)))
        return head

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        unpack = self.ring._unpack
        return max(sum(unpack(m)) for m, _ in self._terms)

    def degree_in(self, var: int) -> int:
        if not self._terms:
            return -1
        s = self.ring._shifts[var]
        return max((m >> s) & MAX_EXPONENT for m, _ in self._terms)

    def vars_used(self) -> set[int]:
        used = 0
        for m, _ in self._terms:
            used |= m  # a field of the union is nonzero iff some term's is
        return {v for v, s in enumerate(self.ring._shifts) if (used >> s) & MAX_EXPONENT}

    def is_constant(self) -> bool:
        return all(m == 0 for m, _ in self._terms)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        return self._plus_multiple(self._coerce(other), 0, None)

    def __sub__(self, other):
        R = self.ring.ring
        return self._plus_multiple(self._coerce(other), 0, R._payload_neg(R.one.data))

    def _plus_multiple(self, g: "MultiPoly", shift: int, coeff) -> "MultiPoly":
        """self + coeff * x^shift * g for a packed monomial shift and a
        payload coeff (None reads as 1)."""
        return MultiPoly(self.ring, tuple(_add_terms(self.ring, self._terms, g._terms, shift, coeff)))

    def __neg__(self):
        neg = self.ring.ring._payload_neg
        return MultiPoly(self.ring, tuple((m, neg(c)) for m, c in self._terms))

    def __mul__(self, other):
        other = self._coerce(other)
        ring = self.ring
        mul = ring.ring._payload_mul
        guard = ring._guard
        products = []
        for ma, ca in self._terms:
            for mb, cb in other._terms:
                m = ma + mb
                if m & guard:
                    raise _overflow()
                products.append((m, mul(ca, cb)))
        return ring._collect(products)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: RingElement) -> MultiPoly:
        return MultiPoly(self.ring, self._scaled(self.ring.ring.coerce(c).data))

    def _scaled(self, c) -> tuple:
        # scaling leaves the monomials, and so their order, unchanged
        R = self.ring.ring
        mul = R._payload_mul
        zero = R._zero_data
        return tuple((m, v) for m, x in self._terms if (v := mul(c, x)) != zero)

    def term_mul(self, exps: tuple[int, ...], coeff: RingElement) -> MultiPoly:
        ring = self.ring
        shift = ring._pack(exps)
        return ring.zero._plus_multiple(self, shift, ring.ring.coerce(coeff).data)

    def _coerce(self, other) -> MultiPoly:
        if isinstance(other, MultiPoly):
            if other.ring is not self.ring and other.ring != self.ring:
                raise DomainError("polynomials from different rings")
            return other
        return self.ring.constant(other)

    # -- evaluation and substitution ----------------------------------------------

    def evaluate(self, point: Sequence[RingElement]) -> RingElement:
        R = self.ring.ring
        if len(point) != self.ring.nvars:
            raise DomainError("evaluation point has wrong arity")
        fields = [(R.coerce(x).data, s) for x, s in zip(point, self.ring._shifts)]
        add, mul, power = R._payload_add, R._payload_mul, R._payload_pow
        total = R._zero_data
        for m, v in self._terms:
            for x, s in fields:
                exp = (m >> s) & MAX_EXPONENT
                if exp:
                    v = mul(v, power(x, exp))
            total = add(total, v)
        return RingElement(R, total)

    def substitute(self, var: int, value: RingElement) -> MultiPoly:
        """Specialize one variable to a ring constant."""
        ring = self.ring
        R = ring.ring
        x = R.coerce(value).data
        mul, power = R._payload_mul, R._payload_pow
        s, g = ring._shifts[var], ring._gens[var]
        out = []
        for m, c in self._terms:
            e = (m >> s) & MAX_EXPONENT
            out.append((m - e * g, mul(c, power(x, e))) if e else (m, c))
        return ring._collect(out)

    def derivative(self, var: int) -> MultiPoly:
        # dividing the monomials that contain var by var keeps them distinct
        # and in order, since both orders are compatible with multiplication
        ring = self.ring
        R = ring.ring
        mul = R._payload_mul
        zero = R._zero_data
        s, g = ring._shifts[var], ring._gens[var]
        out = []
        for m, c in self._terms:
            e = (m >> s) & MAX_EXPONENT
            if e:
                v = mul(R.from_int(e).data, c)
                if v != zero:
                    out.append((m - g, v))
        return MultiPoly(ring, tuple(out))

    def map_to(self, target: PolyRing, var_map: Sequence[int]) -> MultiPoly:
        """Reinterpret in another PolyRing; var_map[i] = target index of var i."""
        R = self.ring.ring
        if self._terms and target.ring != R:
            raise DomainError(f"element of {R} used in {target.ring}")
        unpack = self.ring._unpack
        terms = []
        for m, c in self._terms:
            ne = [0] * target.nvars
            for i, exp in enumerate(unpack(m)):
                if exp:
                    ne[var_map[i]] = exp
            terms.append((target._pack(ne), c))
        return target._collect(terms)

    def __repr__(self):
        return self.format()

    def format(self) -> str:
        if not self._terms:
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


# -- compiled evaluation ----------------------------------------------------------
# The solver evaluates each polynomial at many points.  It reads the
# polynomial once into a compiled form over a list of variables and hands it
# to its ring's kernels, _payload_evaluate and _payload_gradient (rings.Ring,
# overridden in Zpk), on payload points.  MultiPoly.evaluate stays a separate loop: the oracles
# and the CLI's verify use it, so the reference shares no evaluation code
# with the solver.


def compile_polys(polys: Sequence[MultiPoly], variables: Sequence[int]) -> list[list[tuple]]:
    """Each of polys' terms as (payload, ((position, exponent), ...)), where
    position indexes variables and zero exponents are dropped; the polys
    share one ring and use no variable outside variables.  This is the
    format of the ring kernels _payload_evaluate and _payload_gradient,
    which read a point as a sequence of payloads indexed by position.  One
    table maps each monomial to its factors, so a monomial that several
    polys share is read once."""
    if not polys:
        return []
    shifts = list(enumerate(polys[0].ring._shifts[v] for v in variables))
    table: dict = {}
    out = []
    for f in polys:
        terms = []
        for m, c in f._terms:
            factors = table.get(m)
            if factors is None:
                factors = table[m] = tuple([(i, e) for i, s in shifts if (e := (m >> s) & MAX_EXPONENT)])
            terms.append((c, factors))
        out.append(terms)
    return out


def split_compiled(terms: list[tuple], free) -> Iterable[list[tuple]]:
    """Compiled terms grouped by their monomial in the positions in free,
    each term with those factors taken out: the coefficients, in the free
    variables, of the polynomial with the other variables fixed."""
    groups: dict = {}
    for c, factors in terms:
        key = tuple(f for f in factors if f[0] in free)
        groups.setdefault(key, []).append((c, tuple(f for f in factors if f[0] not in free)))
    return groups.values()


def _overflow() -> ExponentOverflow:
    return ExponentOverflow(f"a product has an exponent above {MAX_EXPONENT}")


def _add_terms(ring: PolyRing, ta, tb, shift: int, coeff) -> list:
    """The term list of ta + coeff * x^shift * tb: both descending, shift a
    packed monomial, coeff a payload (None reads as 1).  One linear merge;
    multiplying by a monomial keeps tb's order."""
    R = ring.ring
    add = R._payload_add
    mul = R._payload_mul
    zero = R._zero_data
    guard = ring._guard
    out: list = []
    append = out.append
    i = 0
    na = len(ta)
    ma = ta[0][0] if na else -1  # packed monomials are >= 0; -1 marks the end
    for mb, cb in tb:
        if coeff is not None:
            cb = mul(coeff, cb)
            if cb == zero:
                continue
        if shift:
            mb += shift
            if mb & guard:
                raise _overflow()
        while ma > mb:
            append(ta[i])
            i += 1
            ma = ta[i][0] if i < na else -1
        if ma == mb:
            c = add(ta[i][1], cb)
            if c != zero:
                append((mb, c))
            i += 1
            ma = ta[i][0] if i < na else -1
        else:
            append((mb, cb))
    out.extend(ta[i:])
    return out


def _univariate_var(polys: Sequence[MultiPoly], var: int | None) -> int:
    """The one variable the nonzero polys use (var if given; the lowest-
    priority one if they are constants); DomainError if they use more."""
    used = set()
    for p in polys:
        used |= p.vars_used()
    if var is None:
        var = next(iter(used)) if used else polys[0].ring.order.priority[-1]
    if not used <= {var}:
        raise DomainError("system is not univariate")
    return var


def macaulay_rows(polys: Sequence[MultiPoly], shifts: Sequence[int]) -> tuple[list, list]:
    """The Macaulay matrix of x^s * f for each packed monomial s in shifts
    and each f in polys (shift-major): (columns, rows), the columns being
    the packed monomials that occur, in descending order, and each row one
    product as a sparse payload row, column index -> nonzero coefficient."""
    if not polys:
        return [], []
    ring = polys[0].ring
    return macaulay_matrix([_add_terms(ring, (), f._terms, s, None) for s in shifts for f in polys])


def macaulay_matrix(products: Sequence) -> tuple[list, list]:
    """(columns, rows) as macaulay_rows gives them, for the term lists of
    the products themselves, one row each in order."""
    # a packed monomial is its own order key
    columns = sorted({m for terms in products for m, _ in terms}, reverse=True)
    index = {m: j for j, m in enumerate(columns)}
    return columns, [{index[m]: c for m, c in terms} for terms in products]


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
    if not all(a <= b for a, b in zip(e1, e2)):
        return None
    v1, v2 = R.valuation(c1), R.valuation(c2)
    if v1 > v2:
        return None
    u = R.mul(R.unit_part(c2), R.invert(R.unit_part(c1)))
    coeff = R.mul(u, R.pow(R.pi_element, v2 - v1))
    return (tuple(b - a for a, b in zip(e1, e2)), coeff)


_MAX_REDUCTION_STEPS = 200_000


def divisor_table(basis: Iterable[MultiPoly], start: int = 0) -> list[tuple]:
    """What strong reduction reads of each nonzero member of basis, in
    order: (packed lm, val lc, payload of the inverse of lc's unit part,
    terms, index), the index counting from start over the nonzero members
    (strong_reduce_with_witness reads it).  A caller that reduces by one
    basis many times keeps the table and passes it to strong_reduce."""
    members = [g for g in basis if g._terms]
    return [(g._head or g.head_data()) + (g._terms, gi) for gi, g in enumerate(members, start)]


def _reduce_core(f: MultiPoly, heads: list[tuple], full: bool, record):
    ring = f.ring
    R = ring.ring
    guard = ring._guard
    valuation = R._payload_valuation
    quo_pi = R._payload_quo_pi
    mul = R._payload_mul
    neg = R._payload_neg
    pi_power = R._payload_pi_power
    rem: list = []
    work = f._terms
    steps = 0
    last = None
    while work:
        m2, c2 = work[0]
        v2 = valuation(c2)
        top = m2 | guard
        for m1, v1, inv1, g_terms, gi in heads:
            if v1 <= v2 and (top - m1) & guard == guard:
                # lt(work) = coeff * x^(m2 - m1) * lt(g) exactly
                coeff = mul(mul(quo_pi(c2, v2), inv1), pi_power(v2 - v1))
                work = _add_terms(ring, work, g_terms, m2 - m1, neg(coeff))
                if record is not None:
                    record.append((gi, m2 - m1, coeff))
                break
        else:
            if not full:
                rem.extend(work)
                break
            rem.append(work[0])
            work = work[1:]
        steps += 1
        if steps > _MAX_REDUCTION_STEPS:
            raise ResourceExceeded("reduction did not terminate within the step cap")
        if work:
            m = work[0][0]
            if last is not None and m >= last:
                raise InternalInvariant("reduction must descend")
            last = m
    return MultiPoly(ring, tuple(rem))


def strong_reduce(
    f: MultiPoly, basis: Iterable[MultiPoly], full: bool = False, divisors: list | None = None
) -> MultiPoly:
    """Normal form of f under one-step strong reduction by the basis.

    Head-only by default (no lt(g) divides lt(result)); with full=True the
    reduction continues into lower terms for canonical output.  divisors,
    if given, is divisor_table(basis), kept by the caller.
    """
    if divisors is None:
        divisors = divisor_table(basis)
    return _reduce_core(f, divisors, full, None)


def strong_reduce_with_witness(f: MultiPoly, basis, full: bool = False):
    """Like strong_reduce but also returns quotients q_i with
    f = sum q_i * basis_i + remainder."""
    basis = [g for g in basis if not g.is_zero()]
    record: list = []
    remainder = _reduce_core(f, divisor_table(basis), full, record)
    quotients = [f.ring.zero for _ in basis]
    for gi, m, coeff in record:
        quotients[gi] = quotients[gi] + f.ring._collect([(m, coeff)])
    return remainder, quotients
