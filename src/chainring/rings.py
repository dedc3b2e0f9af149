"""Finite chain rings (Z_{p^k}, Galois rings) and explicit products of them.

Elements are immutable values tied to a ring descriptor.  Chain rings expose
the valuation/Teichmüller machinery (valuation, unit_part, π-adic digits);
product rings have componentwise arithmetic and the CRT layer at the end.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Sequence

from . import _elimination
from .errors import (
    BadGenerator,
    ComponentMismatch,
    DomainError,
    InternalInvariant,
    NotAUnit,
    NotChainRing,
    ParseError,
    TooLarge,
    ZeroElement,
)


# Desk-scale bounds on a ring descriptor, checked before the work they bound:
# trial division of p and n (up to 2^20 steps), p^k as an int, and the
# trial divisions over a Galois ring's residue field
_PRIME_CAP = 1 << 40
_MODULUS_BITS = 4096
_RESIDUE_FIELD_CAP = 1 << 14


def _power_exceeds(b: int, e: int, cap: int) -> bool:
    """b^e > cap, for b >= 2 and e >= 0; the power is computed only for e
    below cap's bit length, since 2^e > cap from there on."""
    return e >= cap.bit_length() or b**e > cap


def _factor(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n by trial division; [] for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class RingElement:
    """An element of a finite ring; the payload layout is owned by the ring."""

    __slots__ = ("ring", "data")

    def __init__(self, ring, data):
        self.ring = ring
        self.data = data

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        if self.ring is not other.ring and self.ring != other.ring:
            return False
        return self.data == other.data

    def __hash__(self):
        return hash((hash(self.ring), self.data))

    def __add__(self, other):
        return self.ring.add(self, self.ring.coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.ring.sub(self, self.ring.coerce(other))

    def __rsub__(self, other):
        return self.ring.sub(self.ring.coerce(other), self)

    def __neg__(self):
        return self.ring.neg(self)

    def __mul__(self, other):
        return self.ring.mul(self, self.ring.coerce(other))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        return self.ring.pow(self, e)

    def is_zero(self) -> bool:
        return self.data == self.ring._zero_data

    def is_unit(self) -> bool:
        return self.ring.is_unit(self)

    def __repr__(self):
        return f"{self.ring.short_name()}({self.ring.format_element(self)})"


class Ring:
    """Common protocol: arithmetic, enumeration, canonical ordering, JSON."""

    def coerce(self, x) -> RingElement:
        if isinstance(x, RingElement):
            if x.ring != self:
                raise DomainError(f"element of {x.ring} used in {self}")
            return x
        if isinstance(x, int):
            return self.from_int(x)
        raise DomainError(f"cannot coerce {x!r} into {self}")

    def pow(self, a: RingElement, e: int) -> RingElement:
        if e < 0:
            return self.pow(self.invert(a), -e)
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def sub(self, a: RingElement, b: RingElement) -> RingElement:
        return self.add(a, self.neg(b))

    def sum(self, items) -> RingElement:
        total = self.zero
        for x in items:
            total = self.add(total, x)
        return total

    def descriptor(self) -> tuple:
        raise NotImplementedError

    # -- payload arithmetic ---------------------------------------------------
    # polys and linalg compute on RingElement.data: a polynomial
    # (polys.MultiPoly) stores payload terms and a matrix (linalg.RingMatrix)
    # sparse payload rows, and each boxes only at its public edge.  Every
    # ring's _payload_add, _payload_mul and _payload_neg are its arithmetic,
    # and its element methods box the results.  A payload is an int over Zpk,
    # and over a coordinate ring (a Galois ring or a local ring) the base
    # payloads of its coordinates as digits of one int, with flat operation
    # tables below _OP_TABLE_CAP (CoordinateRing); over a product ring it is
    # the tuple of the components' elements.  Zero is _zero_data.

    def _payload_pow(self, x, e: int):
        """x^e for e >= 0."""
        result = self.one.data
        while e:
            if e & 1:
                result = self._payload_mul(result, x)
            e >>= 1
            if e:
                x = self._payload_mul(x, x)
        return result

    # A sparse row maps each column of a nonzero entry to its payload.  These
    # row operations serve the matrices over every ring; Zpk overrides them
    # with native ints.

    def _payload_scale(self, u, row: dict) -> dict:
        """u * row, as a new sparse row."""
        mul, zero = self._payload_mul, self._zero_data
        out = {}
        for j, a in row.items():
            x = mul(u, a)
            if x != zero:
                out[j] = x
        return out

    def _payload_addmul(self, row_i: dict, c, row_j: dict) -> dict:
        """row_i + c * row_j, as a new sparse row; the loop walks row_j's
        entries only."""
        add, mul, zero = self._payload_add, self._payload_mul, self._zero_data
        out = dict(row_i)
        get = out.get
        for j, b in row_j.items():
            x = add(get(j, zero), mul(c, b))
            if x != zero:
                out[j] = x
            else:
                out.pop(j, None)
        return out

    # The evaluation kernels of the solver's lift and re-verification.  A
    # compiled polynomial (polys.compile_polys) is a list of terms (payload,
    # ((position, exponent), ...)); a point is a sequence of payloads indexed
    # by position.  Zpk overrides both with native-int arithmetic.

    def _payload_evaluate(self, terms, point):
        """The payload value of compiled terms at point."""
        add, mul, power = self._payload_add, self._payload_mul, self._payload_pow
        total = self._zero_data
        for v, factors in terms:
            for i, e in factors:
                v = mul(v, point[i] if e == 1 else power(point[i], e))
            total = add(total, v)
        return total

    def _payload_gradient(self, terms, point, k: int) -> list:
        """The payload values at point of the partial derivatives of
        compiled terms in positions 0..k-1, in one pass over the terms."""
        add, mul, power = self._payload_add, self._payload_mul, self._payload_pow
        grad = [self._zero_data] * k
        for c, factors in terms:
            # a factor's value is needed only in the derivatives of the others
            if len(factors) > 1:
                values = [point[i] if e == 1 else power(point[i], e) for i, e in factors]
            else:
                values = ()
            for j, (i, e) in enumerate(factors):
                d = c if e == 1 else mul(mul(self.from_int(e).data, c), power(point[i], e - 1))
                for other, v in enumerate(values):
                    if other != j:
                        d = mul(d, v)
                grad[i] = add(grad[i], d)
        return grad

    def __eq__(self, other):
        # rings compare structurally (kind + descriptor), so a JSON round-trip
        # or a Frobenius-aware subclass still matches the plain ring
        if self is other:
            return True
        return (
            isinstance(other, Ring)
            and self.kind == other.kind
            and self.descriptor() == other.descriptor()
        )

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.kind, self.descriptor()))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return self.short_name()


# rings with at most this many elements keep a table of unit inverses
_INVERSE_TABLE_CAP = 1 << 10
# coordinate rings with a span of at most this many payloads keep flat
# operation tables; the add and mul tables have span^2 entries, 1 MB for
# both at the cap
_OP_TABLE_CAP = 1 << 8


class CoordinateRing(Ring):
    """A ring whose elements are coordinate vectors over a chain ring base:
    the Galois rings (ExtensionChainRing) and the local rings
    (localring.LocalRingPresentation).  A payload is an int whose digits in
    base |base| are the coordinates' base payloads, coordinate 0 the most
    significant; _coords and _from_coords alone know this layout.  A ring
    whose span of |base|^dim payloads is at most _OP_TABLE_CAP keeps flat
    add, mul and neg tables, each entry computed by the coordinate code when
    first asked for.  A subclass calls _lay_out and supplies _coord_mul;
    _reduced(coords) is the payload of coordinates not yet canonical.
    """

    def _lay_out(self, base: "ChainRing", dim: int):
        self.base = base
        B = base.size
        # the place value of each coordinate's digit in a payload
        self._places = tuple(B ** (dim - 1 - i) for i in range(dim))
        self._span = span = B**dim
        self._zero_data = 0
        self.zero = RingElement(self, 0)
        if span > _OP_TABLE_CAP:
            self._add_table = self._mul_table = self._neg_table = None
        else:
            # flat x * span + y for add and mul; None until first computed
            self._add_table, self._mul_table, self._neg_table = [None] * (span * span), [None] * (span * span), [None] * span

    # -- coordinates ------------------------------------------------------------

    def _coords(self, x) -> list:
        """The base payloads of a payload's coordinates."""
        B = self.base.size
        return [x // place % B for place in self._places]

    def _from_coords(self, cs) -> int:
        x = 0
        B = self.base.size
        for c in cs:
            x = x * B + c
        return x

    _reduced = _from_coords

    def coords(self, a: RingElement) -> tuple[RingElement, ...]:
        """The coordinates of a over the base."""
        base = self.base
        return tuple(RingElement(base, c) for c in self._coords(a.data))

    # -- payload arithmetic: table lookups, or the coordinate code above the cap

    def _payload_add(self, x, y):
        table = self._add_table
        if table is None:
            return self._coord_add(x, y)
        i = x * self._span + y
        z = table[i]
        if z is None:
            z = table[i] = self._coord_add(x, y)
        return z

    def _payload_mul(self, x, y):
        table = self._mul_table
        if table is None:
            return self._coord_mul(x, y)
        i = x * self._span + y
        z = table[i]
        if z is None:
            z = table[i] = self._coord_mul(x, y)
        return z

    def _payload_neg(self, x):
        table = self._neg_table
        if table is None:
            return self._coord_neg(x)
        z = table[x]
        if z is None:
            z = table[x] = self._coord_neg(x)
        return z

    def _coord_add(self, x, y):
        add = self.base._payload_add
        return self._reduced([add(a, b) for a, b in zip(self._coords(x), self._coords(y))])

    def _coord_neg(self, x):
        neg = self.base._payload_neg
        return self._reduced([neg(a) for a in self._coords(x)])

    # -- element methods on coordinates -------------------------------------------

    def scalar_mul(self, c: RingElement, a: RingElement) -> RingElement:
        """Multiply by a base-ring scalar."""
        base = self.base
        c = base.coerce(c).data
        mul = base._payload_mul
        return RingElement(self, self._reduced([mul(c, x) for x in self._coords(a.data)]))

    def sort_key(self, a):
        key = ()
        for x in self.coords(a):
            key += self.base.sort_key(x)
        return key

    def element_to_json(self, a):
        return [self.base.element_to_json(x) for x in self.coords(a)]


class ChainRing(Ring):
    """A finite chain ring with maximal ideal (pi) of nilpotency index nu.

    Both concrete kinds (Zpk and ExtensionChainRing) have pi = p and nu = k,
    residue field of size q.  The Teichmüller set Γ = {a : a^q = a} is cached
    at first use and serves as the digit set for π-adic decompositions.
    Caches hold immutable values and fills are idempotent, so concurrent
    readers are safe (a race just recomputes the same tuple).
    """

    p: int
    nu: int
    q: int
    size: int

    def __init__(self):
        self._gamma = None
        self._digit_table = None  # residue -> Teichmüller digit payload
        self._vanishing = None  # coefficient cache for F_m, set by solve
        self._inverses = None  # unit payload -> inverse, for rings up to _INVERSE_TABLE_CAP
        self._pi_powers = None  # payloads of pi^0 .. pi^nu

    # -- arithmetic: each element method boxes a payload method ---------------

    def add(self, a: RingElement, b: RingElement) -> RingElement:
        return RingElement(self, self._payload_add(a.data, b.data))

    def neg(self, a: RingElement) -> RingElement:
        return RingElement(self, self._payload_neg(a.data))

    def mul(self, a: RingElement, b: RingElement) -> RingElement:
        return RingElement(self, self._payload_mul(a.data, b.data))

    def invert(self, a: RingElement) -> RingElement:
        """Inverse of a unit."""
        return RingElement(self, self._payload_invert(a.data))

    # -- chain-ring structure ------------------------------------------------

    def valuation(self, a: RingElement) -> int:
        """The unique l with a = pi^l * unit; valuation(0) = nu."""
        return self._payload_valuation(a.data)

    def exact_div_pi_power(self, a: RingElement, l: int) -> RingElement:
        """a / pi^l for valuation(a) >= l, choosing the lexicographically
        minimal representative (coefficientwise integer division by p^l)."""
        x = a.data
        if l > self._payload_valuation(x) and x != self._zero_data:
            raise ZeroElement(f"{a!r} is not divisible by pi^{l}")
        return RingElement(self, self._payload_quo_pi(x, l))

    def residue_key(self, a: RingElement):
        """Hashable key identifying a mod pi."""
        return self._payload_residue(a.data)

    def reduce_mod_pi_power(self, a: RingElement, e: int) -> RingElement:
        """Canonical representative of a modulo the ideal pi^e R."""
        raise NotImplementedError

    def unit_part(self, a: RingElement) -> RingElement:
        if a.is_zero():
            raise ZeroElement("unit_part of 0 is undefined")
        return self.exact_div_pi_power(a, self.valuation(a))

    def is_unit(self, a: RingElement) -> bool:
        return self.valuation(a) == 0

    def _inverse_table(self) -> dict:
        table: dict = {}
        for a in self.elements():
            if a.data not in table and self.valuation(a) == 0:
                inv = self._lift_inverse(a).data
                table[a.data] = inv
                table[inv] = a.data
        return table

    def _lift_inverse(self, a: RingElement) -> RingElement:
        """Residue-field inverse lifted by Newton iteration."""
        if self.valuation(a) != 0:
            raise NotAUnit(f"{a!r} has positive valuation")
        # a^(q-2) inverts a modulo pi; Newton doubles the precision per step
        x = self.pow(a, self.q - 2)
        two = self.from_int(2)
        steps = max(1, (self.nu - 1).bit_length())
        for _ in range(steps):
            x = self.mul(x, self.sub(two, self.mul(a, x)))
        if self.mul(a, x) != self.one:
            raise InternalInvariant("Newton iteration did not invert a unit")
        return x

    # -- Teichmüller set and π-adic digits ------------------------------------

    def teichmuller_set(self) -> tuple[RingElement, ...]:
        """The q elements with a^q = a, sorted by canonical representative."""
        if self._gamma is None:
            if self.size <= 1 << 16:
                gamma = [a for a in self.elements() if self.pow(a, self.q) == a]
            else:
                gamma = []
                for rep in self.residue_lifts():
                    a = rep
                    for _ in range(self.nu):
                        a = self.pow(a, self.q)
                    gamma.append(a)
            if len(gamma) != self.q:
                raise InternalInvariant("Teichmüller set does not have q elements")
            gamma.sort(key=self.sort_key)
            self._gamma = tuple(gamma)
        return self._gamma

    def teichmuller_digit(self, a: RingElement) -> RingElement:
        """The unique γ in Γ with a ≡ γ (mod pi)."""
        return RingElement(self, self._payload_digit(a.data))

    def pi_adic_digits(
        self, a: RingElement, pi_choice: RingElement | None = None
    ) -> tuple[RingElement, ...]:
        """Digits (c_0, ..., c_{nu-1}) in Γ with a = Σ c_j * pi_choice^j."""
        if pi_choice is None:
            pi_choice = self.pi_element
        if self.valuation(pi_choice) != 1:
            raise BadGenerator(f"{pi_choice!r} does not generate the maximal ideal")
        u_inv = None
        if self.nu > 1:
            u_inv = self.invert(self.unit_part(pi_choice))
        digits = []
        c = a
        for _ in range(self.nu):
            g = self.teichmuller_digit(c)
            digits.append(g)
            c = self.sub(c, g)
            if u_inv is not None:
                c = self.exact_div_pi_power(self.mul(c, u_inv), 1)
        return tuple(digits)

    def pi_adic_compose(
        self, digits: Sequence[RingElement], pi_choice: RingElement | None = None
    ) -> RingElement:
        if pi_choice is None:
            pi_choice = self.pi_element
        acc = self.zero
        power = self.one
        for d in digits:
            acc = self.add(acc, self.mul(d, power))
            power = self.mul(power, pi_choice)
        return acc

    def residue_lifts(self) -> Iterator[RingElement]:
        """Canonical lifts of the residue field (digit-0 representatives)."""
        raise NotImplementedError

    # -- payload arithmetic (see Ring) -----------------------------------------

    def _payload_pi_power(self, v: int):
        """The payload of pi^v for 0 <= v <= nu."""
        powers = self._pi_powers
        if powers is None:
            powers = self._pi_powers = tuple(
                self.pow(self.pi_element, v).data for v in range(self.nu + 1)
            )
        return powers[v]

    def _teichmuller_digits(self) -> dict:
        """The residue key of each γ in Γ -> γ's payload, in Γ's order."""
        table = self._digit_table
        if table is None:
            table = self._digit_table = {self.residue_key(g): g.data for g in self.teichmuller_set()}
        return table

    def _payload_digit(self, x):
        """The payload of teichmuller_digit: the γ in Γ with x ≡ γ (mod pi)."""
        return (self._digit_table or self._teichmuller_digits())[self._payload_residue(x)]

    def _payload_quo_pi(self, x, v: int):
        """q with x = q * pi^v + reduce_mod_pi_power(x, v); for valuation(x)
        >= v this is exact_div_pi_power(x, v)."""
        raise NotImplementedError

    def _payload_invert(self, x):
        """The inverse of a unit.  A ring of at most _INVERSE_TABLE_CAP
        elements builds a table of every unit's inverse on first use; a
        larger one lifts each inverse by Newton iteration."""
        table = self._inverses
        if table is None and self.size <= _INVERSE_TABLE_CAP:
            table = self._inverses = self._inverse_table()
        if table is None:
            return self._lift_inverse(RingElement(self, x)).data
        inv = table.get(x)
        if inv is None:
            raise NotAUnit(f"{x!r} has positive valuation in {self.short_name()}")
        return inv

    # The residue-field kernel of the solver's lift.  At a residue root γ0
    # every branch above it solves D f(γ0) z ≡ b (mod π) for some right-hand
    # side b, so the Jacobian is factored once and each b only replays the
    # factoring.  Zpk overrides it with native ints mod p.

    def _residue_solver(self, rows):
        """The solver of the lift's linear congruences at one residue root:
        rows (at least one) are the Jacobian rows D f(γ0), payloads read mod
        π.  Gauss-Jordan over the residue field runs once, on Teichmüller
        payloads (Γ is closed under multiplication, so only a sum needs its
        digit taken), and logs its row operations per pivot: the row swapped
        in, the pivot's inverse and the multiples subtracted from the other
        rows.  The returned solve(values, j), for payloads values divisible
        by π^j, replays the log on b = -(values/π^j) mod π and yields every
        z in Γ^k with rows·z ≡ b (mod π), as Teichmüller payloads, the free
        columns running through Γ's product in its order."""
        add, mul, neg, digit = self._payload_add, self._payload_mul, self._payload_neg, self._payload_digit
        quo_pi, zero = self._payload_quo_pi, self._zero_data
        gamma = [g.data for g in self.teichmuller_set()]
        a = [[digit(x) for x in row] for row in rows]
        m, k = len(a), len(a[0])
        log, pivots = [], []
        for c in range(k):
            r = len(pivots)
            for s in range(r, m):
                if a[s][c] != zero:
                    break
            else:
                continue
            row = a[s]
            a[s] = a[r]
            inv = self._payload_pow(row[c], self.q - 2)  # Γ* has order q - 1
            a[r] = row = [mul(inv, x) for x in row]
            eliminated = []
            for i, other in enumerate(a):
                f = other[c]
                if f != zero and i != r:
                    a[i] = [digit(add(x, neg(mul(f, y)))) for x, y in zip(other, row)]
                    eliminated.append((i, f))
            log.append((s, inv, eliminated))
            pivots.append(c)
        rank = len(pivots)
        free = [c for c in range(k) if c not in pivots]
        # each pivot variable is its row's right-hand side less its free terms
        back = [(c, [(free.index(fc), a[r][fc]) for fc in free if a[r][fc] != zero]) for r, c in enumerate(pivots)]

        def solve(values, j):
            b = [digit(neg(quo_pi(v, j))) for v in values]
            for r, (s, inv, eliminated) in enumerate(log):
                b[r], b[s] = b[s], b[r]
                x = b[r] = mul(inv, b[r])
                if x != zero:
                    for i, f in eliminated:
                        b[i] = digit(add(b[i], neg(mul(f, x))))
            if any(x != zero for x in b[rank:]):
                return  # inconsistent
            for combo in itertools.product(gamma, repeat=len(free)):
                z = [zero] * k
                for fc, g in zip(free, combo):
                    z[fc] = g
                for r, (c, terms) in enumerate(back):
                    x = b[r]
                    for t, f in terms:
                        x = digit(add(x, neg(mul(f, combo[t]))))
                    z[c] = x
                yield tuple(z)

        return solve

    # The sparse elimination kernels behind linalg.payload_echelon and
    # linalg.payload_smith, which state their contract; Zpk overrides both
    # with native ints mod p^k (see _elimination).
    _payload_echelon = _elimination.echelon
    _payload_smith = _elimination.smith


class Zpk(ChainRing):
    """The ring of integers modulo p^k.  Element payload: int in [0, p^k)."""

    kind = "zpk"

    def __init__(self, p: int, k: int):
        if p >= _PRIME_CAP:
            raise TooLarge(f"p = {p} is not below 2^40")
        if _factor(p) != [(p, 1)]:
            raise DomainError(f"p = {p} is not prime")
        if k < 1:
            raise DomainError("k must be >= 1")
        if _power_exceeds(p, k, (1 << _MODULUS_BITS) - 1):
            raise TooLarge(f"p^k = {p}^{k} has more than {_MODULUS_BITS} bits")
        super().__init__()
        self.p = p
        self.k = k
        self.nu = k
        self.q = p
        self.modulus = p**k
        self.size = self.modulus
        self.char = self.modulus
        self.zero = RingElement(self, 0)
        self._zero_data = 0
        self.one = RingElement(self, 1 % self.modulus)
        self.pi_element = RingElement(self, p % self.modulus)

    def descriptor(self):
        return (self.p, self.k)

    def short_name(self):
        return f"Z{self.modulus}"

    def element(self, data: int) -> RingElement:
        return RingElement(self, data % self.modulus)

    def from_int(self, n: int) -> RingElement:
        return RingElement(self, n % self.modulus)

    def _payload_valuation(self, x):
        if x == 0:
            return self.nu
        v = 0
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

    def _payload_invert(self, x):
        if x % self.p == 0:
            raise NotAUnit(f"{x} is not a unit mod {self.modulus}")
        return pow(x, -1, self.modulus)

    def _payload_quo_pi(self, x, v):
        return x // self.p**v

    def _payload_residue(self, x):
        return x % self.p

    def _payload_add(self, x, y):
        return (x + y) % self.modulus

    def _payload_mul(self, x, y):
        return x * y % self.modulus

    def _payload_neg(self, x):
        return -x % self.modulus

    def _payload_pow(self, x, e):
        return pow(x, e, self.modulus)

    def _payload_evaluate(self, terms, point):
        M = self.modulus
        total = 0
        for v, factors in terms:
            for i, e in factors:
                v *= point[i] if e == 1 else pow(point[i], e, M)
            total += v
        return total % M

    def _payload_gradient(self, terms, point, k):
        M = self.modulus
        grad = [0] * k
        for c, factors in terms:
            n = len(factors)
            if n == 2:
                (i, e), (j, f) = factors
                if e == 1 == f:
                    # c·x_i·x_j, the shape of every term of the bilinear models
                    grad[i] += c * point[j]
                    grad[j] += c * point[i]
                    continue
            elif n == 1:
                ((i, e),) = factors
                grad[i] += c if e == 1 else c * e * pow(point[i], e - 1, M)
                continue
            elif not n:
                continue  # a constant
            values = [point[i] if e == 1 else pow(point[i], e, M) for i, e in factors]
            for j, (i, e) in enumerate(factors):
                d = c if e == 1 else c * e * pow(point[i], e - 1, M)
                for other, v in enumerate(values):
                    if other != j:
                        d *= v
                grad[i] += d
        return [g % M for g in grad]

    def _residue_solver(self, rows):
        # ChainRing's Gauss-Jordan and replay on residues, ints mod p; a
        # residue becomes its Teichmüller payload only in a yielded z
        p = self.p
        teich = self._teichmuller_digits()
        residues = list(teich)  # in Γ's order
        a = [[x % p for x in row] for row in rows]
        m, k = len(a), len(a[0])
        log, pivots = [], []
        for c in range(k):
            r = len(pivots)
            for s in range(r, m):
                if a[s][c]:
                    break
            else:
                continue
            row = a[s]
            a[s] = a[r]
            inv = pow(row[c], -1, p)
            if inv != 1:
                row = [inv * x % p for x in row]
            a[r] = row
            eliminated = []
            for i, other in enumerate(a):
                f = other[c]
                if f and i != r:
                    a[i] = [(x - f * y) % p for x, y in zip(other, row)]
                    eliminated.append((i, f))
            log.append((s, inv, eliminated))
            pivots.append(c)
        rank = len(pivots)
        free = [c for c in range(k) if c not in pivots]
        back = [(c, [(free.index(fc), a[r][fc]) for fc in free if a[r][fc]]) for r, c in enumerate(pivots)]

        def solve(values, j):
            pj = p**j
            b = [-(v // pj) for v in values]
            # the entries stay unreduced until a pivot or the check reads them
            for r, (s, inv, eliminated) in enumerate(log):
                b[r], b[s] = b[s], b[r]
                x = b[r] = b[r] * inv % p
                if x:
                    for i, f in eliminated:
                        b[i] -= f * x
            if any(x % p for x in b[rank:]):
                return  # inconsistent
            for combo in itertools.product(residues, repeat=len(free)):
                z = [0] * k
                for fc, x in zip(free, combo):
                    z[fc] = teich[x]
                for r, (c, terms) in enumerate(back):
                    x = b[r]
                    for t, f in terms:
                        x -= f * combo[t]
                    z[c] = teich[x % p]
                yield tuple(z)

        return solve

    def _payload_scale(self, u, row):
        M = self.modulus
        return {j: x for j, a in row.items() if (x := u * a % M)}

    def _payload_addmul(self, row_i, c, row_j):
        M = self.modulus
        out = dict(row_i)
        get = out.get
        for j, b in row_j.items():
            x = (get(j, 0) + c * b) % M
            if x:
                out[j] = x
            else:
                out.pop(j, None)
        return out

    _payload_echelon = _elimination.zpk_echelon
    _payload_smith = _elimination.zpk_smith

    def reduce_mod_pi_power(self, a, e):
        return RingElement(self, a.data % self.p**e)

    def residue_lifts(self):
        for i in range(self.p):
            yield RingElement(self, i)

    def elements(self):
        for i in range(self.modulus):
            yield RingElement(self, i)

    def sort_key(self, a):
        return (a.data,)

    def format_element(self, a):
        return str(a.data)

    def element_to_json(self, a):
        return a.data

    def element_from_json(self, obj):
        if type(obj) is not int:  # bool is a subclass of int
            raise ParseError(f"a {self.short_name()} element must be an integer, got {obj!r}")
        return self.element(obj)

    def to_json(self):
        return {"kind": "zpk", "p": self.p, "k": self.k}


class ExtensionChainRing(ChainRing, CoordinateRing):
    """base[X]/(h) for h monic of degree m, irreducible modulo pi.

    With base = Z_{p^k} this is the Galois ring GR(p^k, m).  Its coordinates
    (CoordinateRing) are the coefficients of 1, alpha, ..., alpha^{m-1}; its
    payloads are the ints in [0, size), so ascending ints follow elements()
    and sort_key.  A tabled ring keeps valuation, residue and pi-quotient
    tables beside the operation tables.
    """

    kind = "gr"

    def __init__(self, base: ChainRing, modulus: Sequence[RingElement]):
        if not isinstance(base, ChainRing):
            raise NotChainRing("extension base must be a chain ring")
        super().__init__()
        mod = [base.coerce(c) for c in modulus]
        while mod and mod[-1].is_zero():
            mod.pop()
        if len(mod) < 2 or mod[-1] != base.one:
            raise DomainError("modulus must be monic of degree >= 1")
        self.modulus_poly = tuple(mod)
        self.degree = len(mod) - 1
        m = self.degree
        if _power_exceeds(base.q, m, _RESIDUE_FIELD_CAP):
            # the irreducibility check and galois_ring's modulus search
            # are trial divisions over the residue field
            raise TooLarge(f"GR over {base.short_name()} of degree {m} has a residue field above 2^14 elements")
        self._lay_out(base, m)
        self.p = base.p
        self.nu = base.nu
        self.k = base.nu
        self.q = base.q**m
        self.size = base.size**m
        self.char = base.char
        self.one = self.from_int(1)
        self.pi_element = self.from_int(base.p)
        self._alpha_powers = self._reduction_table()
        if not _residue_irreducible(base, self.modulus_poly):
            raise DomainError("modulus is not irreducible modulo pi")
        # a tabled ring keeps one quotient table per v in 0..nu
        n = self.size
        if self._mul_table is None:
            self._valuation_table = self._residue_table = self._quo_tables = None
        else:
            self._valuation_table, self._residue_table = [None] * n, [None] * n
            self._quo_tables = [[None] * n for _ in range(self.nu + 1)]

    def _reduction_table(self):
        """Coordinate payloads of alpha^t for t in [m, 2m-2]."""
        m = self.degree
        base = self.base
        top = [base.neg(c) for c in self.modulus_poly[:m]]
        table = [tuple(top)]
        for _ in range(m - 2):
            prev = table[-1]
            shifted = [base.zero] + list(prev[: m - 1])
            lead = prev[m - 1]
            nxt = [base.add(shifted[i], base.mul(lead, top[i])) for i in range(m)]
            table.append(tuple(nxt))
        return [tuple(c.data for c in row) for row in table]

    def descriptor(self):
        return (self.base.descriptor(), tuple(c.data for c in self.modulus_poly))

    def short_name(self):
        return f"GR({self.base.char},{self.degree * _total_degree(self.base)})"

    @property
    def alpha(self) -> RingElement:
        if self.degree == 1:
            return self.element([self.base.neg(self.modulus_poly[0])])
        return self.element([0, 1])

    def element(self, coords) -> RingElement:
        m = self.degree
        base = self.base
        out = [base.coerce(c).data for c in coords]
        if len(out) > m:
            raise DomainError(f"expected <= {m} coordinates")
        out += [base._zero_data] * (m - len(out))
        return RingElement(self, self._from_coords(out))

    def from_int(self, n: int) -> RingElement:
        return RingElement(self, self.base.from_int(n).data * self._places[0])

    # -- chain-ring payload methods: table lookups, or the coordinate code

    def _payload_valuation(self, x) -> int:
        table = self._valuation_table
        if table is None:
            return self._coord_valuation(x)
        z = table[x]
        if z is None:
            z = table[x] = self._coord_valuation(x)
        return z

    def _payload_residue(self, x):
        table = self._residue_table
        if table is None:
            return self._coord_residue(x)
        z = table[x]
        if z is None:
            z = table[x] = self._coord_residue(x)
        return z

    def _payload_quo_pi(self, x, v):
        tables = self._quo_tables
        if tables is None:
            return self._coord_quo_pi(x, v)
        # every quotient by pi^v with v >= nu is 0
        table = tables[min(v, self.nu)]
        z = table[x]
        if z is None:
            z = table[x] = self._coord_quo_pi(x, v)
        return z

    # the coordinate code: loops over the base payloads of the coordinates

    def _coord_mul(self, x, y):
        m = self.degree
        base = self.base
        zero = base._zero_data
        add, mul = base._payload_add, base._payload_mul
        ys = self._coords(y)
        conv = [zero] * (2 * m - 1)
        for i, a in enumerate(self._coords(x)):
            if a == zero:
                continue
            for j, b in enumerate(ys):
                if b != zero:
                    conv[i + j] = add(conv[i + j], mul(a, b))
        out = conv[:m]
        for t in range(m, 2 * m - 1):
            c = conv[t]
            if c == zero:
                continue
            red = self._alpha_powers[t - m]
            for i in range(m):
                out[i] = add(out[i], mul(c, red[i]))
        return self._from_coords(out)

    def _coord_valuation(self, x) -> int:
        valuation = self.base._payload_valuation
        return min(valuation(a) for a in self._coords(x))

    def _coord_quo_pi(self, x, v):
        quo = self.base._payload_quo_pi
        return self._from_coords([quo(a, v) for a in self._coords(x)])

    def _coord_residue(self, x):
        """The payload whose coordinates are the base residues of x's."""
        residue = self.base._payload_residue
        return self._from_coords([residue(a) for a in self._coords(x)])

    # -- element methods on coordinates -------------------------------------------

    def reduce_mod_pi_power(self, a, e):
        base = self.base
        return self.element([base.reduce_mod_pi_power(x, e) for x in self.coords(a)])

    def residue_lifts(self):
        lifts = [r.data for r in self.base.residue_lifts()]
        for combo in itertools.product(lifts, repeat=self.degree):
            yield RingElement(self, self._from_coords(combo))

    def elements(self):
        for x in range(self.size):
            yield RingElement(self, x)

    def format_element(self, a):
        parts = []
        for i, c in enumerate(self.coords(a)):
            if c.is_zero():
                continue
            cs = self.base.format_element(c)
            if i == 0:
                parts.append(cs)
            else:
                mono = "a" if i == 1 else f"a^{i}"
                parts.append(mono if cs == "1" else f"{cs}*{mono}")
        return " + ".join(parts) if parts else "0"

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise ParseError(f"expected list for {self.short_name()} element")
        if len(obj) > self.degree:
            raise ParseError(f"expected <= {self.degree} coordinates, got {obj!r}")
        return self.element([self.base.element_from_json(x) for x in obj])

    def to_json(self):
        if isinstance(self.base, Zpk):
            return {
                "kind": "gr",
                "p": self.base.p,
                "k": self.base.k,
                "r": self.degree,
                "modulus": [c.data for c in self.modulus_poly],
            }
        return {
            "kind": "gr",
            "base": self.base.to_json(),
            "r": self.degree,
            "modulus": [self.base.element_to_json(c) for c in self.modulus_poly],
        }


def _total_degree(ring: ChainRing) -> int:
    if isinstance(ring, Zpk):
        return 1
    return ring.degree * _total_degree(ring.base)


def _residue_irreducible(base: ChainRing, modulus) -> bool:
    """Check that the modulus is irreducible over the residue field of base.

    Brute trial division by monic polynomials of degree <= deg/2 over Γ.
    Fine at desk scale (q^(deg/2) candidates).
    """
    from . import _unipoly as up

    gamma = base.teichmuller_set()
    hbar = [base.teichmuller_digit(c) for c in modulus]
    deg = len(hbar) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(gamma, repeat=d):
            g = list(tail) + [base.one]
            _, rem = up.residue_divmod(base, hbar, g)
            if all(c.is_zero() for c in rem):
                return False
    return True


class ProductRing(Ring):
    """An explicit product of chain rings (a finite principal ideal ring)."""

    kind = "product"

    def __init__(self, components: Sequence[ChainRing]):
        if not components:
            raise DomainError("product ring needs at least one component")
        for c in components:
            if not isinstance(c, ChainRing):
                raise NotChainRing("product components must be chain rings")
        self.components = tuple(components)
        self.size = 1
        for c in self.components:
            self.size *= c.size
        self.char = 1
        for c in self.components:
            self.char = math.lcm(self.char, c.char)
        self.zero = RingElement(self, tuple(c.zero for c in self.components))
        self._zero_data = self.zero.data
        self.one = RingElement(self, tuple(c.one for c in self.components))

    def descriptor(self):
        return tuple(c.descriptor() for c in self.components)

    def short_name(self):
        return "x".join(c.short_name() for c in self.components)

    def element(self, parts) -> RingElement:
        parts = list(parts)
        if len(parts) != len(self.components):
            raise ComponentMismatch("wrong number of components")
        return RingElement(
            self, tuple(c.coerce(x) for c, x in zip(self.components, parts))
        )

    def from_int(self, n: int) -> RingElement:
        return RingElement(self, tuple(c.from_int(n) for c in self.components))

    # -- payload arithmetic, componentwise; the element methods box it

    def _payload_add(self, x, y):
        return tuple(RingElement(c, c._payload_add(a.data, b.data)) for c, a, b in zip(self.components, x, y))

    def _payload_mul(self, x, y):
        return tuple(RingElement(c, c._payload_mul(a.data, b.data)) for c, a, b in zip(self.components, x, y))

    def _payload_neg(self, x):
        return tuple(RingElement(c, c._payload_neg(a.data)) for c, a in zip(self.components, x))

    def add(self, a, b):
        return RingElement(self, self._payload_add(a.data, b.data))

    def neg(self, a):
        return RingElement(self, self._payload_neg(a.data))

    def mul(self, a, b):
        return RingElement(self, self._payload_mul(a.data, b.data))

    def is_unit(self, a):
        return all(c.is_unit(x) for c, x in zip(self.components, a.data))

    def invert(self, a):
        return RingElement(
            self, tuple(c.invert(x) for c, x in zip(self.components, a.data))
        )

    def elements(self):
        for combo in itertools.product(*[list(c.elements()) for c in self.components]):
            yield RingElement(self, combo)

    def sort_key(self, a):
        key = ()
        for c, x in zip(self.components, a.data):
            key += c.sort_key(x)
        return key

    def format_element(self, a):
        return "(" + ", ".join(
            c.format_element(x) for c, x in zip(self.components, a.data)
        ) + ")"

    def element_to_json(self, a):
        return [c.element_to_json(x) for c, x in zip(self.components, a.data)]

    def element_from_json(self, obj):
        if not isinstance(obj, list) or len(obj) != len(self.components):
            raise ParseError("expected one entry per product component")
        return RingElement(
            self,
            tuple(c.element_from_json(x) for c, x in zip(self.components, obj)),
        )

    def to_json(self):
        return {"kind": "product", "components": [c.to_json() for c in self.components]}


# -- constructors and CRT ----------------------------------------------------


def galois_ring(p: int, k: int, r: int, modulus: Sequence[int] | None = None) -> ChainRing:
    """GR(p^k, r); r = 1 gives Z_{p^k}.  Auto-modulus is the coefficient-lex
    smallest monic lift that is irreducible mod p."""
    base = Zpk(p, k)
    if r == 1 and modulus is None:
        return base
    if modulus is not None:
        ring = ExtensionChainRing(base, [base.element(c) for c in modulus])
        if ring.degree != r:
            raise DomainError(f"the modulus has degree {ring.degree}, not r = {r}")
        return ring
    for tail in itertools.product(range(p), repeat=r):
        coeffs = [base.element(c) for c in tail] + [base.one]
        try:
            return ExtensionChainRing(base, coeffs)
        except DomainError:
            continue
    raise DomainError("no irreducible modulus found")  # unreachable for prime p


def integer_ring(n: int) -> Ring:
    """Z_n as a chain ring (prime power) or an explicit product of them."""
    if n >= _PRIME_CAP:
        raise TooLarge(f"n = {n} is not below 2^40")
    factors = _factor(n)
    if len(factors) == 1:
        p, k = factors[0]
        return Zpk(p, k)
    return ProductRing([Zpk(p, k) for p, k in factors])


# -- the CRT layer -------------------------------------------------------------
# A finite PIR is a product of chain rings, so each chain-ring method carries
# over to it by a CRT split of its input and a join of the component answers:
# each input type has one split, built on crt_parts, each result type one
# join, built on crt_joined, and crt_apply routes an entry point's call.  A
# chain ring is a product of one component, whose one part is the input.


def crt_parts(R: Ring, x, part) -> list:
    """x, a value over R, in each CRT component of R: part(idx, C) for the
    component C at index idx of a product ring, and [x] over a chain ring."""
    if isinstance(R, ProductRing):
        return [part(idx, C) for idx, C in enumerate(R.components)]
    return [x]


def crt_joined(R: Ring, parts: Iterable, join):
    """The value over R whose CRT parts are parts: join(parts) over a
    product ring, and the one part itself over a chain ring."""
    if isinstance(R, ProductRing):
        return join(parts)
    (x,) = parts
    return x


def crt_apply(R: Ring, parts: list, each, join, chain, *args):
    """A method's answer over R: chain(x, *args) over a chain ring, whose one
    part is the input x; over a product ring join(R, answers), the answers
    each(part, *args) computed lazily in order, so a join may stop early."""
    if isinstance(R, ProductRing):
        return join(R, (each(part, *args) for part in parts))
    if not isinstance(R, ChainRing):
        raise NotChainRing(f"{R} is no chain ring or product of them; solve_local_system solves over a local ring")
    return chain(parts[0], *args)


def crt_split(x: RingElement) -> list[RingElement]:
    """Components of x; a chain-ring element is its own single component."""
    return crt_parts(x.ring, x, lambda idx, C: x.data[idx])


def crt_join(parts: Sequence[RingElement], ring: Ring) -> RingElement:
    """Inverse of crt_split against the given ring."""
    parts = list(parts)
    if [x.ring for x in parts] != crt_parts(ring, ring, lambda idx, C: C):
        raise ComponentMismatch(f"{parts!r} are not the CRT components of an element of {ring}")
    return crt_joined(ring, parts, lambda parts: RingElement(ring, tuple(parts)))


def _as_list(value, key: str) -> list:
    """A field that must be a JSON list; a string there would otherwise be
    read one character at a time, and a number could not be read at all."""
    if not isinstance(value, list):
        raise ParseError(f"field '{key}' must be a list, got {value!r}")
    return value


def _int_field(obj: dict, key: str) -> int:
    """An integer field of a JSON object; a JSON bool, float or string is
    malformed input, not a number to round."""
    value = obj[key]
    if type(value) is not int:  # bool is a subclass of int
        raise ParseError(f"field '{key}' must be an integer, got {value!r}")
    return value


def _modulus_from_json(value, base: ChainRing) -> list[RingElement]:
    """The base elements of a JSON "modulus" list, low to high; a modulus
    that is not a list of base elements is malformed input."""
    if not isinstance(value, list):
        raise ParseError(f"field 'modulus' must be a list of coefficients, got {value!r}")
    try:
        return [base.element_from_json(c) for c in value]
    except ParseError as exc:
        raise ParseError(f"field 'modulus': {exc}") from exc


def _of_degree(ring: ExtensionChainRing, key: str, degree: int | None) -> ExtensionChainRing:
    """The ring, if the JSON field key (its degree) is absent or agrees with
    the degree of the modulus; zero top coefficients do not count."""
    if degree is not None and ring.degree != degree:
        raise ParseError(f"field 'modulus' has degree {ring.degree}, not {key} = {degree}")
    return ring


def _extension_ring(obj, extend, join) -> Ring:
    """The ring an extension descriptor {"base": ring, "m": int?,
    "modulus": coeffs?} names: extend(C, modulus, m) over each CRT
    component C of the base, joined by join over a product base.  modulus
    is C's JSON modulus (a product base lists one per component) and m the
    "m" field, each None where absent."""
    base = ring_from_json(obj["base"])
    if not isinstance(base, (ChainRing, ProductRing)):
        raise ParseError(f"an extension base must be a chain ring or a product of them, got {base}")
    m = _int_field(obj, "m") if "m" in obj else None
    comps = crt_parts(base, base, lambda idx, C: C)
    mods = obj.get("modulus")
    if mods is not None and isinstance(base, ProductRing):
        if not (isinstance(mods, list) and len(mods) == len(comps)):
            raise ParseError("field 'modulus' of a product extension must list one modulus per component")
    else:
        mods = [mods] * len(comps)
    return crt_joined(base, [extend(C, mod, m) for C, mod in zip(comps, mods)], join)


def ring_from_json(obj) -> Ring:
    if isinstance(obj, dict) and "kind" not in obj and "base" in obj and "modulus" in obj:
        # extension descriptor used as a plain ring: over a product base, the
        # product of the components' extensions
        return _extension_ring(
            obj,
            lambda C, mod, m: _of_degree(ExtensionChainRing(C, _modulus_from_json(mod, C)), "m", m),
            ProductRing,
        )
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(f"bad ring descriptor: {obj!r}")
    kind = obj["kind"]
    if kind == "zpk":
        return Zpk(_int_field(obj, "p"), _int_field(obj, "k"))
    if kind == "gr":
        if "base" in obj:
            base = ring_from_json(obj["base"])
            if not isinstance(base, ChainRing):
                raise ParseError("gr base must be a chain ring")
            r = _int_field(obj, "r") if "r" in obj else None
        else:
            p, k, r = (_int_field(obj, key) for key in ("p", "k", "r"))
            if obj.get("modulus") is None:
                return galois_ring(p, k, r)
            base = Zpk(p, k)
        return _of_degree(ExtensionChainRing(base, _modulus_from_json(obj["modulus"], base)), "r", r)
    if kind == "product":
        return ProductRing([ring_from_json(c) for c in _as_list(obj["components"], "components")])
    if kind == "local":
        from .localring import presentation_from_json  # localring imports this module

        return presentation_from_json(obj)
    raise ParseError(f"unknown ring kind {kind!r}")


def parse_ring_spec(spec: str) -> Ring:
    """CLI shorthand: 'zpk:2:3', 'gr:2:3:3', 'zn:6', or inline JSON."""
    spec = spec.strip()
    if spec.startswith("{"):
        import json

        try:
            obj = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad ring spec {spec!r}: {exc}") from exc
        try:
            return ring_from_json(obj)
        except KeyError as exc:
            raise ParseError(f"missing field {exc}") from exc
    parts = spec.split(":")
    try:
        if parts[0] == "zpk":
            return Zpk(int(parts[1]), int(parts[2]))
        if parts[0] == "gr":
            return galois_ring(int(parts[1]), int(parts[2]), int(parts[3]))
        if parts[0] == "zn":
            return integer_ring(int(parts[1]))
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad ring spec {spec!r}") from exc
    raise ParseError(f"bad ring spec {spec!r}")
