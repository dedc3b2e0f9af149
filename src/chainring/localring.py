"""Finite commutative local rings presented as direct sums of cyclic modules
over a Galois subring, and the transformation of polynomial systems over them
into systems over that subring.

The presentation (base ring R0, basis theta_1..theta_gamma, annihilator
exponents, structure constants) is user-supplied input; a helper builds the
one for quotients Z_{p^k}[X]/(f(X), p^t X).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, NotARing, ParseError, ResourceExceeded
from .polys import MultiPoly, PolyRing
from .rings import ChainRing, CoordinateRing, RingElement, Zpk, _int_field, ring_from_json


class LocalRingPresentation(CoordinateRing):
    """R = R0*theta_1 + ... + R0*theta_gamma with p^{s_j} R0 = Ann(theta_j).

    Elements are coordinate vectors over R0 (CoordinateRing), coordinate j
    reduced modulo p^{s_j} (the unique representative of Lemma-4.1 type).
    Multiplication routes through the structure-constants tensor.
    """

    kind = "local"

    def __init__(
        self,
        base: ChainRing,
        ann_exponents: Sequence[int],
        structure_constants,
        unity: Sequence,
    ):
        self.gamma_count = len(ann_exponents)
        if self.gamma_count < 1:
            raise DomainError("need at least one basis element")
        self.ann_exponents = tuple(int(s) for s in ann_exponents)
        if any(not (1 <= s <= base.nu) for s in self.ann_exponents):
            raise DomainError("annihilator exponents must lie in [1, nu]")
        g = self.gamma_count
        self._lay_out(base, g)
        self.structure = tuple(
            tuple(tuple(base.coerce(c) for c in structure_constants[i][j]) for j in range(g)) for i in range(g)
        )
        if any(len(row) != g for plane in self.structure for row in plane):
            raise DomainError("structure tensor has wrong shape")
        # theta_i theta_j as its nonzero (s, payload) coordinates
        self._products = tuple(
            tuple(tuple((s, c.data) for s, c in enumerate(row) if not c.is_zero()) for row in plane)
            for plane in self.structure
        )
        self.size = 1
        for s in self.ann_exponents:
            self.size *= base.q ** (s * _residue_degree(base))
        self.one = self.element(unity)
        problem = self.first_violation()
        if problem is not None:
            raise NotARing(problem)

    # -- ring protocol --------------------------------------------------------

    def _reduced(self, coords) -> int:
        """The payload of base-payload coordinates, coordinate j reduced mod
        p^{s_j}."""
        return self._from_coords(map(self._mod_pi_power, coords, self.ann_exponents))

    def _mod_pi_power(self, x, s: int):
        """The base payload x reduced mod p^s: x - quo_pi(x, s) * pi^s."""
        base = self.base
        q = base._payload_mul(base._payload_quo_pi(x, s), base._payload_pi_power(s))
        return base._payload_add(x, base._payload_neg(q))

    def _coord_mul(self, x, y):
        base = self.base
        add, mul = base._payload_add, base._payload_mul
        out = _structure_product(
            self._products, self._coords(x), self._coords(y), base._zero_data, mul, lambda acc, t, c: add(acc, mul(t, c))
        )
        return self._reduced(out)

    def element(self, coords) -> RingElement:
        coords = [self.base.coerce(c).data for c in coords]
        if len(coords) != self.gamma_count:
            raise DomainError(f"expected {self.gamma_count} coordinates")
        return RingElement(self, self._reduced(coords))

    def from_int(self, n: int) -> RingElement:
        return self.scalar_mul(self.base.from_int(n), self.one)

    def add(self, a, b):
        return RingElement(self, self._payload_add(a.data, b.data))

    def neg(self, a):
        return RingElement(self, self._payload_neg(a.data))

    def mul(self, a, b):
        return RingElement(self, self._payload_mul(a.data, b.data))

    def is_unit(self, a):
        return any(self.mul(a, b) == self.one for b in self.elements())

    def invert(self, a):
        for b in self.elements():
            if self.mul(a, b) == self.one:
                return b
        raise DomainError(f"{a!r} is not a unit")

    def elements(self):
        base = self.base
        slots = [[x.data for x in base.elements() if base.reduce_mod_pi_power(x, s) == x] for s in self.ann_exponents]
        for combo in itertools.product(*slots):
            yield RingElement(self, self._from_coords(combo))

    def descriptor(self):
        return (
            self.base.descriptor(),
            self.ann_exponents,
            tuple(
                tuple(tuple(c.data for c in row) for row in plane)
                for plane in self.structure
            ),
            tuple(self._coords(self.one.data)),
        )

    def short_name(self):
        return f"Local({self.base.short_name()},g={self.gamma_count})"

    def format_element(self, a):
        parts = []
        for j, c in enumerate(self.coords(a)):
            if c.is_zero():
                continue
            cs = self.base.format_element(c)
            name = f"t{j + 1}"
            parts.append(f"{cs}*{name}" if cs != "1" else name)
        return " + ".join(parts) if parts else "0"

    def element_from_json(self, obj):
        if not isinstance(obj, list):
            raise ParseError("local-ring element must be a coordinate list")
        if len(obj) != self.gamma_count:
            raise ParseError(f"expected {self.gamma_count} coordinates, got {obj!r}")
        return self.element([self.base.element_from_json(x) for x in obj])

    def to_json(self):
        return {
            "kind": "local",
            "base": self.base.to_json(),
            "gamma": self.gamma_count,
            "ann": list(self.ann_exponents),
            "mul": [
                [[self.base.element_to_json(c) for c in row] for row in plane]
                for plane in self.structure
            ],
            "one": self.element_to_json(self.one),
        }

    # -- validation -------------------------------------------------------------

    def basis_element(self, j: int) -> RingElement:
        coords = [self.base.zero] * self.gamma_count
        coords[j] = self.base.one
        return self.element(coords)

    def first_violation(self):
        """None if the presentation satisfies the ring axioms, else a message
        naming the first failing triple."""
        g = self.gamma_count
        thetas = [self.basis_element(j) for j in range(g)]
        for i in range(g):
            for j in range(g):
                if self.mul(thetas[i], thetas[j]) != self.mul(thetas[j], thetas[i]):
                    return f"commutativity fails on (theta_{i+1}, theta_{j+1})"
        for i in range(g):
            for j in range(g):
                for l in range(g):
                    lhs = self.mul(self.mul(thetas[i], thetas[j]), thetas[l])
                    rhs = self.mul(thetas[i], self.mul(thetas[j], thetas[l]))
                    if lhs != rhs:
                        return (
                            f"associativity fails on (theta_{i+1}, theta_{j+1},"
                            f" theta_{l+1})"
                        )
        for j in range(g):
            if self.mul(self.one, thetas[j]) != thetas[j]:
                return f"unity does not fix theta_{j+1}"
        # p^{s_j} theta_j = 0 must be consistent with the products
        p_elt = self.base.pi_element
        for i in range(g):
            for j in range(g):
                scaled = self.scalar_mul(
                    self.base.pow(p_elt, self.ann_exponents[j]),
                    self.mul(thetas[i], thetas[j]),
                )
                if not self.is_zero(scaled):
                    return f"p^{self.ann_exponents[j]}*theta_{i+1}*theta_{j+1} != 0"
        return None

    def is_zero(self, u: RingElement) -> bool:
        """Condition (c): p^{nu - s_j} u_j = 0 for every coordinate."""
        base = self.base
        for s, c in zip(self.ann_exponents, self.coords(u)):
            if not base.mul(base.pow(base.pi_element, base.nu - s), c).is_zero():
                return False
        return True


def _structure_product(products, a, b, zero, mul, addmul) -> list:
    """The coordinates of (sum_i a_i theta_i)(sum_j b_j theta_j), where
    products[i][j] lists the nonzero (s, t) with theta_i theta_j =
    sum_s t theta_s, t a base payload.  The a_i and b_j are values of one
    kind (base payloads, or polynomials over the base), zero is that kind's
    zero, mul multiplies two values and addmul(acc, t, c) is acc + t*c."""
    g = len(a)
    out = [zero] * g
    for i in range(g):
        if a[i] == zero:
            continue
        for j in range(g):
            if b[j] == zero:
                continue
            c = mul(a[i], b[j])
            for s, t in products[i][j]:
                out[s] = addmul(out[s], t, c)
    return out


def _residue_degree(base: ChainRing) -> int:
    # log_p of the residue field size
    d = 0
    q = base.q
    while q > 1:
        q //= base.p
        d += 1
    return d


def quotient_presentation(p: int, k: int, f_coeffs: Sequence[int], t: int) -> LocalRingPresentation:
    """Presentation of Z_{p^k}[X]/(f(X), p^t * X) with theta = X.

    f monic of degree d gives the basis (1, theta, ..., theta^{d-1}) with
    annihilator exponents (k, t, ..., t).
    """
    base = Zpk(p, k)
    f = [base.element(c) for c in f_coeffs]
    if not f or f[-1] != base.one:
        raise DomainError("f must be monic")
    d = len(f) - 1
    if d < 1:
        raise DomainError("f must have degree >= 1")
    from . import _unipoly as up

    g = d
    ann = [k] + [t] * (g - 1)
    # theta^i * theta^j reduced modulo f
    structure = []
    for i in range(g):
        plane = []
        for j in range(g):
            prod = [base.zero] * (i + j) + [base.one]
            _, rem = up.divmod_monic(base, prod, f)
            rem = list(rem) + [base.zero] * (g - len(rem))
            plane.append(rem[:g])
        structure.append(plane)
    unity = [base.one] + [base.zero] * (g - 1)
    return LocalRingPresentation(base, ann, structure, unity)


def presentation_from_json(obj) -> LocalRingPresentation:
    """A local-ring descriptor; its ann and one must have gamma entries and
    its mul must be gamma x gamma x gamma, or it is malformed input."""
    if not isinstance(obj, dict):
        raise ParseError(f"a local-ring descriptor must be an object, got {obj!r}")
    if obj.get("kind") != "local":
        raise ParseError("expected a local-ring descriptor")
    base = ring_from_json(obj["base"])
    if not isinstance(base, ChainRing):
        raise ParseError("local-ring base must be a chain ring")
    g = _int_field(obj, "gamma")

    def shaped(value, depth: int) -> bool:
        return isinstance(value, list) and len(value) == g and (
            depth == 1 or all(shaped(v, depth - 1) for v in value)
        )

    ann, mul, one = obj["ann"], obj["mul"], obj["one"]
    if not shaped(ann, 1) or any(type(s) is not int for s in ann):
        raise ParseError(f"field 'ann' must be a list of gamma = {g} integers, got {ann!r}")
    if not shaped(mul, 3):
        raise ParseError(f"field 'mul' must be gamma x gamma x gamma = {g} x {g} x {g}")
    if not shaped(one, 1):
        raise ParseError(f"field 'one' must be a list of gamma = {g} base elements, got {one!r}")
    mul = [[[base.element_from_json(c) for c in row] for row in plane] for plane in mul]
    return LocalRingPresentation(base, ann, mul, [base.element_from_json(c) for c in one])


# -- system expansion and contraction ------------------------------------------


@dataclass(frozen=True)
class ExpandedSystem:
    presentation: LocalRingPresentation
    source_ring: PolyRing
    target_ring: PolyRing
    equations: tuple[MultiPoly, ...]


def expand_system(system: Sequence[MultiPoly]) -> ExpandedSystem:
    """Replace each variable x_i over R by gamma variables x_i_j over R0 and
    split every equation into gamma coordinate equations scaled by
    p^{nu - s_s}; the solution sets correspond exactly.

    A symbolic element of R is a vector of gamma polynomials over R0, each a
    dict from packed monomial to nonzero payload, multiplied by the same
    structure-constant rule as the ring's own elements.  The vector of
    x_i^e is built once per variable and exponent, by squaring the cached
    vectors of lower powers; each equation is collected once."""
    system = list(system)
    if not system:
        raise DomainError("empty system")
    src = system[0].ring
    pres = src.ring
    if not isinstance(pres, LocalRingPresentation):
        raise DomainError("expand_system expects polynomials over a local ring")
    base = pres.base
    g = pres.gamma_count
    names = []
    for v in src.variables:
        for j in range(g):
            names.append(f"{v}_{j + 1}")
    target = PolyRing(base, names, src.order.kind)
    add, mul, zero = base._payload_add, base._payload_mul, base._zero_data

    def times(x: dict, y: dict) -> dict:
        out: dict = {}
        for mx, cx in x.items():
            for my, cy in y.items():
                m = mx + my
                v = mul(cx, cy)
                out[m] = add(out[m], v) if m in out else v
        return {m: c for m, c in out.items() if c != zero}

    def product(x: list, y: list) -> list:
        return _structure_product(pres._products, x, y, {}, times, base._payload_addmul)

    x_vecs = [[{target._gens[i * g + j]: base.one.data} for j in range(g)] for i in range(src.nvars)]
    powers: dict = {}  # (i, e) -> the vector of x_i^e

    def power(i: int, e: int) -> list:
        vec = powers.get((i, e))
        if vec is None:
            if e == 1:
                vec = x_vecs[i]
            else:
                half = power(i, e // 2)
                vec = product(half, half)
                if e % 2:
                    vec = product(vec, x_vecs[i])
            powers[i, e] = vec
        return vec

    scales = [base._payload_pi_power(base.nu - s) for s in pres.ann_exponents]
    equations = []
    for f in system:
        coords: list[list] = [[] for _ in range(g)]
        for exps, coeff in f.terms:
            vec = [{0: x} if x != zero else {} for x in pres._coords(coeff.data)]
            for i, e in enumerate(exps):
                if e:
                    vec = product(vec, power(i, e))
            for s in range(g):
                coords[s].extend(vec[s].items())
        for s in range(g):
            k = scales[s]
            equations.append(target._collect((m, mul(k, c)) for m, c in coords[s]))
    return ExpandedSystem(pres, src, target, tuple(equations))


def contract_solutions(expanded: ExpandedSystem, solutions) -> frozenset:
    """Map solutions over R0^{k*gamma} back to R^k, reducing coordinate j
    modulo p^{s_j} and deduplicating.  A coordinate may be ALL_OF_RING: it
    then takes each residue mod p^{s_j} once.  The points are deduplicated
    as tuples of payloads over R and boxed once each."""
    from .solve import ALL_OF_RING

    pres = expanded.presentation
    base = pres.base
    g = pres.gamma_count
    k = expanded.source_ring.nvars
    ann = pres.ann_exponents
    mod = pres._mod_pi_power
    reduced: dict = {}  # a block of coordinate payloads -> its payload over R
    residues: dict = {}  # s -> the payloads of R0 mod p^s

    def reduce(block) -> int:
        key = tuple(x.data for x in block)
        r = reduced.get(key)
        if r is None:
            r = reduced[key] = pres._reduced(key)
        return r

    def options(j: int, x) -> list:
        s = ann[j]
        if x is not ALL_OF_RING:
            return [mod(x.data, s)]
        slot = residues.get(s)
        if slot is None:
            slot = residues[s] = list({mod(y.data, s) for y in base.elements()})
        return slot

    seen: set = set()
    for sol in solutions:
        blocks = [sol[i * g : (i + 1) * g] for i in range(k)]
        if ALL_OF_RING not in sol:
            seen.add(tuple(map(reduce, blocks)))
            continue
        slots = [list(map(pres._from_coords, itertools.product(*map(options, range(g), block)))) for block in blocks]
        seen.update(itertools.product(*slots))
    return frozenset(tuple(RingElement(pres, x) for x in point) for point in seen)


def solve_local_system(system: Sequence[MultiPoly]):
    """Expand to the Galois subring, solve there, contract back; exact.

    Elimination (solve_system) runs first.  When one of its caps trips
    (ResourceExceeded) and the route rule admits the expanded system with
    enumeration_budget() as its residue cap (solve._lifts), the residue-field
    lift (solve_system_lifting) solves it instead: both routes are exact, so
    the answer is the same, and the lift's own caps still apply."""
    from .solve import _lifts, enumeration_budget, solve_system, solve_system_lifting

    expanded = expand_system(system)
    equations = list(expanded.equations)
    target = expanded.target_ring
    try:
        inner = solve_system(equations)
    except ResourceExceeded:
        if not _lifts(target.ring, target.nvars, enumeration_budget()):
            raise
        inner = solve_system_lifting(equations)
    inner.check_cap()
    return contract_solutions(expanded, inner.solutions)
