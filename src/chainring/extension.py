"""Galois extensions S/R of chain rings with Frobenius generator, vector
rank/support over S, matrix representations, and Plücker coordinates.

build_extension constructs S = R[X]/(h) by Hensel-lifting the
coefficient-lex smallest primitive polynomial of the residue field, so h
divides X^{q^m - 1} - 1 and the Frobenius is alpha -> alpha^q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from . import _unipoly as up
from .errors import DomainError, NotFree, ParseError, TooLarge
from .linalg import RingMatrix, determinant, is_free_rows, payload_smith, reduced_row_echelon
from .rings import (
    ChainRing,
    ExtensionChainRing,
    ProductRing,
    RingElement,
    _extension_ring,
    _factor,
    _modulus_from_json,
    _of_degree,
    _power_exceeds,
)

# a Galois extension's check builds X^(q^m - 1) - 1 densely, over a residue
# field of at most this many elements
_EXTENSION_RESIDUE_CAP = 1 << 10


def _check_residue_field(base: ChainRing, m: int):
    if _power_exceeds(base.q, m, _EXTENSION_RESIDUE_CAP):
        raise TooLarge(f"the degree-{m} extension of {base.short_name()} has a residue field above 2^10 elements")


def _residue_xgcd(R: ChainRing, f, g):
    """Extended Euclid in Γ[x]: returns (d, a, b) with a*f + b*g = d."""
    r0, r1 = up.trim(f), up.trim(g)
    a0, a1 = [R.one], []
    b0, b1 = [], [R.one]
    while r1:
        q, r = up.residue_divmod(R, r0, r1)
        r0, r1 = r1, r
        qa = up.residue_poly_mul(R, q, a1)
        qb = up.residue_poly_mul(R, q, b1)
        a0, a1 = a1, up.residue_poly_add(R, a0, up.neg(R, qa))
        b0, b1 = b1, up.residue_poly_add(R, b0, up.neg(R, qb))
    return r0, a0, b0


def _is_primitive(R: ChainRing, g) -> bool:
    """g (monic over Γ, degree m) irreducible with X of order q^m - 1."""
    q = R.q
    m = len(g) - 1
    order = q**m - 1
    x_poly = [R.zero, R.one]
    if up.residue_poly_powmod(R, x_poly, order, g) != [R.one]:
        return False
    for ell, _ in _factor(order):
        if up.residue_poly_powmod(R, x_poly, order // ell, g) == [R.one]:
            return False
    # order q^m - 1 forces irreducibility: Γ[X]/(g) then has at least q^m - 1
    # units among its q^m elements, so it is a field, while a reducible or
    # repeated-factor g leaves fewer units
    return True


def _hensel_lift_factor(R: ChainRing, g, m: int):
    """Monic h over R with h = g mod pi and h | X^{q^m - 1} - 1 exactly."""
    Q = R.q**m
    F = up.x_power_minus_one(R, Q - 1)
    Fbar = [R.teichmuller_digit(c) for c in F]
    w = up.residue_divmod(R, Fbar, g)[0]
    d, A, B = _residue_xgcd(R, g, w)
    if len(d) != 1:
        raise DomainError("factor and cofactor are not coprime mod pi")
    d_inv = up.residue_inv(R, d[0])
    A = up.scale(R, d_inv, A)
    B = up.scale(R, d_inv, B)
    G, W = list(g), list(w)
    for _ in range(R.nu - 1):
        E = up.sub(R, F, up.mul(R, G, W))
        if not E:
            break
        # delta_G = B*Ebar mod g, delta_W = A*Ebar + w*(B*Ebar div g), all mod pi
        v = min(R.valuation(c) for c in E if not c.is_zero())
        scaled = [R.exact_div_pi_power(c, v) for c in E]
        ebar = [R.teichmuller_digit(c) for c in scaled]
        be = up.residue_poly_mul(R, B, ebar)
        quo, delta_g = up.residue_divmod(R, be, g)
        delta_w = up.residue_poly_add(
            R, up.residue_poly_mul(R, A, ebar), up.residue_poly_mul(R, w, quo)
        )
        pv = R.pow(R.pi_element, v)
        G = up.add(R, G, up.scale(R, pv, delta_g))
        W = up.add(R, W, up.scale(R, pv, delta_w))
    if up.sub(R, F, up.mul(R, G, W)):
        raise DomainError("Hensel lifting failed to converge")
    return G


class GaloisExtension(ExtensionChainRing):
    """S = R[X]/(h) with h | X^{q^m-1} - 1; sigma maps alpha to alpha^q."""

    def __init__(self, base: ChainRing, modulus: Sequence[RingElement]):
        super().__init__(base, modulus)
        _check_residue_field(base, self.degree)
        Q = self.q  # residue size of S = q_base^m
        _, rem = up.divmod_monic(base, up.x_power_minus_one(base, Q - 1), list(self.modulus_poly))
        if rem:
            raise DomainError("modulus must divide X^(q^m - 1) - 1 over the base")
        m = self.degree
        # row i of mat l-1 holds the coordinate payloads of sigma^l(alpha^i);
        # the powers alpha^(i*q) come from the coordinate code, so that
        # building the ring fills no operation table
        alpha_q = self.one.data
        for _ in range(base.q):
            alpha_q = self._coord_mul(alpha_q, self.alpha.data)
        power = self.one.data
        mat = []
        for _ in range(m):
            mat.append(self._coords(power))
            power = self._coord_mul(power, alpha_q)
        self._sigma_mats: list[list[list]] = [mat]
        for _ in range(1, m):
            # sigma of alpha^i coordinates, one more application
            self._sigma_mats.append([self._apply(mat, row) for row in self._sigma_mats[-1]])
        # a ring with operation tables keeps a table of sigma^l per l in
        # 1..m-1 too, indexed by payload, each entry None until first asked
        # for: decoding applies sigma to the same few elements again and again
        self._frobenius_tables = None if self._mul_table is None else [[None] * self.size for _ in range(1, m)]

    def _apply(self, mat, cs: list) -> list:
        """The coordinate payloads of sum_i cs[i] * mat[i]."""
        base = self.base
        zero = base._zero_data
        add, mul = base._payload_add, base._payload_mul
        out = [zero] * self.degree
        for c, row in zip(cs, mat):
            if c == zero:
                continue
            for t, r in enumerate(row):
                out[t] = add(out[t], mul(c, r))
        return out

    def _payload_frobenius(self, x, l: int):
        """The payload of sigma^l of the payload x; negative l wraps around
        the cyclic Galois group."""
        l %= self.degree
        if l == 0:
            return x
        tables = self._frobenius_tables
        if tables is None:
            return self._from_coords(self._apply(self._sigma_mats[l - 1], self._coords(x)))
        table = tables[l - 1]
        z = table[x]
        if z is None:
            z = table[x] = self._from_coords(self._apply(self._sigma_mats[l - 1], self._coords(x)))
        return z

    def frobenius(self, x: RingElement, l: int = 1) -> RingElement:
        """sigma^l(x); negative l wraps around the cyclic Galois group."""
        return RingElement(self, self._payload_frobenius(x.data, l))

    def to_json(self):
        return {
            "base": self.base.to_json(),
            "m": self.degree,
            "modulus": [self.base.element_to_json(c) for c in self.modulus_poly],
        }


def build_extension(base: ChainRing, m: int) -> GaloisExtension:
    """Degree-m Galois extension with the deterministic primitive modulus."""
    if m < 1:
        raise DomainError("extension degree must be >= 1")
    _check_residue_field(base, m)
    gamma = base.teichmuller_set()
    # coefficient-lex smallest primitive polynomial: minimize
    # (c_{m-1}, ..., c_1, c_0) by canonical representative order
    for high_to_low in itertools.product(gamma, repeat=m):
        tail = list(reversed(high_to_low))
        g = tail + [base.one]
        if _is_primitive(base, g):
            h = _hensel_lift_factor(base, g, m)
            return GaloisExtension(base, h)
    raise DomainError("no primitive polynomial found")


# -- vectors over the extension -------------------------------------------------


def matrix_representation(ext: GaloisExtension, u: Sequence[RingElement]) -> RingMatrix:
    """m x n matrix over R whose column j holds the coordinates of u_j."""
    return RingMatrix._from_payloads(ext.base, _coordinate_rows(ext, [ext.coerce(x).data for x in u]), len(u))


def _coordinate_rows(ext: GaloisExtension, u: Sequence) -> list[dict]:
    """The sparse payload rows of matrix_representation(ext, u) for payloads
    u: row i holds coordinate i of each entry."""
    zero = ext.base._zero_data
    cols = [ext._coords(x) for x in u]
    return [{j: c[i] for j, c in enumerate(cols) if c[i] != zero} for i in range(ext.degree)]


def vector_rank(ext: GaloisExtension, u: Sequence[RingElement]) -> int:
    return payload_vector_rank(ext, [ext.coerce(x).data for x in u])


def payload_vector_rank(ext: GaloisExtension, u: Sequence) -> int:
    """The rank of matrix_representation(ext, u) for payloads u, counted as
    the Smith pivots of its sparse payload rows (linalg.payload_smith):
    nothing is boxed and no operation is logged."""
    return payload_smith(ext.base, _coordinate_rows(ext, u), len(u))


def vector_support(ext: GaloisExtension, u: Sequence[RingElement]) -> list[RingElement]:
    """Smith-canonical generators of the R-submodule of S spanned by the
    entries of u."""
    rep = matrix_representation(ext, u).transpose()
    gens = reduced_row_echelon(rep)
    return [ext.element(row) for row in gens.rows]


@dataclass(frozen=True)
class PluckerCoordinates:
    """r x r minors by column subset, scaled so the first unit minor is 1."""

    r: int
    coords: tuple[tuple[tuple[int, ...], RingElement], ...]

    def as_dict(self):
        return dict(self.coords)

    def __getitem__(self, subset):
        return self.as_dict()[tuple(subset)]

    def values(self):
        return tuple(v for _, v in self.coords)


def plucker_coordinates(B: RingMatrix) -> PluckerCoordinates:
    """All maximal minors of a basis matrix, unit-normalized; NotFree if the
    rows are dependent."""
    if not is_free_rows(B):
        raise NotFree("rows are not linearly independent")
    R = B.ring
    r, n = B.m, B.n
    coords = []
    first_unit = None
    for subset in itertools.combinations(range(n), r):
        minor = determinant(B.submatrix(range(r), subset))
        coords.append((subset, minor))
        if first_unit is None and minor.is_unit():
            first_unit = minor
    if first_unit is None:
        raise NotFree("no unit maximal minor; basis is not free over a chain ring")
    scale = R.invert(first_unit)
    coords = [(s, R.mul(scale, v)) for s, v in coords]
    return PluckerCoordinates(r, tuple(coords))


# -- product extensions (PIR support) --------------------------------------------


class ProductExtension(ProductRing):
    """Componentwise Galois extensions of a product of chain rings: the
    product ring of the extensions, of their common degree over the product
    of their bases."""

    def __init__(self, components: Sequence[GaloisExtension]):
        super().__init__(components)
        if len({c.degree for c in self.components}) != 1:
            raise DomainError("components must share the extension degree")
        self.degree = self.components[0].degree
        self.base_ring = ProductRing([c.base for c in self.components])

    def frobenius(self, x: RingElement, l: int = 1) -> RingElement:
        return RingElement(self, tuple(c.frobenius(p, l) for c, p in zip(self.components, x.data)))

    def to_json(self):
        return {
            "base": self.base_ring.to_json(),
            "m": self.degree,
            "modulus": [
                [c.base.element_to_json(x) for x in c.modulus_poly]
                for c in self.components
            ],
        }


def extension_from_json(obj):
    """{"base": ring, "m": int, "modulus": coeffs?}; product bases give a
    ProductExtension with per-component moduli."""
    if not isinstance(obj, dict):
        raise ParseError(f"extension descriptor must be an object, got {obj!r}")
    if "base" not in obj or "m" not in obj:
        raise ParseError("extension descriptor needs base and m")

    def extend(C, mod, m):
        if mod is None:
            return build_extension(C, m)
        return _of_degree(GaloisExtension(C, _modulus_from_json(mod, C)), "m", m)

    return _extension_ring(obj, extend, ProductExtension)
