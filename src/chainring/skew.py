"""Skew polynomials S[X; sigma] with operator evaluation and minimal
annihilators of vectors.

Multiplication follows X*a = sigma(a)*X; evaluation is the semilinear
operator f(x) = a_0 x + a_1 sigma(x) + ... which makes (f*g)(x) = f(g(x)).
"""

from __future__ import annotations

from typing import Sequence

from .errors import DomainError, InternalInvariant, ParseError, RankExceeds
from .extension import GaloisExtension, matrix_representation, vector_rank
from .linalg import free_envelope
from .rings import RingElement


class SkewPoly:
    """Coefficients low-to-high over the extension; trailing zeros trimmed."""

    __slots__ = ("ext", "coeffs")

    def __init__(self, ext: GaloisExtension, coeffs: Sequence[RingElement]):
        self.ext = ext
        cs = [ext.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, ext: GaloisExtension) -> "SkewPoly":
        return cls(ext, [ext.one])

    @classmethod
    def x(cls, ext: GaloisExtension) -> "SkewPoly":
        return cls(ext, [ext.zero, ext.one])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ext.one

    def __eq__(self, other):
        if not isinstance(other, SkewPoly):
            return NotImplemented
        return self.ext == other.ext and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ext, self.coeffs))

    def __add__(self, other):
        self._check(other)
        S = self.ext
        n = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else S.zero
            b = other.coeffs[i] if i < len(other.coeffs) else S.zero
            out.append(S.add(a, b))
        return SkewPoly(S, out)

    def __neg__(self):
        S = self.ext
        return SkewPoly(S, [S.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product under X a = sigma(a) X."""
        self._check(other)
        S = self.ext
        if self.is_zero() or other.is_zero():
            return SkewPoly(S, [])
        out = [S.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = S.add(out[i + j], S.mul(a, S.frobenius(b, i)))
        return SkewPoly(S, out)

    def _check(self, other):
        if not isinstance(other, SkewPoly) or other.ext != self.ext:
            raise DomainError("skew polynomials over different extensions")

    def __call__(self, x):
        return self.evaluate(x)

    def evaluate(self, x):
        """Operator evaluation; tuples evaluate componentwise."""
        S = self.ext
        if isinstance(x, (tuple, list)):
            return tuple(self.evaluate(v) for v in x)
        x = S.coerce(x)
        acc = S.zero
        for l, a in enumerate(self.coeffs):
            if not a.is_zero():
                acc = S.add(acc, S.mul(a, S.frobenius(x, l)))
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = self.ext.format_element(c)
            if i == 0:
                parts.append(f"({cs})")
            elif i == 1:
                parts.append("X" if cs == "1" else f"({cs})*X")
            else:
                parts.append(f"X^{i}" if cs == "1" else f"({cs})*X^{i}")
        return " + ".join(parts)

    def to_json(self):
        return {"coeffs": [self.ext.element_to_json(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, ext: GaloisExtension, obj) -> "SkewPoly":
        if "coeffs" not in obj:
            raise ParseError("skew polynomial JSON needs a coeffs list")
        return cls(ext, [ext.element_from_json(c) for c in obj["coeffs"]])


def annihilator(ext: GaloisExtension, u: Sequence[RingElement], r: int) -> SkewPoly:
    """The canonical monic degree-r skew polynomial with f(u) = 0.

    Built over a free envelope of supp(u): f_0 = 1 and
    f_{i+1} = (X - sigma(v_i) v_i^{-1}) f_i with v_i = f_i(b_{i+1}); the
    envelope basis is independent mod pi, which keeps every v_i a unit.
    Raises RankExceeds when rk(u) > r (no such monic polynomial exists).
    """
    u = [ext.coerce(x) for x in u]
    rk = vector_rank(ext, u)
    if rk > r:
        raise RankExceeds(f"vector rank {rk} exceeds requested degree {r}")
    if r == 0:
        return SkewPoly.one(ext)
    rep = matrix_representation(ext, u).transpose()  # n x m, rows = coordinates
    f = SkewPoly.one(ext)
    for row in free_envelope(rep, r).rows:
        v = f.evaluate(ext.element(row))
        if not v.is_unit():
            raise InternalInvariant(f"envelope image {v!r} is not a unit")
        w = ext.mul(ext.frobenius(v), ext.invert(v))
        f = SkewPoly(ext, [ext.neg(w), ext.one]) * f
    if not (f.is_monic() and f.degree() == r):
        raise InternalInvariant("annihilator is not monic of degree r")
    if not all(f.evaluate(x).is_zero() for x in u):
        raise InternalInvariant("annihilator does not vanish on its inputs")
    return f
