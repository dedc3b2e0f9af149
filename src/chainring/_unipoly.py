"""Dense univariate polynomial helpers over a ring or its residue field.

Polynomials are lists of ring elements, low degree first, trailing zeros
trimmed.  The residue-field variants work on Teichmüller representatives
(Γ is multiplicatively closed, so only addition needs a digit reduction).
"""

from __future__ import annotations

from .errors import DomainError


def trim(coeffs):
    out = list(coeffs)
    while out and out[-1].is_zero():
        out.pop()
    return out


def add(ring, f, g, plus=None):
    plus = plus or ring.add
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else ring.zero
        b = g[i] if i < len(g) else ring.zero
        out.append(plus(a, b))
    return trim(out)


def neg(ring, f):
    return [ring.neg(c) for c in f]

def sub(ring, f, g):
    return add(ring, f, neg(ring, g))


def scale(ring, c, f):
    return trim([ring.mul(c, x) for x in f])


def mul(ring, f, g, plus=None):
    plus = plus or ring.add
    if not f or not g:
        return []
    out = [ring.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a.is_zero():
            continue
        for j, b in enumerate(g):
            out[i + j] = plus(out[i + j], ring.mul(a, b))
    return trim(out)


def divmod_monic(ring, f, g):
    """Quotient and remainder by a monic divisor; valid over any ring."""
    g = trim(g)
    if not g or g[-1] != ring.one:
        raise DomainError("divisor must be monic")
    rem = list(f)
    dg = len(g) - 1
    if dg == 0:
        return list(f), []
    quo = [ring.zero] * max(0, len(rem) - dg)
    while len(trim(rem)) - 1 >= dg:
        rem = trim(rem)
        lead = rem[-1]
        pos = len(rem) - 1 - dg
        quo[pos] = ring.add(quo[pos], lead)
        for i in range(dg + 1):
            rem[pos + i] = ring.sub(rem[pos + i], ring.mul(lead, g[i]))
    return trim(quo), trim(rem)


def evaluate(ring, f, x):
    acc = ring.zero
    for c in reversed(f):
        acc = ring.add(ring.mul(acc, x), c)
    return acc


def x_power_minus_one(ring, n):
    out = [ring.zero] * (n + 1)
    out[0] = ring.neg(ring.one)
    out[n] = ring.one
    return out


# -- residue-field arithmetic on Teichmüller representatives ------------------


def residue_add(ring, a, b):
    return ring.teichmuller_digit(ring.add(a, b))


def residue_sub(ring, a, b):
    return ring.teichmuller_digit(ring.sub(a, b))


def residue_mul(ring, a, b):
    return ring.mul(a, b)  # Γ is closed under multiplication


def residue_inv(ring, a):
    if a.is_zero():
        raise DomainError("residue inverse of 0")
    return ring.pow(a, ring.q - 2) if ring.q > 2 else a


def residue_poly_add(ring, f, g):
    return add(ring, f, g, lambda a, b: residue_add(ring, a, b))


def residue_poly_mul(ring, f, g):
    return mul(ring, f, g, lambda a, b: residue_add(ring, a, b))


def residue_divmod(ring, f, g):
    """Division in Γ[x] by any nonzero divisor (leading coefficient inverted)."""
    g = trim(g)
    if not g:
        raise DomainError("division by zero polynomial")
    lead_inv = residue_inv(ring, g[-1])
    rem = list(trim(f))
    dg = len(g) - 1
    quo = [ring.zero] * max(0, len(rem) - dg)
    while len(rem) - 1 >= dg and rem:
        factor = residue_mul(ring, rem[-1], lead_inv)
        pos = len(rem) - 1 - dg
        quo[pos] = residue_add(ring, quo[pos], factor)
        for i in range(dg + 1):
            rem[pos + i] = residue_sub(
                ring, rem[pos + i], residue_mul(ring, factor, g[i])
            )
        rem = trim(rem)
    return trim(quo), trim(rem)


def residue_poly_powmod(ring, f, e, mod):
    result = [ring.one]
    base = residue_divmod(ring, f, mod)[1]
    while e:
        if e & 1:
            result = residue_divmod(ring, residue_poly_mul(ring, result, base), mod)[1]
        base = residue_divmod(ring, residue_poly_mul(ring, base, base), mod)[1]
        e >>= 1
    return result
