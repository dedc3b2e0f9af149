"""Exact matrix algebra over chain rings and PIRs.

Smith and Hermite (reduced row echelon) decompositions with the
minimal-valuation pivot rule, kernels, free envelopes, parity-check
matrices, and the standard-form decomposition of Lemma-5.4 type.  Product
rings are handled componentwise through the CRT and recombined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

from .errors import (
    DomainError,
    InternalInvariant,
    NotChainRing,
    NotFree,
    NotInvertible,
    ParseError,
    RankTooLarge,
)
from .rings import ChainRing, ProductRing, Ring, RingElement, ring_from_json
from . import _unipoly as up


class RingMatrix:
    """Dense immutable matrix over a Ring."""

    __slots__ = ("ring", "m", "n", "rows")

    def __init__(self, ring: Ring, rows: Sequence[Sequence[RingElement]]):
        self.ring = ring
        self.rows = tuple(tuple(ring.coerce(x) for x in row) for row in rows)
        self.m = len(self.rows)
        self.n = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.n for r in self.rows):
            raise DomainError("ragged matrix")

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        return cls(
            ring,
            [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def zeros(cls, ring: Ring, m: int, n: int) -> "RingMatrix":
        return cls(ring, [[ring.zero] * n for _ in range(m)])

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def __add__(self, other):
        self._check(other)
        R = self.ring
        return RingMatrix(
            R,
            [
                [R.add(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        R = self.ring
        return RingMatrix(
            R,
            [
                [R.sub(a, b) for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.rows, other.rows)
            ],
        )

    def __neg__(self):
        R = self.ring
        return RingMatrix(R, [[R.neg(a) for a in row] for row in self.rows])

    def scale(self, c) -> "RingMatrix":
        R = self.ring
        c = R.coerce(c)
        return RingMatrix(R, [[R.mul(c, a) for a in row] for row in self.rows])

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if other.ring != self.ring or self.n != other.m:
            raise DomainError("matmul shape/ring mismatch")
        R = self.ring
        out = []
        for i in range(self.m):
            row = []
            for j in range(other.n):
                acc = R.zero
                for t in range(self.n):
                    acc = R.add(acc, R.mul(self.rows[i][t], other.rows[t][j]))
                row.append(acc)
            out.append(row)
        return RingMatrix(R, out)

    def transpose(self) -> "RingMatrix":
        return RingMatrix(self.ring, list(zip(*self.rows)) if self.rows else [])

    def submatrix(self, rows, cols) -> "RingMatrix":
        return RingMatrix(
            self.ring, [[self.rows[i][j] for j in cols] for i in rows]
        )

    def vstack(self, other: "RingMatrix") -> "RingMatrix":
        if other.n != self.n:
            raise DomainError("vstack width mismatch")
        return RingMatrix(self.ring, self.rows + other.rows)

    def mul_vector(self, v: Sequence[RingElement]) -> tuple[RingElement, ...]:
        """A @ v for a length-n column vector."""
        R = self.ring
        v = [R.coerce(x) for x in v]
        if len(v) != self.n:
            raise DomainError("vector length mismatch")
        return tuple(
            R.sum(R.mul(self.rows[i][t], v[t]) for t in range(self.n))
            for i in range(self.m)
        )

    def vector_mul(self, v: Sequence[RingElement]) -> tuple[RingElement, ...]:
        """v @ A for a length-m row vector."""
        R = self.ring
        v = [R.coerce(x) for x in v]
        if len(v) != self.m:
            raise DomainError("vector length mismatch")
        return tuple(
            R.sum(R.mul(v[t], self.rows[t][j]) for t in range(self.m))
            for j in range(self.n)
        )

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def _check(self, other):
        if not isinstance(other, RingMatrix) or other.ring != self.ring:
            raise DomainError("matrix ring mismatch")
        if (self.m, self.n) != (other.m, other.n):
            raise DomainError("matrix shape mismatch")

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.format_element(x) for x in row) for row in self.rows
        )
        return f"[{body}]"

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "rows": self.m,
            "cols": self.n,
            "data": [[self.ring.element_to_json(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json(cls, obj, ring: Ring | None = None) -> "RingMatrix":
        if ring is None:
            ring = ring_from_json(obj["ring"])
        data = obj["data"]
        mat = cls(ring, [[ring.element_from_json(x) for x in row] for row in data])
        if "rows" in obj and (mat.m, mat.n) != (obj["rows"], obj["cols"]):
            raise ParseError("matrix shape does not match declared rows/cols")
        return mat


@dataclass(frozen=True)
class SmithDecomposition:
    u: RingMatrix
    d: RingMatrix
    v: RingMatrix
    u_inv: RingMatrix
    v_inv: RingMatrix

    def diagonal(self) -> tuple[RingElement, ...]:
        k = min(self.d.m, self.d.n)
        return tuple(self.d.rows[i][i] for i in range(k))


@dataclass(frozen=True)
class HermiteDecomposition:
    """A = P @ T.  P and its inverse are built on first use from the row
    operations that produced T, so a caller that reads only T never pays
    for them."""

    t: RingMatrix
    transforms: Callable[[], tuple[RingMatrix, RingMatrix]] = field(repr=False, compare=False)

    @cached_property
    def _p_pair(self) -> tuple[RingMatrix, RingMatrix]:
        return self.transforms()

    @property
    def p(self) -> RingMatrix:
        return self._p_pair[0]

    @property
    def p_inv(self) -> RingMatrix:
        return self._p_pair[1]


class _RowEliminator:
    """Mutable row-elimination state.  The row operations are logged rather
    than applied to a transform; row_transforms replays them when asked."""

    def __init__(self, A: RingMatrix):
        self.R: ChainRing = A.ring
        self.d = [list(row) for row in A.rows]
        self.m = A.m
        self.n = A.n
        # (i, j, None) swaps rows i and j, (i, j, c) adds c * row j to row i,
        # (i, None, u) scales row i by the unit u
        self.ops: list[tuple] = []

    def row_swap(self, i, j):
        if i == j:
            return
        self.d[i], self.d[j] = self.d[j], self.d[i]
        self.ops.append((i, j, None))

    def row_addmul(self, i, j, c):
        """row i += c * row j."""
        R = self.R
        if c.is_zero():
            return
        self.d[i] = [R.add(a, R.mul(c, b)) for a, b in zip(self.d[i], self.d[j])]
        self.ops.append((i, j, c))

    def row_scale(self, i, u):
        R = self.R
        self.d[i] = [R.mul(u, a) for a in self.d[i]]
        self.ops.append((i, None, u))

    def row_transforms(self) -> tuple[RingMatrix, RingMatrix]:
        """(P, P^-1) with A = P @ d: the logged operations applied to the
        identity as row ops (P^-1) and as inverse column ops (P)."""
        R = self.R
        left = [[R.one if i == j else R.zero for j in range(self.m)] for i in range(self.m)]
        left_out = [row[:] for row in left]
        for i, j, c in self.ops:
            if c is None:
                left[i], left[j] = left[j], left[i]
                for row in left_out:
                    row[i], row[j] = row[j], row[i]
            elif j is None:
                c_inv = R.invert(c)
                left[i] = [R.mul(c, a) for a in left[i]]
                for row in left_out:
                    row[i] = R.mul(row[i], c_inv)
            else:
                left[i] = [R.add(a, R.mul(c, b)) for a, b in zip(left[i], left[j])]
                for row in left_out:
                    row[j] = R.sub(row[j], R.mul(c, row[i]))
        return RingMatrix(R, left_out), RingMatrix(R, left)


class _Eliminator(_RowEliminator):
    """Row and column elimination state tracking both transforms."""

    def __init__(self, A: RingMatrix):
        super().__init__(A)
        self.right = [
            [self.R.one if i == j else self.R.zero for j in range(A.n)]
            for i in range(A.n)
        ]  # d = A-so-far @ right^{-1}... maintained as: A = left_out @ d @ right_out
        self.right_out = [row[:] for row in self.right]

    # column ops (applied to d and right_out tracking; inverse row op on right)

    def col_swap(self, i, j):
        if i == j:
            return
        for row in self.d:
            row[i], row[j] = row[j], row[i]
        self.right[i], self.right[j] = self.right[j], self.right[i]
        for row in self.right_out:
            row[i], row[j] = row[j], row[i]

    def col_addmul(self, j, i, c):
        """col j += c * col i."""
        R = self.R
        if c.is_zero():
            return
        for row in self.d:
            row[j] = R.add(row[j], R.mul(c, row[i]))
        for row in self.right_out:
            row[j] = R.add(row[j], R.mul(c, row[i]))
        self.right[i] = [R.sub(a, R.mul(c, b)) for a, b in zip(self.right[i], self.right[j])]

    def matrices(self):
        left_out, left = self.row_transforms()
        return (
            left_out,
            RingMatrix(self.R, self.d),
            RingMatrix(self.R, self.right),
            left,
            RingMatrix(self.R, self.right_out),
        )


def _min_valuation_entry(R, d, rows, cols):
    best = None
    for i in rows:
        for j in cols:
            x = d[i][j]
            if x.is_zero():
                continue
            v = R.valuation(x)
            if v == 0:
                return ((0, i, j), x)  # scan order makes this the (v,i,j)-minimum
            if best is None or (v, i, j) < best[0]:
                best = ((v, i, j), x)
    return best


def smith_normal_form(A: RingMatrix) -> SmithDecomposition:
    """A = U @ D @ V with D diagonal pi^{e_1} | pi^{e_2} | ...; pivots chosen
    at minimal valuation; componentwise over PIRs."""
    if isinstance(A.ring, ProductRing):
        return _recombine_smith(A)
    R = A.ring
    if not isinstance(R, ChainRing):
        raise NotChainRing("Smith form requires a chain ring or product of them")
    st = _Eliminator(A)
    k = min(A.m, A.n)
    for t in range(k):
        found = _min_valuation_entry(R, st.d, range(t, A.m), range(t, A.n))
        if found is None:
            break
        (v, i, j), _ = found
        st.row_swap(t, i)
        st.col_swap(t, j)
        st.row_scale(t, R.invert(R.unit_part(st.d[t][t])))
        # pivot is now pi^v; everything in the submatrix has valuation >= v
        for i2 in range(t + 1, A.m):
            x = st.d[i2][t]
            if not x.is_zero():
                st.row_addmul(i2, t, R.neg(R.exact_div_pi_power(x, v)))
        for j2 in range(t + 1, A.n):
            x = st.d[t][j2]
            if not x.is_zero():
                st.col_addmul(j2, t, R.neg(R.exact_div_pi_power(x, v)))
    u, d, v_mat, u_inv, v_inv = st.matrices()
    return SmithDecomposition(u, d, v_mat, u_inv, v_inv)


def _recombine_smith(A: RingMatrix) -> SmithDecomposition:
    ring: ProductRing = A.ring
    comps = split_matrix(A)
    decs = [smith_normal_form(c) for c in comps]
    return SmithDecomposition(
        join_matrices(ring, [dc.u for dc in decs]),
        join_matrices(ring, [dc.d for dc in decs]),
        join_matrices(ring, [dc.v for dc in decs]),
        join_matrices(ring, [dc.u_inv for dc in decs]),
        join_matrices(ring, [dc.v_inv for dc in decs]),
    )


def split_matrix(A: RingMatrix) -> list[RingMatrix]:
    ring: ProductRing = A.ring
    out = []
    for idx, comp in enumerate(ring.components):
        out.append(
            RingMatrix(comp, [[x.data[idx] for x in row] for row in A.rows])
        )
    return out


def join_matrices(ring: ProductRing, mats: Sequence[RingMatrix]) -> RingMatrix:
    m, n = mats[0].m, mats[0].n
    rows = []
    for i in range(m):
        row = []
        for j in range(n):
            row.append(RingElement(ring, tuple(M.rows[i][j] for M in mats)))
        rows.append(row)
    return RingMatrix(ring, rows)


def rank(A: RingMatrix) -> int:
    """Minimal number of generators of row(A); max over CRT components."""
    if isinstance(A.ring, ProductRing):
        return max(rank(c) for c in split_matrix(A))
    return _chain_rank(A)


def rank_profile(A: RingMatrix) -> tuple[int, ...]:
    """Per-component ranks over a PIR (a single entry for a chain ring)."""
    if isinstance(A.ring, ProductRing):
        return tuple(rank(c) for c in split_matrix(A))
    return (_chain_rank(A),)


def _chain_rank(A: RingMatrix) -> int:
    dec = smith_normal_form(A)
    return sum(1 for x in dec.diagonal() if not x.is_zero())


def hermite_form(A: RingMatrix) -> HermiteDecomposition:
    """A = P @ T with T the reduced row echelon form under the
    minimal-valuation pivot rule: pivots pi^e, zeros below, entries above
    reduced to canonical representatives mod pi^e."""
    if isinstance(A.ring, ProductRing):
        comps = [hermite_form(c) for c in split_matrix(A)]
        ring = A.ring

        def transforms():
            return (
                join_matrices(ring, [c.p for c in comps]),
                join_matrices(ring, [c.p_inv for c in comps]),
            )

        return HermiteDecomposition(join_matrices(ring, [c.t for c in comps]), transforms)
    R = A.ring
    if not isinstance(R, ChainRing):
        raise NotChainRing("Hermite form requires a chain ring or product of them")
    st = _RowEliminator(A)
    t = 0
    for c in range(A.n):
        found = _min_valuation_entry(R, st.d, range(t, A.m), [c])
        if found is None:
            continue
        (v, i, _), _ = found
        st.row_swap(t, i)
        st.row_scale(t, R.invert(R.unit_part(st.d[t][c])))
        for i2 in range(t + 1, A.m):
            x = st.d[i2][c]
            if not x.is_zero():
                st.row_addmul(i2, t, R.neg(R.exact_div_pi_power(x, v)))
        for i2 in range(t):
            x = st.d[i2][c]
            rem = R.reduce_mod_pi_power(x, v)
            q = R.exact_div_pi_power(R.sub(x, rem), v)
            if not q.is_zero():
                st.row_addmul(i2, t, R.neg(q))
        t += 1
        if t == A.m:
            break
    return HermiteDecomposition(RingMatrix(R, st.d), st.row_transforms)


def reduced_row_echelon(A: RingMatrix) -> RingMatrix:
    """The echelon matrix with zero rows trimmed."""
    T = hermite_form(A).t
    rows = [row for row in T.rows if any(not x.is_zero() for x in row)]
    if not rows:
        return RingMatrix(A.ring, [])
    return RingMatrix(A.ring, rows)


def kernel(A: RingMatrix) -> list[tuple[RingElement, ...]]:
    """Generators of {u : A @ u = 0}."""
    if isinstance(A.ring, ProductRing):
        ring = A.ring
        gens = []
        comps = split_matrix(A)
        for idx, comp_mat in enumerate(comps):
            for g in kernel(comp_mat):
                vec = []
                for j in range(A.n):
                    parts = [c.zero for c in ring.components]
                    parts[idx] = g[j]
                    vec.append(RingElement(ring, tuple(parts)))
                gens.append(tuple(vec))
        return gens
    R = A.ring
    dec = smith_normal_form(A)
    nu = R.nu
    gens = []
    for i in range(A.n):
        if i < min(A.m, A.n):
            e = R.valuation(dec.d.rows[i][i])
            if e == 0:
                continue
            w = R.pow(R.pi_element, nu - e)
        else:
            w = R.one
        vec = [R.zero] * A.n
        vec[i] = w
        gens.append(dec.v_inv.mul_vector(vec))
    return gens


def row_membership(B: RingMatrix, y: Sequence[RingElement]) -> bool:
    """Is y in the row span of B?"""
    R = B.ring
    if isinstance(R, ProductRing):
        comps = split_matrix(B)
        for idx, comp_mat in enumerate(comps):
            if not row_membership(comp_mat, [x.data[idx] for x in y]):
                return False
        return True
    dec = smith_normal_form(B)
    w = dec.v_inv.vector_mul(y)  # y @ v_inv
    for i in range(B.n):
        if i < min(B.m, B.n):
            e = R.valuation(dec.d.rows[i][i])
            if R.valuation(w[i]) < e:
                return False
        else:
            if not w[i].is_zero():
                return False
    return True


def is_free_rows(B: RingMatrix) -> bool:
    """Rows linearly independent (row module free of rank m)."""
    dec = smith_normal_form(B)
    diag = dec.diagonal()
    return len(diag) == B.m and all(x.is_unit() for x in diag)


def free_envelope(A: RingMatrix, r: int) -> RingMatrix:
    """Basis of a canonical rank-r free module containing row(A).

    Construction: the first r rows of V from A = U D V, canonicalized by
    reduced row echelon.  Among the generally-many valid envelopes this is
    the deterministic choice.
    """
    R = A.ring
    if isinstance(R, ProductRing):
        comps = [free_envelope(c, r) for c in split_matrix(A)]
        return join_matrices(R, comps)
    rk = _chain_rank(A)
    if not (rk <= r <= A.n):
        raise RankTooLarge(f"need rank(A) = {rk} <= r <= {A.n}, got r = {r}")
    dec = smith_normal_form(A)
    B = RingMatrix(R, dec.v.rows[:r])
    B = reduced_row_echelon(B)
    if not (B.m == r and all(row_membership(B, row) for row in A.rows)):
        raise InternalInvariant("free envelope does not contain row(A)")
    return B


def parity_check(B: RingMatrix) -> RingMatrix:
    """Z with independent columns and y in row(B) iff y @ Z = 0."""
    if not is_free_rows(B):
        raise NotFree("rows of B are linearly dependent")
    dec = smith_normal_form(B)
    cols = list(range(B.m, B.n))
    return dec.v_inv.submatrix(range(B.n), cols)


def standard_form(Z: RingMatrix):
    """Z = P @ vstack(I, Z') @ Q over a chain ring (P permutation, Q invertible)."""
    R = Z.ring
    if isinstance(R, ProductRing):
        raise NotChainRing(
            "standard form only exists over chain rings (Z_6-type counterexample)"
        )
    if not isinstance(R, ChainRing):
        raise NotChainRing("standard form requires a chain ring")
    n, w = Z.m, Z.n
    if not is_free_cols(Z):
        raise NotFree("columns of Z are linearly dependent")
    # pick w rows whose submatrix is invertible: Gaussian pivoting mod pi
    digits = [[R.teichmuller_digit(x) for x in row] for row in Z.rows]
    selected: list[int] = []
    work = [row[:] for row in digits]
    for c in range(w):
        pivot_row = None
        for i in range(n):
            if i in selected:
                continue
            if not work[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            raise NotFree("columns became dependent modulo pi")
        selected.append(pivot_row)
        inv = up.residue_inv(R, work[pivot_row][c])
        for i in range(n):
            if i == pivot_row or work[i][c].is_zero():
                continue
            factor = R.mul(work[i][c], inv)
            work[i] = [
                up.residue_sub(R, a, R.mul(factor, b))
                for a, b in zip(work[i], work[pivot_row])
            ]
    selected_sorted = sorted(selected)
    rest = [i for i in range(n) if i not in selected]
    Q = Z.submatrix(selected_sorted, range(w))
    Q_inv = inverse(Q)
    Zp = Z.submatrix(rest, range(w)) @ Q_inv
    perm_rows = []
    order = selected_sorted + rest
    for i in range(n):
        row = [R.zero] * n
        row[order.index(i)] = R.one
        perm_rows.append(row)
    P = RingMatrix(R, perm_rows)
    return P, Zp, Q


def is_free_cols(Z: RingMatrix) -> bool:
    return is_free_rows(Z.transpose())


def inverse(A: RingMatrix) -> RingMatrix:
    if A.m != A.n:
        raise NotInvertible("only square matrices")
    dec = hermite_form(A)
    if dec.t != RingMatrix.identity(A.ring, A.n):
        raise NotInvertible("matrix is not invertible over the ring")
    return dec.p_inv


def determinant(A: RingMatrix) -> RingElement:
    """Laplace expansion (exact over any commutative ring; small matrices)."""
    if A.m != A.n:
        raise DomainError("determinant of a non-square matrix")
    R = A.ring
    n = A.n
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def minor(row: int, cols: tuple[int, ...]) -> RingElement:
        if not cols:
            return R.one
        acc = R.zero
        sign = 1
        for idx, c in enumerate(cols):
            entry = A.rows[row][c]
            if not entry.is_zero():
                sub = minor(row + 1, cols[:idx] + cols[idx + 1 :])
                term = R.mul(entry, sub)
                acc = R.add(acc, term if sign > 0 else R.neg(term))
            sign = -sign
        return acc

    return minor(0, tuple(range(n)))


def rank_distance(A: RingMatrix, B: RingMatrix) -> int:
    """d(A, B) = rank(A - B)."""
    return rank(A - B)
