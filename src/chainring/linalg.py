"""Exact matrix algebra over chain rings and PIRs.

Smith and Hermite (reduced row echelon) decompositions with the
minimal-valuation pivot rule, kernels, free envelopes, parity-check
matrices, and the standard-form decomposition of Lemma-5.4 type.  Product
rings split into CRT components and join (split_matrix, join_matrices).

A RingMatrix stores sparse payload rows, the form the elimination kernels
(payload_echelon, payload_smith) work on, and boxes entries only at its
public edge.  The kernels work in place: they may update the row dicts
they are given as well as the list, so a caller passes rows it owns.  The
decompositions run them on a copy of a matrix's rows, and their results
are matrices on the rows they leave.  Each ring kind runs its own kernels
(ChainRing's on payload operations, Zpk's on native ints; see
_elimination), with the same pivots and operation logs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
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
from .rings import (
    ChainRing,
    ProductRing,
    Ring,
    RingElement,
    _int_field,
    crt_apply,
    crt_joined,
    crt_parts,
    ring_from_json,
)


class RingMatrix:
    """Immutable m x n matrix over a Ring.

    _rows holds one sparse payload row per row, a dict from the column of
    each nonzero entry to its payload: the form payload_echelon and
    payload_smith work on, in place, so a decomposition runs them on a
    copy.  rows is their boxed view, tuples of RingElements, built on
    first read (or kept from the constructor, which is given it).
    """

    __slots__ = ("ring", "m", "n", "_rows", "_boxed")

    def __init__(self, ring: Ring, rows: Sequence[Sequence[RingElement]]):
        # an element of this very ring object needs no coercion
        boxed = tuple(
            tuple(x if isinstance(x, RingElement) and x.ring is ring else ring.coerce(x) for x in row) for row in rows
        )
        n = len(boxed[0]) if boxed else 0
        if any(len(r) != n for r in boxed):
            raise DomainError("ragged matrix")
        self.ring, self.m, self.n, self._boxed = ring, len(boxed), n, boxed
        self._rows = tuple(_sparse(row) for row in boxed)

    @classmethod
    def _from_payloads(cls, ring: Ring, rows: Sequence[dict], n: int) -> "RingMatrix":
        """The matrix of sparse payload rows of width n, which it takes over."""
        A = cls.__new__(cls)
        A.ring, A._rows, A.m, A.n, A._boxed = ring, tuple(rows), len(rows), n, None
        return A

    @property
    def rows(self) -> tuple[tuple[RingElement, ...], ...]:
        boxed = self._boxed
        if boxed is None:
            R, n = self.ring, self.n
            zero = R.zero
            boxed = self._boxed = tuple(
                tuple(RingElement(R, row[j]) if j in row else zero for j in range(n)) for row in self._rows
            )
        return boxed

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "RingMatrix":
        return cls._from_payloads(ring, [{i: ring.one.data} for i in range(n)], n)

    @classmethod
    def zeros(cls, ring: Ring, m: int, n: int) -> "RingMatrix":
        return cls._from_payloads(ring, [{} for _ in range(m)], n)

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.ring == other.ring and (self.m, self.n, self._rows) == (other.m, other.n, other._rows)

    def __hash__(self):
        return hash((self.ring, self.m, self.n, tuple(frozenset(row.items()) for row in self._rows)))

    def __add__(self, other):
        return self._addmul(self.ring.one.data, other)

    def __sub__(self, other):
        return self._addmul(self.ring._payload_neg(self.ring.one.data), other)

    def _addmul(self, c, other: "RingMatrix") -> "RingMatrix":
        """self + c * other for a payload c."""
        self._check(other)
        addmul = self.ring._payload_addmul
        return RingMatrix._from_payloads(self.ring, [addmul(a, c, b) for a, b in zip(self._rows, other._rows)], self.n)

    def __neg__(self):
        neg = self.ring._payload_neg
        return RingMatrix._from_payloads(self.ring, [{j: neg(x) for j, x in row.items()} for row in self._rows], self.n)

    def scale(self, c) -> "RingMatrix":
        R = self.ring
        c = R.coerce(c).data
        return RingMatrix._from_payloads(R, [R._payload_scale(c, row) for row in self._rows], self.n)

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if other.ring != self.ring or self.n != other.m:
            raise DomainError("matmul shape/ring mismatch")
        R = self.ring
        return RingMatrix._from_payloads(R, [_vector_times(R, row, other._rows) for row in self._rows], other.n)

    def transpose(self) -> "RingMatrix":
        return RingMatrix._from_payloads(self.ring, _transposed(self._rows, self.n), self.m)

    def submatrix(self, rows, cols) -> "RingMatrix":
        cols = [range(self.n)[j] for j in cols]
        picked = [self._rows[i] for i in rows]
        return RingMatrix._from_payloads(
            self.ring, [{k: row[j] for k, j in enumerate(cols) if j in row} for row in picked], len(cols)
        )

    def vstack(self, other: "RingMatrix") -> "RingMatrix":
        if other.n != self.n:
            raise DomainError("vstack width mismatch")
        return RingMatrix._from_payloads(self.ring, self._rows + other._rows, self.n)

    def mul_vector(self, v: Sequence[RingElement]) -> tuple[RingElement, ...]:
        """A @ v for a length-n column vector."""
        return self.transpose().vector_mul(v)

    def vector_mul(self, v: Sequence[RingElement]) -> tuple[RingElement, ...]:
        """v @ A for a length-m row vector."""
        R = self.ring
        v = [R.coerce(x) for x in v]
        if len(v) != self.m:
            raise DomainError("vector length mismatch")
        w = _vector_times(R, _sparse(v), self._rows)
        return tuple(RingElement(R, w[j]) if j in w else R.zero for j in range(self.n))

    def is_zero(self) -> bool:
        return not any(self._rows)

    def _check(self, other):
        if not isinstance(other, RingMatrix) or other.ring != self.ring:
            raise DomainError("matrix ring mismatch")
        if (self.m, self.n) != (other.m, other.n):
            raise DomainError("matrix shape mismatch")

    def __repr__(self):
        return "[" + "; ".join(" ".join(map(self.ring.format_element, row)) for row in self.rows) + "]"

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "rows": self.m,
            "cols": self.n,
            "data": [[self.ring.element_to_json(x) for x in row] for row in self.rows],
        }

    @classmethod
    def from_json_rows(cls, ring: Ring, rows, key: str) -> "RingMatrix":
        """The matrix of JSON field `key`: a list of equally long lists of
        ring elements, or it is malformed input."""
        if not isinstance(rows, list) or any(
            not isinstance(row, list) or len(row) != len(rows[0]) for row in rows
        ):
            raise ParseError(f"field '{key}' is a ragged matrix, got {rows!r}")
        return cls(ring, [[ring.element_from_json(x) for x in row] for row in rows])

    @classmethod
    def from_json(cls, obj, ring: Ring | None = None) -> "RingMatrix":
        if ring is None:
            ring = ring_from_json(obj["ring"])
        mat = cls.from_json_rows(ring, obj["data"], "data")
        if not mat.m and "cols" in obj:
            # no row to read the width from
            n = _int_field(obj, "cols")
            if n < 0:
                raise ParseError(f"field 'cols' must not be negative, got {n}")
            mat = cls.zeros(ring, 0, n)
        if "rows" in obj and (mat.m, mat.n) != (obj["rows"], obj["cols"]):
            raise ParseError("matrix shape does not match declared rows/cols")
        return mat


class _LazyTransforms:
    """A decomposition whose transforms are built on first read from the
    operations that produced its reduced matrix, so a caller that reads
    only that matrix never pays for them."""

    transforms: Callable[[], tuple[RingMatrix, ...]]

    @cached_property
    def _built(self) -> tuple[RingMatrix, ...]:
        return self.transforms()


def _transform(i: int) -> property:
    return property(lambda self: self._built[i])


@dataclass(frozen=True)
class SmithDecomposition(_LazyTransforms):
    """A = U @ D @ V with D the m x n matrix over ring whose diagonal is
    diag; D is built on first read of d, and transforms() returns
    (U, V, U^-1, V^-1)."""

    ring: Ring
    shape: tuple[int, int]
    diag: tuple[RingElement, ...]
    transforms: Callable[[], tuple[RingMatrix, ...]] = field(repr=False, compare=False)
    u = _transform(0)
    v = _transform(1)
    u_inv = _transform(2)
    v_inv = _transform(3)

    @cached_property
    def d(self) -> RingMatrix:
        m, n = self.shape
        rows = [{} for _ in range(m)]
        for i, x in enumerate(self.diag):
            if not x.is_zero():
                rows[i][i] = x.data
        return RingMatrix._from_payloads(self.ring, rows, n)

    def diagonal(self) -> tuple[RingElement, ...]:
        return self.diag


@dataclass(frozen=True)
class HermiteDecomposition(_LazyTransforms):
    """A = P @ T; transforms() returns (P, P^-1)."""

    t: RingMatrix
    transforms: Callable[[], tuple[RingMatrix, ...]] = field(repr=False, compare=False)
    p = _transform(0)
    p_inv = _transform(1)


def _sparse(v: Sequence[RingElement]) -> dict:
    """The sparse payload row of the elements v."""
    return {j: x.data for j, x in enumerate(v) if not x.is_zero()}


def _vector_times(R: Ring, v: dict, rows: Sequence[dict]) -> dict:
    """The sparse payload row v @ M for the sparse payload rows of M."""
    addmul = R._payload_addmul
    out: dict = {}
    for t, c in v.items():
        out = addmul(out, c, rows[t])
    return out


def _transposed(rows: list[dict], n: int) -> list[dict]:
    """The n sparse rows of the transpose of an n-column matrix."""
    out: list[dict] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _row_transforms(R: ChainRing, ops: list[tuple], m: int) -> tuple[list[dict], list[dict]]:
    """(P^T, P^-1) as sparse payload rows, with A = P @ E for E the matrix
    the logged row operations made of A: the operations applied to the
    identity as row operations give P^-1, and their inverses applied as
    column operations give P, kept transposed so that they too act on rows.

    ops holds (i, j, None) for swapping rows i and j, (i, j, c) for adding
    c * row j to row i, and (i, None, u) for scaling row i by the unit u.
    """
    one = R.one.data
    left = [{i: one} for i in range(m)]
    left_out_t = [{i: one} for i in range(m)]
    for i, j, c in ops:
        if c is None:
            left[i], left[j] = left[j], left[i]
            left_out_t[i], left_out_t[j] = left_out_t[j], left_out_t[i]
        elif j is None:
            left[i] = R._payload_scale(c, left[i])
            left_out_t[i] = R._payload_scale(R._payload_invert(c), left_out_t[i])
        else:
            left[i] = R._payload_addmul(left[i], c, left[j])
            left_out_t[j] = R._payload_addmul(left_out_t[j], R._payload_neg(c), left_out_t[i])
    return left_out_t, left


def smith_normal_form(A: RingMatrix) -> SmithDecomposition:
    """A = U @ D @ V with D diagonal pi^{e_1} | pi^{e_2} | ...; pivots chosen
    at minimal valuation; componentwise over PIRs."""
    return crt_apply(A.ring, split_matrix(A), smith_normal_form, _join_smith, _chain_smith)


def _chain_smith(A: RingMatrix) -> SmithDecomposition:
    R = A.ring
    d = [dict(row) for row in A._rows]
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []
    payload_smith(R, d, A.n, row_ops, col_ops)

    def transforms():
        u_t, u_inv = _row_transforms(R, row_ops, A.m)
        v_mat, v_inv_t = _row_transforms(R, col_ops, A.n)
        return (
            RingMatrix._from_payloads(R, _transposed(u_t, A.m), A.m),
            RingMatrix._from_payloads(R, v_mat, A.n),
            RingMatrix._from_payloads(R, u_inv, A.m),
            RingMatrix._from_payloads(R, _transposed(v_inv_t, A.n), A.n),
        )

    diag = tuple(RingElement(R, d[i][i]) if i in d[i] else R.zero for i in range(min(A.m, A.n)))
    return SmithDecomposition(R, (A.m, A.n), diag, transforms)


def payload_smith(
    R: ChainRing, d: list[dict], n: int, row_ops: list | None = None, col_ops: list | None = None
) -> int:
    """Diagonalise the sparse payload rows d of an n-column matrix over the
    chain ring R in place, as smith_normal_form describes it, and return
    the number of nonzero diagonal entries: the rank.  Given lists, append
    the row operations to row_ops and the column operations to col_ops,
    each logged as the row operation it is on d's transpose, so that
    replaying col_ops gives V and the transpose of V^-1.

    The kernel may update the row dicts of d as well as the list, so a
    caller passes rows it owns."""
    if not isinstance(R, ChainRing):
        raise NotChainRing("Smith form requires a chain ring or product of them")
    return R._payload_smith(d, n, row_ops, col_ops)


def _joined_transforms(ring: ProductRing, decs: list) -> Callable[[], tuple[RingMatrix, ...]]:
    """The transforms of the decomposition over ring whose CRT parts are
    decs, joined from theirs on first read."""
    return lambda: tuple(join_matrices(ring, mats) for mats in zip(*(dc._built for dc in decs)))


def _join_smith(ring: ProductRing, decs) -> SmithDecomposition:
    decs = list(decs)
    diag = tuple(RingElement(ring, parts) for parts in zip(*(dc.diag for dc in decs)))
    return SmithDecomposition(ring, decs[0].shape, diag, _joined_transforms(ring, decs))


def _join_hermite(ring: ProductRing, decs) -> HermiteDecomposition:
    decs = list(decs)
    return HermiteDecomposition(join_matrices(ring, [dc.t for dc in decs]), _joined_transforms(ring, decs))


def split_matrix(A: RingMatrix) -> list[RingMatrix]:
    """A's image in each CRT component of its ring; [A] over a chain ring."""

    def part(idx, C):
        rows = [{j: x[idx].data for j, x in row.items() if not x[idx].is_zero()} for row in A._rows]
        return RingMatrix._from_payloads(C, rows, A.n)

    return crt_parts(A.ring, A, part)


def join_matrices(ring: Ring, mats: Sequence[RingMatrix]) -> RingMatrix:
    """The matrix over ring whose CRT parts are mats; over a chain ring, mats[0]."""

    def join(mats):
        zeros = ring._zero_data  # the components' zero elements
        rows = []
        for parts in zip(*(M._rows for M in mats)):
            row = {}
            for j in sorted(set().union(*parts)):
                row[j] = tuple(RingElement(C, p[j]) if j in p else z for C, p, z in zip(ring.components, parts, zeros))
            rows.append(row)
        return RingMatrix._from_payloads(ring, rows, mats[0].n)

    return crt_joined(ring, mats, join)


def rank(A: RingMatrix) -> int:
    """Minimal number of generators of row(A); max over CRT components."""
    return max(rank_profile(A))


def rank_profile(A: RingMatrix) -> tuple[int, ...]:
    """Per-component ranks over a PIR (a single entry for a chain ring)."""
    return tuple(_chain_rank(c) for c in split_matrix(A))


def _chain_rank(A: RingMatrix) -> int:
    dec = smith_normal_form(A)
    return sum(1 for x in dec.diagonal() if not x.is_zero())


def payload_echelon(R: Ring, d: list[dict], ops: list | None = None, last: range | None = None) -> None:
    """Bring the sparse payload rows d of a matrix over the chain ring R to
    reduced row echelon form in place, as hermite_form describes it.  Given
    a list ops, append to it the row operations that did so, logged as
    _row_transforms reads them.

    The kernel may update the row dicts of d as well as the list, so a
    caller passes rows it owns.

    Only nonzero entries are touched: the pivot search reads the rows that
    hold the column, a pivot clears only the rows with a nonzero entry in
    its column, and a row update walks the pivot row's entries.

    Given last, a range of columns, the columns in it are pivoted after
    every other column, as if moved to the end, and a row pivoted in a
    column outside it keeps its entries above later pivots unreduced.  No
    other row changes: a row above the pivot is never read again, so a
    caller that reads only the rows pivoted in last (the x-only rows of a
    Macaulay matrix) skips that work, and a caller that wants last's
    columns moved to the end needs no relabelled copy of the rows."""
    if not isinstance(R, ChainRing):
        raise NotChainRing("Hermite form requires a chain ring or product of them")
    R._payload_echelon(d, ops, last)


def hermite_form(A: RingMatrix) -> HermiteDecomposition:
    """A = P @ T with T the reduced row echelon form under the
    minimal-valuation pivot rule: pivots pi^e, zeros below, entries above
    reduced to canonical representatives mod pi^e."""
    return crt_apply(A.ring, split_matrix(A), hermite_form, _join_hermite, _chain_hermite)


def _chain_hermite(A: RingMatrix) -> HermiteDecomposition:
    R = A.ring
    d = [dict(row) for row in A._rows]
    ops: list[tuple] = []
    payload_echelon(R, d, ops)

    def transforms():
        p_t, p_inv = _row_transforms(R, ops, A.m)
        return RingMatrix._from_payloads(R, _transposed(p_t, A.m), A.m), RingMatrix._from_payloads(R, p_inv, A.m)

    return HermiteDecomposition(RingMatrix._from_payloads(R, d, A.n), transforms)


def reduced_row_echelon(A: RingMatrix) -> RingMatrix:
    """The echelon matrix with zero rows trimmed."""
    T = hermite_form(A).t
    return RingMatrix._from_payloads(A.ring, [row for row in T._rows if row], A.n)


def kernel(A: RingMatrix) -> list[tuple[RingElement, ...]]:
    """Generators of {u : A @ u = 0}; over a PIR, each CRT component's
    generators, zero in the other components."""
    ring = A.ring

    def join(parts):
        zeros = [C.zero for C in ring.components]
        return [
            tuple(RingElement(ring, (*zeros[:idx], x, *zeros[idx + 1 :])) for x in g)
            for idx, gens in enumerate(parts)
            for g in gens
        ]

    return crt_joined(ring, [_chain_kernel(c) for c in split_matrix(A)], join)


def _chain_kernel(A: RingMatrix) -> list[tuple[RingElement, ...]]:
    R = A.ring
    dec = smith_normal_form(A)
    nu = R.nu
    gens = []
    for i in range(A.n):
        if i < min(A.m, A.n):
            e = R.valuation(dec.diag[i])
            if e == 0:
                continue
            w = R.pow(R.pi_element, nu - e)
        else:
            w = R.one
        gens.append(dec.v_inv.mul_vector([w if j == i else R.zero for j in range(A.n)]))
    return gens


def row_membership(B: RingMatrix, y: Sequence[RingElement]) -> bool:
    """Is y in the row span of B?  Over a PIR, in every CRT component."""
    R = B.ring
    y = [R.coerce(x) for x in y]
    if len(y) != B.n:
        raise DomainError("vector length mismatch")
    ys = crt_parts(R, y, lambda idx, C: [x.data[idx] for x in y])
    return all(_chain_row_membership(c, _sparse(y)) for c, y in zip(split_matrix(B), ys))


def _chain_row_membership(B: RingMatrix, y: dict) -> bool:
    """Is the sparse payload row y in the row span of B?"""
    R = B.ring
    dec = smith_normal_form(B)
    w = _vector_times(R, y, dec.v_inv._rows)  # y @ v_inv
    for i, x in w.items():
        if i >= min(B.m, B.n) or R._payload_valuation(x) < R.valuation(dec.diag[i]):
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
    the deterministic choice.  Over a PIR, per CRT component.
    """
    return join_matrices(A.ring, [_chain_free_envelope(c, r) for c in split_matrix(A)])


def _chain_free_envelope(A: RingMatrix, r: int) -> RingMatrix:
    R = A.ring
    rk = _chain_rank(A)
    if not (rk <= r <= A.n):
        raise RankTooLarge(f"need rank(A) = {rk} <= r <= {A.n}, got r = {r}")
    dec = smith_normal_form(A)
    B = reduced_row_echelon(RingMatrix._from_payloads(R, dec.v._rows[:r], A.n))
    if not (B.m == r and all(_chain_row_membership(B, row) for row in A._rows)):
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
    if not isinstance(R, ChainRing):
        # no CRT answer: over Z6 the free column (2, 3) has no unit entry
        raise NotChainRing("standard form only exists over chain rings (Z_6-type counterexample)")
    n, w = Z.m, Z.n
    if not is_free_cols(Z):
        raise NotFree("columns of Z are linearly dependent")
    # pick w rows whose submatrix is invertible: Gaussian pivoting mod pi,
    # on Teichmüller payloads (Γ is closed under multiplication)
    digit, add, mul, neg, zero = R._payload_digit, R._payload_add, R._payload_mul, R._payload_neg, R._zero_data
    work = [[digit(row.get(c, zero)) for c in range(w)] for row in Z._rows]
    selected: list[int] = []
    for c in range(w):
        pivot_row = next((i for i in range(n) if i not in selected and work[i][c] != zero), None)
        if pivot_row is None:
            raise NotFree("columns became dependent modulo pi")
        selected.append(pivot_row)
        inv = R._payload_pow(work[pivot_row][c], R.q - 2)  # Γ* has order q - 1
        for i in range(n):
            f = work[i][c]
            if i != pivot_row and f != zero:
                factor = mul(f, inv)
                work[i] = [digit(add(a, neg(mul(factor, b)))) for a, b in zip(work[i], work[pivot_row])]
    selected_sorted = sorted(selected)
    rest = [i for i in range(n) if i not in selected]
    Q = Z.submatrix(selected_sorted, range(w))
    Q_inv = inverse(Q)
    Zp = Z.submatrix(rest, range(w)) @ Q_inv
    order = selected_sorted + rest
    P = RingMatrix._from_payloads(R, [{order.index(i): R.one.data} for i in range(n)], n)
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
    add, mul, neg = R._payload_add, R._payload_mul, R._payload_neg

    @lru_cache(maxsize=None)
    def minor(row: int, cols: tuple[int, ...]):
        """The payload of the minor of rows row.. in columns cols."""
        if not cols:
            return R.one.data
        acc = R._zero_data
        sign = 1
        for idx, c in enumerate(cols):
            entry = A._rows[row].get(c)
            if entry is not None:
                term = mul(entry, minor(row + 1, cols[:idx] + cols[idx + 1 :]))
                acc = add(acc, term if sign > 0 else neg(term))
            sign = -sign
        return acc

    return RingElement(R, minor(0, tuple(range(A.n))))


def rank_distance(A: RingMatrix, B: RingMatrix) -> int:
    """d(A, B) = rank(A - B)."""
    return rank(A - B)
