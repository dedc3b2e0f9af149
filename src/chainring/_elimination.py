"""The sparse elimination kernels behind linalg.payload_echelon and
linalg.payload_smith, which state their contract.

A matrix is a list of sparse payload rows, each a dict from the column of a
nonzero entry to its payload.  echelon and smith are ChainRing's methods
_payload_echelon and _payload_smith, on the ring's payload operations;
zpk_echelon and zpk_smith are Zpk's overrides, on native ints mod p^k.  The
two pairs choose the same pivots, leave the same rows and log the same
operations, as linalg._row_transforms reads them: (i, j, None) swaps rows i
and j, (i, j, c) adds c * row j to row i, and (i, None, u) scales row i by
the unit u.  Each works on the rows it is given, in place.

They live here rather than in rings.py because compiling rings.py, the
largest module, sets the peak memory of importing the package.
"""

from __future__ import annotations


def echelon(R, d: list[dict], ops: list | None = None, last: range | None = None) -> None:
    t = top = 0
    for c in _pivot_order(d, last):
        found = _min_valuation_row(R, d, t, c)
        if found is None:
            continue
        v, i = found
        _swap(d, ops, t, i)
        _make_pivot(R, d, ops, t, c, v)
        if last is not None and c not in last:
            top = t + 1
        elif top < t:
            _reduce_rows(R, d, ops, range(top, t), t, c, v)
        t += 1
        if t == len(d):
            break


def smith(R, d: list[dict], n: int, row_ops: list | None = None, col_ops: list | None = None) -> int:
    for t in range(min(len(d), n)):
        found = _min_valuation_entry(R, d, t)
        if found is None:
            return t
        v, i, j = found
        _swap(d, row_ops, t, i)
        if t != j:
            _swap_columns(d, col_ops, t, j)
        _make_pivot(R, d, row_ops, t, t, v)
        # column t is now pi^v at row t and zero elsewhere, and row t is zero
        # before it, so adding c * column t to column j only clears d[t][j]
        if col_ops is not None:
            for j2 in sorted(d[t]):
                if j2 != t:
                    col_ops.append((j2, t, R._payload_neg(R._payload_quo_pi(d[t][j2], v))))
        d[t] = {t: d[t][t]}
    return min(len(d), n)


def _pivot_order(d, last):
    """The columns the rows hold, ascending, with those in last after the
    others; fill-in only reaches columns the pivot row holds, so no other
    appears."""
    columns = sorted({j for row in d for j in row})
    if last is None:
        return columns
    return [c for c in columns if c not in last] + [c for c in columns if c in last]


def _min_valuation_row(R, d, t, c):
    """(v, i) with i the first row from t on whose entry in column c has
    the least valuation v, or None if none of them holds column c."""
    val = R._payload_valuation
    best = None
    for i in range(t, len(d)):
        x = d[i].get(c)
        if x is not None:
            v = val(x)
            if v == 0:
                return (0, i)
            if best is None or v < best[0]:
                best = (v, i)
    return best


def _min_valuation_entry(R, d, t):
    """(v, i, j) minimal over the entries d[i][j] with i, j >= t, or None
    if there are none."""
    val = R._payload_valuation
    best = None
    for i in range(t, len(d)):
        for j, x in d[i].items():
            if j >= t:
                key = (val(x), i, j)
                if key == (0, i, t):
                    return key  # the first row to hold a unit holds it first
                if best is None or key < best:
                    best = key
        if best is not None and best[0] == 0:
            return best  # no later row beats a unit
    return best


def _swap(rows, ops, i, j):
    if i != j:
        rows[i], rows[j] = rows[j], rows[i]
        if ops is not None:
            ops.append((i, j, None))


def _swap_columns(d, col_ops, t, j):
    """Swap columns t and j of the rows from t on; a row above t holds only
    its own pivot column."""
    for row in d[t:]:
        a, b = row.pop(t, None), row.pop(j, None)
        if b is not None:
            row[t] = b
        if a is not None:
            row[j] = a
    if col_ops is not None:
        col_ops.append((t, j, None))


def _make_pivot(R, d, ops, t, c, v):
    """Scale row t so that d[t][c], of valuation v, becomes pi^v, and clear
    the column below it; every entry of those rows has valuation >= v."""
    u = R._payload_invert(R._payload_quo_pi(d[t][c], v))
    if u != R.one.data:
        d[t] = R._payload_scale(u, d[t])
        if ops is not None:
            ops.append((t, None, u))
    if t + 1 < len(d):
        _reduce_rows(R, d, ops, range(t + 1, len(d)), t, c, v)


def _reduce_rows(R, d, ops, rows, t, c, v):
    """Subtract from each row i in rows that holds column c the multiple of
    the pivot row t (pivot pi^v in column c) that leaves d[i][c] at its
    canonical residue mod pi^v, which is zero when d[i][c] has valuation
    >= v.  A row without column c is not touched."""
    quo, neg, addmul, zero = R._payload_quo_pi, R._payload_neg, R._payload_addmul, R._zero_data
    pivot = d[t]
    for i in rows:
        x = d[i].get(c)
        if x is None:
            continue
        q = quo(x, v)
        if q != zero:
            coeff = neg(q)
            d[i] = addmul(d[i], coeff, pivot)
            if ops is not None:
                ops.append((i, t, coeff))


# -- Zpk: the same steps on ints mod p^k, each row updated in place ------------


def zpk_echelon(R, d: list[dict], ops: list | None = None, last: range | None = None) -> None:
    p, m = R.p, len(d)
    t = top = 0
    for c in _pivot_order(d, last):
        # _min_valuation_row, inline: it runs once per column
        i = v = None
        for s in range(t, m):
            x = d[s].get(c)
            if x is not None:
                if x % p:
                    i, v = s, 0
                    break
                w = R._payload_valuation(x)
                if v is None or w < v:
                    i, v = s, w
        if i is None:
            continue
        _swap(d, ops, t, i)
        # clear column c below the pivot, then above it if c is in last
        rows = range(t + 1, m)
        if last is not None and c not in last:
            top = t + 1
        elif top < t:
            rows = [*rows, *range(top, t)]
        _zpk_pivot(R, d, ops, t, c, p**v, rows)
        t += 1
        if t == m:
            break


def zpk_smith(R, d: list[dict], n: int, row_ops: list | None = None, col_ops: list | None = None) -> int:
    p, M, m = R.p, R.modulus, len(d)
    for t in range(min(m, n)):
        best = _min_valuation_entry(R, d, t)
        if best is None:
            return t
        v, i, j = best
        _swap(d, row_ops, t, i)
        if t != j:
            _swap_columns(d, col_ops, t, j)
        pv = p**v
        _zpk_pivot(R, d, row_ops, t, t, pv, range(t + 1, m))
        row = d[t]
        if col_ops is not None:
            for j2 in sorted(row):
                if j2 != t:
                    col_ops.append((j2, t, -(row[j2] // pv) % M))
        d[t] = {t: row[t]}
    return min(m, n)


def _zpk_pivot(R, d, ops, t, c, pv, rows):
    """_make_pivot's scaling of row t, so that d[t][c] of valuation v
    becomes pv = p^v, then _reduce_rows over rows: those below t, and
    those above it that echelon reduces."""
    M = R.modulus
    pivot = d[t]
    w = pivot[c] // pv
    if w != 1:
        u = pow(w, -1, M)
        for j, a in pivot.items():
            pivot[j] = u * a % M
        if ops is not None:
            ops.append((t, None, u))
    pivot = pivot.items()
    for i in rows:
        row = d[i]
        x = row.get(c)
        if x is None:
            continue
        q = x // pv
        if q:
            f = -q % M
            get = row.get
            for j, b in pivot:
                y = (get(j, 0) + f * b) % M
                if y:
                    row[j] = y
                else:
                    row.pop(j, None)
            if ops is not None:
                ops.append((i, t, f))
