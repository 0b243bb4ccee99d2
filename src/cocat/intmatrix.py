"""Exact integer matrices and their normal forms.

Everything here runs on Python's arbitrary-precision integers; the
normal-form kernels must never be fed fixed-width arithmetic because
intermediate entries can grow far beyond the inputs.

Conventions:

* ``hnf`` is column-style: only column operations are performed, so
  ``M @ U = H`` with ``U`` unimodular.  Pivots walk down and to the
  right, entries above and to the right of a pivot are zero, entries
  to its left are reduced into ``[0, pivot)``.  Column lattices (and
  hence membership tests) are therefore triangular solves.
* ``snf`` returns ``(D, U, V)`` with ``D = U @ M @ V`` diagonal,
  non-negative, each entry dividing the next.

Products are row-by-column sums over ``zip``: ``A @ B`` takes the
columns of ``B`` once with ``zip(*B.data)`` and each entry is
``sum(map(mul, row, col))``.  ``zip`` of no rows loses the column
count, so the zero-row shapes (``transpose`` of a matrix with no rows,
a product with inner dimension 0) are handled explicitly as zero
matrices of the right shape.

Integer systems ``M @ x = b`` are solved only against the Hermite
form (:class:`Lattice`); the Smith form serves the callers that need
its diagonal or its transforms: :func:`cokernel`,
:func:`invariant_factors` and the truncation of chain complexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True)
class IntMatrix:
    rows: int
    cols: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative dimensions")
        if len(self.data) != self.rows or not set(map(len, self.data)) <= {self.cols}:
            raise ValueError("ragged or mismatched matrix data")

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = tuple(tuple(map(int, r)) for r in rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [tuple(int(x) for x in c) for c in cols]
        if rows is None:
            rows = len(cols[0]) if cols else 0
        return cls(rows, len(cols),
                   tuple(tuple(c[i] for c in cols) for i in range(rows)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    # -- views ----------------------------------------------------------

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def select_cols(self, idx: Iterable[int]) -> "IntMatrix":
        idx = list(idx)
        return IntMatrix(self.rows, len(idx),
                         tuple(tuple(r[j] for j in idx) for r in self.data))

    def select_rows(self, idx: Iterable[int]) -> "IntMatrix":
        idx = list(idx)
        return IntMatrix(len(idx), self.cols, tuple(self.data[i] for i in idx))

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix.zeros(self.cols, 0)
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.data)))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        if not other.rows:
            return IntMatrix.zeros(self.rows, other.cols)
        cols = tuple(zip(*other.data))
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(map(mul, row, col)) for col in cols)
                               for row in self.data))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(a + b for a, b in zip(r1, r2))
                               for r1, r2 in zip(self.data, other.data)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(map(sub, r1, r2))
                               for r1, r2 in zip(self.data, other.data)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-x for x in r) for r in self.data))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, row, vec)) for row in self.data)


def hstack(*ms: IntMatrix) -> IntMatrix:
    if not ms:
        raise ValueError("need at least one matrix")
    rows = ms[0].rows
    if any(m.rows != rows for m in ms):
        raise ValueError("row count mismatch")
    return IntMatrix(rows, sum(m.cols for m in ms),
                     tuple(tuple(x for m in ms for x in m.data[i]) for i in range(rows)))


def vstack(*ms: IntMatrix) -> IntMatrix:
    if not ms:
        raise ValueError("need at least one matrix")
    cols = ms[0].cols
    if any(m.cols != cols for m in ms):
        raise ValueError("column count mismatch")
    return IntMatrix(sum(m.rows for m in ms), cols,
                     tuple(r for m in ms for r in m.data))


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product: entry ``((i, k), (j, l))`` is ``a[i][j] * b[k][l]``."""
    return IntMatrix(a.rows * b.rows, a.cols * b.cols,
                     tuple(tuple(x * y for x in ra for y in rb)
                           for ra in a.data for rb in b.data))


def flatten(m: IntMatrix) -> list[int]:
    """The entries row by row, so that ``flatten(a @ x @ b)`` is
    ``kron(a, b.transpose()).apply(flatten(x))``."""
    return [x for row in m.data for x in row]


def unflatten(vec: Sequence[int], rows: int, cols: int) -> IntMatrix:
    """The inverse of :func:`flatten`."""
    if len(vec) != rows * cols:
        raise ValueError("vector length mismatch")
    return IntMatrix(rows, cols,
                     tuple(tuple(vec[p * cols:(p + 1) * cols]) for p in range(rows)))


# ---------------------------------------------------------------------------
# Elementary operations on mutable list-of-list workspaces


def _col_addmul(ws, dst: int, src: int, c: int) -> None:
    for m in ws:
        for row in m:
            row[dst] += c * row[src]


def _col_swap(ws, a: int, b: int) -> None:
    for m in ws:
        for row in m:
            row[a], row[b] = row[b], row[a]


def _col_negate(ws, j: int) -> None:
    for m in ws:
        for row in m:
            row[j] = -row[j]


def _row_addmul(ws, dst: int, src: int, c: int) -> None:
    for m in ws:
        row_s = m[src]
        row_d = m[dst]
        for j in range(len(row_d)):
            row_d[j] += c * row_s[j]


def _row_swap(ws, a: int, b: int) -> None:
    for m in ws:
        m[a], m[b] = m[b], m[a]


def _row_negate(ws, i: int) -> None:
    for m in ws:
        m[i] = [-x for x in m[i]]


# ---------------------------------------------------------------------------
# Hermite normal form


def _hnf(m: IntMatrix):
    h = [list(r) for r in m.data]
    u = [[1 if i == j else 0 for j in range(m.cols)] for i in range(m.cols)]
    ws = [h, u]
    pivot_col = 0
    pivots: list[tuple[int, int]] = []
    for row in range(m.rows):
        if pivot_col >= m.cols:
            break
        while True:
            nz = [j for j in range(pivot_col, m.cols) if h[row][j] != 0]
            if len(nz) <= 1:
                break
            jmin = min(nz, key=lambda j: abs(h[row][j]))
            for j in nz:
                if j != jmin:
                    q = h[row][j] // h[row][jmin]
                    if q:
                        _col_addmul(ws, j, jmin, -q)
        nz = [j for j in range(pivot_col, m.cols) if h[row][j] != 0]
        if not nz:
            continue
        if nz[0] != pivot_col:
            _col_swap(ws, nz[0], pivot_col)
        if h[row][pivot_col] < 0:
            _col_negate(ws, pivot_col)
        p = h[row][pivot_col]
        for j in range(pivot_col):
            q = h[row][j] // p
            if q:
                _col_addmul(ws, j, pivot_col, -q)
        pivots.append((row, pivot_col))
        pivot_col += 1
    return (IntMatrix.from_rows(h, m.cols),
            IntMatrix.from_rows(u, m.cols),
            pivots)


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Column-style Hermite normal form: ``m @ U = H``, U unimodular."""
    h, u, _ = _hnf(m)
    return h, u


def rank(m: IntMatrix) -> int:
    return len(_hnf(m)[2])


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns form a basis of the integer kernel of m."""
    h, u, _ = _hnf(m)
    zero_cols = [j for j in range(m.cols) if all(h.data[i][j] == 0 for i in range(m.rows))]
    return u.select_cols(zero_cols)


class Lattice:
    """A column lattice with its Hermite form cached: every membership
    query and integer solve is one triangular solve."""

    def __init__(self, m: IntMatrix):
        self._h, self._u, self._pivots = _hnf(m)

    def solve(self, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        """An integer x with ``m @ x = vec``, or None when the vector is
        not in the lattice."""
        h = self._h
        if len(vec) != h.rows:
            raise ValueError("vector length mismatch")
        v = list(vec)
        y = [0] * h.cols
        for prow, pcol in self._pivots:
            p = h.data[prow][pcol]
            if v[prow] % p != 0:
                return None
            c = y[pcol] = v[prow] // p
            if c:
                for i in range(prow, h.rows):
                    v[i] -= c * h.data[i][pcol]
        if any(v):
            return None
        # m @ U = H, so x = U @ y
        return self._u.apply(y)

    def __contains__(self, vec: Sequence[int]) -> bool:
        return self.solve(vec) is not None

    def contains_all_columns(self, m: IntMatrix) -> bool:
        return all(m.col(j) in self for j in range(m.cols))


# ---------------------------------------------------------------------------
# Smith normal form


def _clear_position(a, u, v, t: int) -> None:
    rows, cols = len(a), len(a[0]) if a else 0
    rws = [a, u]
    cws = [a, v]
    while True:
        # choose the smallest nonzero entry of the remaining block as pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            return
        if best[0] != t:
            _row_swap(rws, best[0], t)
        if best[1] != t:
            _col_swap(cws, best[1], t)
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                if q:
                    _row_addmul(rws, i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                if q:
                    _col_addmul(cws, j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if not dirty:
            return


def _fix_divisibility(a, u, v, k: int) -> None:
    # merge diag entries k, k+1 into (gcd, lcm) with a self-contained
    # 2x2 reduction; nothing outside rows/cols {k, k+1} is touched
    rws = [a, u]
    cws = [a, v]
    _col_addmul(cws, k, k + 1, 1)
    while a[k + 1][k] != 0 or a[k][k + 1] != 0:
        if a[k + 1][k] != 0:
            q = a[k + 1][k] // a[k][k]
            if q:
                _row_addmul(rws, k + 1, k, -q)
            if a[k + 1][k] != 0:
                _row_swap(rws, k, k + 1)
        if a[k][k + 1] != 0:
            q = a[k][k + 1] // a[k][k]
            if q:
                _col_addmul(cws, k + 1, k, -q)
            if a[k][k + 1] != 0:
                _col_swap(cws, k, k + 1)


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: ``D = U @ m @ V`` with the divisibility chain."""
    a = [list(r) for r in m.data]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    v = [[1 if i == j else 0 for j in range(m.cols)] for i in range(m.cols)]
    n = min(m.rows, m.cols)
    t = 0
    while t < n:
        if all(a[i][j] == 0 for i in range(t, m.rows) for j in range(t, m.cols)):
            break
        _clear_position(a, u, v, t)
        t += 1
    r = t
    for k in range(r):
        if a[k][k] < 0:
            _row_negate([a, u], k)
    changed = True
    while changed:
        changed = False
        for k in range(r - 1):
            if a[k + 1][k + 1] % a[k][k] != 0:
                _fix_divisibility(a, u, v, k)
                changed = True
        for k in range(r):
            if a[k][k] < 0:
                _row_negate([a, u], k)
    return (IntMatrix.from_rows(a, m.cols),
            IntMatrix.from_rows(u, m.rows),
            IntMatrix.from_rows(v, m.cols))


def diagonal(m: IntMatrix) -> tuple[int, ...]:
    return tuple(m.data[k][k] for k in range(min(m.rows, m.cols)))


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    d, _, _ = snf(m)
    return tuple(x for x in diagonal(d) if x != 0)


def cokernel(m: IntMatrix) -> tuple[int, ...]:
    """Nontrivial invariant factors of coker(m) = Z^rows / col-lattice;
    a 0 entry denotes a free Z summand."""
    d, _, _ = snf(m)
    diag = [x for x in diagonal(d) if x != 0]
    finite = tuple(x for x in diag if x != 1)
    return finite + (0,) * (m.rows - len(diag))


def solve(m: IntMatrix, b: Sequence[int]) -> Optional[tuple[int, ...]]:
    """An integer solution x of ``m @ x = b``, or None when there is
    none."""
    return Lattice(m).solve(b)


def solve_matrix(m: IntMatrix, b: IntMatrix) -> Optional[IntMatrix]:
    """Columnwise integer solution X of ``m @ X = b``, factoring m once."""
    lattice = Lattice(m)
    cols = [lattice.solve(b.col(j)) for j in range(b.cols)]
    if None in cols:
        return None
    return IntMatrix.from_cols(cols, rows=m.cols)


# ---------------------------------------------------------------------------
# Unimodular inverses


def invert_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix (its Hermite form is the identity,
    so the accumulated column transform is the inverse)."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    h, u = hnf(m)
    if h != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return u
