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

Products are row-sparse: row ``i`` of ``A @ B`` is the sum of the rows
``B[k]`` over the nonzero entries ``A[i][k]``, an entry of +-1 adding
or subtracting the row without scaling it, and a zero row of ``A``
giving the zero row.  The integer hosts multiply mostly small matrices
whose entries are mostly 0 and +-1, which this favours over a dense
row-by-column sum.  ``identity(n)`` is one shared instance per size,
and a product with an operand equal to the identity returns the other
operand without multiplying: compositions with identity maps are about
half of the products the integer hosts take.

Integer systems ``M @ x = b`` are solved only against the Hermite
form (:class:`Lattice`): ``H = M @ U`` is triangular, a solve reduces
``b`` against H to coordinates y and returns ``x = U @ y``.  A
membership test stops after the reduction and never forms U @ y.
The Smith form has one routine, whose row and column operations update
the transforms only when asked to: :func:`snf` returns ``(D, U, V)``
for the truncation of chain complexes, while :func:`cokernel` and
:func:`invariant_factors` (the joint-epi tests of ``abgp`` and
``chain``) read the diagonal alone and skip the transforms.  Each Smith
step pivots on the first entry of least absolute value in row-major
order; as no nonzero entry is below 1, the scan stops at the first
unit it meets, which is the pivot the full scan would pick, so D, U
and V do not depend on the shortcut.
"""

from __future__ import annotations

from operator import add, mul, sub
from typing import Iterable, Optional, Sequence


class IntMatrix:
    """An immutable rows x cols integer matrix, stored as a tuple of row
    tuples.

    Every construction checks the dimensions and the shape of the data,
    whoever builds it; unpickling and copying rebuild through the same
    checks.  Equality and hashing follow (rows, cols, data).
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: tuple[tuple[int, ...], ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        if len(data) != rows:
            raise ValueError("ragged or mismatched matrix data")
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged or mismatched matrix data")
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_data(self, data)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.data == other.data and self.rows == other.rows and self.cols == other.cols

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.data))

    def __repr__(self) -> str:
        return f"IntMatrix(rows={self.rows!r}, cols={self.cols!r}, data={self.data!r})"

    def __reduce__(self):
        return IntMatrix, (self.rows, self.cols, self.data)

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = tuple(tuple(map(int, r)) for r in rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(len(rows), cols, rows)

    @classmethod
    def from_cols(cls, cols: Sequence[Sequence[int]], rows: Optional[int] = None) -> "IntMatrix":
        cols = [tuple(map(int, c)) for c in cols]
        if rows is None:
            rows = len(cols[0]) if cols else 0
        if any(len(c) != rows for c in cols):
            raise ValueError("ragged or mismatched matrix data")
        return cls(rows, len(cols), tuple(zip(*cols)) if cols else ((),) * rows)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        """The n x n identity, one shared instance per size."""
        eye = _IDENTITIES.get(n)
        if eye is None:
            # a negative n raises here and is never interned
            eye = _IDENTITIES.setdefault(n, cls(n, n, tuple(
                tuple(1 if i == j else 0 for j in range(n)) for i in range(n))))
        return eye

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
        if not self.rows:  # zip of no rows would lose the column count
            return IntMatrix.zeros(self.cols, 0)
        return IntMatrix(self.cols, self.rows, tuple(zip(*self.data)))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        # an identity operand leaves the other one (module docstring)
        n = self.cols
        eye = _IDENTITIES.get(n) or IntMatrix.identity(n)
        if self is eye or (self.rows == n and self.data == eye.data):
            return other
        if other is eye or (other.cols == n and other.data == eye.data):
            return self
        # row-sparse (module docstring): sum the rows of ``other`` picked
        # out by the nonzero entries of each row
        zero = (0,) * other.cols
        odata = other.data
        out = []
        for row in self.data:
            acc = None
            # indexing beats zip here: most entries are 0 and skip the row
            k = 0
            for a in row:
                if a:
                    o = odata[k]
                    if acc is None:
                        acc = o if a == 1 else tuple([a * y for y in o])
                    elif a == 1:
                        acc = tuple(map(add, acc, o))
                    elif a == -1:
                        acc = tuple(map(sub, acc, o))
                    else:
                        acc = tuple([x + a * y for x, y in zip(acc, o)])
                k += 1
            out.append(zero if acc is None else acc)
        return IntMatrix(self.rows, other.cols, tuple(out))

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


# the slots' own setters get past the refusing __setattr__, and are
# cheaper than object.__setattr__ on this hot path
_set_rows, _set_cols, _set_data = (IntMatrix.rows.__set__, IntMatrix.cols.__set__,
                                   IntMatrix.data.__set__)

# IntMatrix.identity's instances by size
_IDENTITIES: dict[int, IntMatrix] = {}


def hstack(*ms: IntMatrix) -> IntMatrix:
    if not ms:
        raise ValueError("need at least one matrix")
    rows = ms[0].rows
    if any(m.rows != rows for m in ms):
        raise ValueError("row count mismatch")
    return IntMatrix(rows, sum(m.cols for m in ms),
                     tuple(sum(parts, ()) for parts in zip(*(m.data for m in ms))))


def vstack(*ms: IntMatrix) -> IntMatrix:
    if not ms:
        raise ValueError("need at least one matrix")
    cols = ms[0].cols
    if any(m.cols != cols for m in ms):
        raise ValueError("column count mismatch")
    return IntMatrix(sum(m.rows for m in ms), cols,
                     tuple(r for m in ms for r in m.data))


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

    def _coordinates(self, vec: Sequence[int]) -> Optional[list[int]]:
        """The y with ``H @ y = vec``, or None when the vector is not in
        the lattice."""
        h = self._h
        if len(vec) != h.rows:
            raise ValueError("vector length mismatch")
        data = h.data
        v = list(vec)
        y = [0] * h.cols
        for prow, pcol in self._pivots:
            p = data[prow][pcol]
            if v[prow] % p != 0:
                return None
            c = y[pcol] = v[prow] // p
            if c:
                for i in range(prow, h.rows):
                    v[i] -= c * data[i][pcol]
        return None if any(v) else y

    def solve(self, vec: Sequence[int]) -> Optional[tuple[int, ...]]:
        """An integer x with ``m @ x = vec``, or None when the vector is
        not in the lattice."""
        y = self._coordinates(vec)
        # m @ U = H, so x = U @ y
        return None if y is None else self._u.apply(y)

    def __contains__(self, vec: Sequence[int]) -> bool:
        return self._coordinates(vec) is not None

    def contains_all_columns(self, m: IntMatrix) -> bool:
        if m.rows != self._h.rows:
            raise ValueError("row count mismatch")
        # zip of no rows yields no columns, and the empty vector is in
        # the lattice of Z^0 anyway
        return all(self._coordinates(c) is not None for c in zip(*m.data))


# ---------------------------------------------------------------------------
# Smith normal form


def _clear_position(rws, cws, t: int) -> bool:
    """Move a pivot to (t, t) and clear its row and column; False when
    the remaining block is zero and there is no pivot."""
    a = rws[0]
    rows, cols = len(a), len(a[0]) if a else 0
    while True:
        # the first entry of least absolute value, in row-major order, of
        # the remaining block; none is below 1, so a unit ends the scan
        best = None
        least = 0
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x and (best is None or abs(x) < least):
                    best, least = (i, j), abs(x)
                    if least == 1:
                        break
            if least == 1:
                break
        if best is None:
            return False
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
            return True


def _fix_divisibility(rws, cws, k: int) -> None:
    # merge diag entries k, k+1 into (gcd, lcm) with a self-contained
    # 2x2 reduction; nothing outside rows/cols {k, k+1} is touched
    a = rws[0]
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


def _smith(m: IntMatrix, transforms: bool):
    """The Smith reduction of m on list workspaces: ``(a, u, v)`` with
    ``a = u @ m @ v`` diagonal.  Without ``transforms`` the row and
    column operations touch ``a`` alone and u, v are None."""
    a = [list(r) for r in m.data]
    u = v = None
    rws, cws = [a], [a]
    if transforms:
        u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
        v = [[1 if i == j else 0 for j in range(m.cols)] for i in range(m.cols)]
        rws.append(u)
        cws.append(v)
    n = min(m.rows, m.cols)
    t = 0
    while t < n and _clear_position(rws, cws, t):
        t += 1
    r = t
    for k in range(r):
        if a[k][k] < 0:
            _row_negate(rws, k)
    changed = True
    while changed:
        changed = False
        for k in range(r - 1):
            if a[k + 1][k + 1] % a[k][k] != 0:
                _fix_divisibility(rws, cws, k)
                changed = True
        for k in range(r):
            if a[k][k] < 0:
                _row_negate(rws, k)
    return a, u, v


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: ``D = U @ m @ V`` with the divisibility chain."""
    a, u, v = _smith(m, transforms=True)
    return (IntMatrix.from_rows(a, m.cols),
            IntMatrix.from_rows(u, m.rows),
            IntMatrix.from_rows(v, m.cols))


def diagonal(m: IntMatrix) -> tuple[int, ...]:
    return tuple(m.data[k][k] for k in range(min(m.rows, m.cols)))


def invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """The nonzero Smith diagonal, computed without U and V."""
    a, _, _ = _smith(m, transforms=False)
    return tuple(a[k][k] for k in range(min(m.rows, m.cols)) if a[k][k] != 0)


def cokernel(m: IntMatrix) -> tuple[int, ...]:
    """Nontrivial invariant factors of coker(m) = Z^rows / col-lattice;
    a 0 entry denotes a free Z summand."""
    diag = invariant_factors(m)
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
