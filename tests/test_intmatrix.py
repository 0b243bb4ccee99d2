"""Normal-form postconditions, solver certificates, and a cross-check
against an independent implementation."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocat import intmatrix
from cocat.intmatrix import (
    IntMatrix,
    Lattice,
    cokernel,
    diagonal,
    hnf,
    hstack,
    invariant_factors,
    invert_unimodular,
    kernel_basis,
    rank,
    snf,
    solve,
    vstack,
)


def _mat(rows):
    return IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)


def _det(m):
    sympy = pytest.importorskip("sympy")
    return int(sympy.Matrix(m.rows, m.cols, [x for row in m.data for x in row]).det())


matrices = st.integers(0, 4).flatmap(
    lambda r: st.integers(0, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r,
        ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))
    )
)


def _shaped(draw, rows, cols):
    return IntMatrix.from_rows(
        [draw(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols))
         for _ in range(rows)], cols=cols)


class TestKernels:
    """``@``, ``transpose``, ``-``, ``apply`` and ``hstack`` against naive loops,
    with every dimension drawn from 0..4 so that empty inner and outer
    shapes occur."""

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_match_naive_loops(self, p, q, r, data):
        a, a2, b = _shaped(data.draw, p, q), _shaped(data.draw, p, q), _shaped(data.draw, q, r)
        vec = data.draw(st.lists(st.integers(-5, 5), min_size=q, max_size=q))
        prod = tuple(tuple(sum(a.data[i][k] * b.data[k][j] for k in range(q))
                           for j in range(r)) for i in range(p))
        ab = a @ b
        assert (ab.rows, ab.cols, ab.data) == (p, r, prod)
        t = a.transpose()
        assert (t.rows, t.cols, t.data) == (
            q, p, tuple(tuple(a.data[i][j] for i in range(p)) for j in range(q)))
        d = a - a2
        assert (d.rows, d.cols, d.data) == (
            p, q, tuple(tuple(a.data[i][j] - a2.data[i][j] for j in range(q))
                        for i in range(p)))
        assert a.apply(vec) == tuple(sum(a.data[i][k] * vec[k] for k in range(q))
                                     for i in range(p))

    @given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
    @settings(max_examples=300, deadline=None)
    def test_row_sparse_product_matches_naive_loop(self, p, q, r, data):
        # the traffic the product is built for: entries mostly 0 and +-1,
        # some -1 and |a| >= 2, and rows and columns that are all zero
        entries = st.sampled_from((0, 0, 0, 0, 1, 1, 1, -1, 2, -3))

        def sparse(rows, cols):
            zero_rows = data.draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=rows))
            zero_cols = data.draw(st.sets(st.integers(0, max(cols - 1, 0)), max_size=cols))
            return IntMatrix.from_rows(
                [[0 if i in zero_rows or j in zero_cols else data.draw(entries)
                  for j in range(cols)] for i in range(rows)], cols=cols)

        a, b = sparse(p, q), sparse(q, r)
        prod = a @ b
        assert (prod.rows, prod.cols) == (p, r)
        assert prod.data == tuple(
            tuple(sum(a.data[i][k] * b.data[k][j] for k in range(q)) for j in range(r))
            for i in range(p))

    @given(st.integers(0, 4), st.lists(st.integers(0, 3), min_size=1, max_size=4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_hstack_matches_naive_loop(self, p, widths, data):
        parts = [_shaped(data.draw, p, w) for w in widths]
        stacked = hstack(*parts)
        assert (stacked.rows, stacked.cols) == (p, sum(widths))
        assert stacked.data == tuple(tuple(x for m in parts for x in m.data[i])
                                     for i in range(p))
        with pytest.raises(ValueError):
            hstack(*parts, IntMatrix.zeros(p + 1, 1))

    def test_zero_dimension_shapes(self):
        assert IntMatrix.zeros(2, 0) @ IntMatrix.zeros(0, 3) == IntMatrix.zeros(2, 3)
        assert IntMatrix.zeros(0, 3).transpose() == IntMatrix.zeros(3, 0)

    def test_ragged_data_rejected(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, ((1, 2), (3,)))
        with pytest.raises(ValueError):
            IntMatrix(2, 2, ((1, 2),))
        with pytest.raises(ValueError):
            _mat([[1, 2]]) - _mat([[1], [2]])


class TestHermite:
    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_product_and_unimodularity(self, m):
        h, u = hnf(m)
        assert m @ u == h
        if m.cols:
            assert abs(_det(u)) == 1

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_echelon_shape(self, m):
        h, _ = hnf(m)
        pivots = []
        for j in range(h.cols):
            col = h.col(j)
            nz = [i for i, x in enumerate(col) if x]
            if nz:
                pivots.append((nz[0], j))
        # pivot rows strictly increase and pivot columns are contiguous
        assert [j for _, j in pivots] == list(range(len(pivots)))
        rows_ = [i for i, _ in pivots]
        assert rows_ == sorted(rows_) and len(set(rows_)) == len(rows_)
        for prow, pcol in pivots:
            p = h.data[prow][pcol]
            assert p > 0
            for j in range(pcol + 1, h.cols):
                assert h.data[prow][j] == 0
            for j in range(pcol):
                assert 0 <= h.data[prow][j] < p

    def test_identity(self):
        h, u = hnf(IntMatrix.identity(3))
        assert h == IntMatrix.identity(3)
        assert u == IntMatrix.identity(3)

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_membership_of_columns(self, m):
        for j in range(m.cols):
            assert m.col(j) in Lattice(m)
        # random combination is a member; shifted by a unit vector it
        # may or may not be, but membership must match brute search on
        # tiny lattices
        if m.rows:
            combo = [sum(2 * m.data[i][j] for j in range(m.cols)) for i in range(m.rows)]
            assert combo in Lattice(m)

    def test_membership_negative(self):
        m = _mat([[2, 0], [0, 2]])
        assert (1, 0) not in Lattice(m)
        assert (2, -4) in Lattice(m)


class TestSmith:
    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_decomposition(self, m):
        d, u, v = snf(m)
        assert (u @ m) @ v == d
        if m.rows:
            assert abs(_det(u)) == 1
        if m.cols:
            assert abs(_det(v)) == 1
        diag = diagonal(d)
        for i in range(d.rows):
            for j in range(d.cols):
                if i != j:
                    assert d.data[i][j] == 0
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                assert b == 0
            elif b != 0:
                assert b % a == 0

    @given(matrices)
    @settings(max_examples=150, deadline=None)
    def test_diagonal_readers_match_snf(self, m):
        # cokernel and invariant_factors skip the transforms; they must
        # still read the diagonal snf returns
        diag = [x for x in diagonal(snf(m)[0]) if x != 0]
        assert invariant_factors(m) == tuple(diag)
        assert cokernel(m) == (tuple(x for x in diag if x != 1)
                               + (0,) * (m.rows - len(diag)))

    def test_snf_identity(self):
        d, _, _ = snf(IntMatrix.identity(3))
        assert d == IntMatrix.identity(3)
        assert cokernel(IntMatrix.identity(3)) == ()

    @given(matrices)
    @settings(max_examples=80, deadline=None)
    def test_matches_independent_implementation(self, m):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors as sympy_factors

        ours = invariant_factors(m)
        theirs = sympy.Matrix(m.rows, m.cols, [x for row in m.data for x in row])
        expected = tuple(int(x) for x in sympy_factors(theirs, domain=sympy.ZZ)
                         if int(x) != 0)
        assert ours == expected


class TestSolve:
    @given(matrices, st.lists(st.integers(-5, 5), min_size=0, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_solution_is_exact(self, m, x):
        x = (x + [0] * m.cols)[: m.cols]
        b = m.apply(x)
        sol = solve(m, b)
        assert sol is not None
        assert m.apply(sol) == b

    def test_unsolvable_parity(self):
        m = _mat([[2, 0], [0, 2]])
        assert solve(m, (1, 0)) is None

    @given(matrices, st.lists(st.integers(-5, 5), min_size=0, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_none_certified_by_membership(self, m, b):
        b = tuple((b + [0] * m.rows)[: m.rows])
        sol = solve(m, b)
        assert (sol is not None) == (b in Lattice(m))

    @given(matrices, st.lists(st.integers(-5, 5), min_size=0, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_none_certified_by_smith_form(self, m, b):
        # D = U m V, so m x = b is solvable iff D y = U b is: each entry
        # of U b divisible by its nonzero d_k, zero where there is none
        b = tuple((b + [0] * m.rows)[: m.rows])
        d, u, _ = snf(m)
        diag = diagonal(d)
        c = u.apply(b)
        solvable = all(
            c[k] % diag[k] == 0 if k < len(diag) and diag[k] != 0 else c[k] == 0
            for k in range(m.rows))
        assert (solve(m, b) is not None) == solvable


class TestKernel:
    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_kernel_columns_annihilate(self, m):
        k = kernel_basis(m)
        assert (m @ k).is_zero()
        assert k.cols == m.cols - rank(m)

    def test_inverse_unimodular(self):
        u = _mat([[1, 2], [0, 1]])
        assert invert_unimodular(u) @ u == IntMatrix.identity(2)
        assert u @ invert_unimodular(u) == IntMatrix.identity(2)
        with pytest.raises(ValueError):
            invert_unimodular(_mat([[2, 0], [0, 1]]))


class TestCokernel:
    def test_free_rank(self):
        # two independent columns in Z^3 leave one free summand
        m = IntMatrix.from_cols([(1, 0, 0), (0, 0, 1)], rows=3)
        assert cokernel(m) == (0,)

    def test_torsion(self):
        assert cokernel(_mat([[2]])) == (2,)
        assert cokernel(_mat([[2, 0], [0, 3]])) == (6,)  # invariant factor form

    def test_zero_matrix(self):
        assert cokernel(IntMatrix.zeros(2, 1)) == (0, 0)


class TestArithmetic:
    def test_shapes(self):
        a = _mat([[1, 2, 3]])
        with pytest.raises(ValueError):
            a @ a
        assert hstack(a, a).cols == 6
        assert vstack(a, a).rows == 2

    def test_is_unimodular(self):
        assert invert_unimodular(IntMatrix.identity(4)) == IntMatrix.identity(4)
        with pytest.raises(ValueError):
            invert_unimodular(_mat([[1, 0], [0, 2]]))


class TestValue:
    """IntMatrix is slotted and immutable; equality, hash and repr follow
    (rows, cols, data), and pickle and copy rebuild through the checks."""

    def test_attributes_cannot_be_set(self):
        m = _mat([[1, 2], [3, 4]])
        for name in ("rows", "cols", "data", "extra"):
            with pytest.raises(AttributeError):
                setattr(m, name, 0)
        for name in ("rows", "data"):
            with pytest.raises(AttributeError):
                delattr(m, name)
        assert (m.rows, m.cols, m.data) == (2, 2, ((1, 2), (3, 4)))

    def test_equality_and_hash_follow_the_fields(self):
        m = _mat([[1, 2], [3, 4]])
        same = IntMatrix(2, 2, ((1, 2), (3, 4)))
        assert m == same and not m != same
        assert hash(m) == hash(same) == hash((2, 2, ((1, 2), (3, 4))))
        # no rows: the data agree, the column counts tell them apart
        assert IntMatrix.zeros(0, 2) != IntMatrix.zeros(0, 3)
        for other in (_mat([[1, 2], [3, 5]]), _mat([[1, 2]]), IntMatrix.identity(2)):
            assert m != other and not m == other
        assert m != (2, 2, ((1, 2), (3, 4)))
        assert len({m, same, _mat([[4, 3], [2, 1]])}) == 2
        assert repr(m) == "IntMatrix(rows=2, cols=2, data=((1, 2), (3, 4)))"

    def test_pickle_and_copy_round_trip(self):
        for m in (_mat([[1, -2, 3], [4, 5, 6]]), IntMatrix.zeros(0, 3), IntMatrix.zeros(2, 0)):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(m, protocol))
                assert back == m and back.__class__ is IntMatrix
            for back in (copy.deepcopy(m), copy.copy(m)):
                assert back == m

    def test_tampered_data_rejected_on_load(self):
        m = IntMatrix(2, 3, ((1, 2, 3), (4, 5, 6)))
        # protocol 0 writes each small int as I<digits>; dropping 6
        # leaves the second row short
        text = pickle.dumps(m, 0)
        assert text.count(b"I6\n") == 1
        with pytest.raises(ValueError):
            pickle.loads(text.replace(b"I6\n", b""))
        # deepcopy takes a copy from the memo: hand it a ragged row
        with pytest.raises(ValueError):
            copy.deepcopy(m, {id(m.data): ((1, 2, 3), (4, 5))})

    def test_one_identity_per_size(self):
        for n in range(5):
            assert IntMatrix.identity(n) is IntMatrix.identity(n)
            assert IntMatrix.identity(n) == IntMatrix.from_rows(
                [[int(i == j) for j in range(n)] for i in range(n)], cols=n)
        for _ in range(2):
            with pytest.raises(ValueError):
                IntMatrix.identity(-1)
        assert -1 not in intmatrix._IDENTITIES

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_identity_products_match_naive_loop(self, data):
        def naive(x, y):
            return tuple(tuple(sum(x.data[i][t] * y.data[t][j] for t in range(x.cols))
                               for j in range(y.cols)) for i in range(x.rows))

        # every size 0-4, 0x0 included, against the shared instance and
        # an equal matrix built apart from it
        for n in range(5):
            eye = IntMatrix.identity(n)
            equal = IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)],
                                        cols=n)
            for k in range(5):
                a, b = _shaped(data.draw, k, n), _shaped(data.draw, n, k)
                for ident in (eye, equal):
                    for left, right in ((ident, b), (a, ident), (ident, ident)):
                        prod = left @ right
                        assert (prod.rows, prod.cols) == (left.rows, right.cols)
                        assert prod.data == naive(left, right)
                # no product is formed: the result is an operand (the
                # identity itself when a equals it too)
                assert eye @ b is b and any(a @ eye is x for x in (a, eye))


class TestFromCols:
    def test_columns_become_columns(self):
        m = IntMatrix.from_cols([(1, 2, 3), (4, 5, 6)])
        assert m == _mat([[1, 4], [2, 5], [3, 6]])
        assert IntMatrix.from_cols([], rows=2) == IntMatrix.zeros(2, 0)
        assert IntMatrix.from_cols([(), ()]) == IntMatrix.zeros(0, 2)

    def test_wrong_column_lengths_rejected(self):
        for cols, rows in (([(1, 2, 3)], 2), ([(1, 2), (3,)], None), ([(1,)], 0),
                           ([(), (1,)], None)):
            with pytest.raises(ValueError, match="ragged or mismatched matrix data"):
                IntMatrix.from_cols(cols, rows=rows)


class TestMembership:
    @given(matrices, st.data())
    @settings(max_examples=150, deadline=None)
    def test_contains_matches_solve(self, m, data):
        # lattice points, and lattice points moved off by a small vector
        x = data.draw(st.lists(st.integers(-3, 3), min_size=m.cols, max_size=m.cols))
        e = data.draw(st.lists(st.integers(-1, 1), min_size=m.rows, max_size=m.rows))
        lattice = Lattice(m)
        for v in (m.apply(x), tuple(a + b for a, b in zip(m.apply(x), e))):
            sol = lattice.solve(v)
            assert (v in lattice) == (sol is not None)
            if sol is not None:
                assert m.apply(sol) == v

    @given(matrices, matrices)
    @settings(max_examples=100, deadline=None)
    def test_contains_all_columns_is_columnwise(self, m, other):
        if other.rows != m.rows:
            other = IntMatrix.zeros(m.rows, other.cols)
        both = hstack(m, other)
        assert Lattice(m).contains_all_columns(both) == all(
            both.col(j) in Lattice(m) for j in range(both.cols))

    def test_row_count_checked_first(self):
        lattice = Lattice(IntMatrix.identity(2))
        for m in (IntMatrix.zeros(3, 0), IntMatrix.zeros(1, 0), IntMatrix.zeros(3, 1)):
            with pytest.raises(ValueError):
                lattice.contains_all_columns(m)
        assert lattice.contains_all_columns(IntMatrix.zeros(2, 0))
        assert Lattice(IntMatrix.zeros(0, 1)).contains_all_columns(IntMatrix.zeros(0, 2))


def _full_scan_snf(m):
    """The Smith reduction as it was before the unit-pivot stop: every
    step scans the whole remaining block for the first entry of least
    absolute value, after a separate scan that ends the reduction on an
    all-zero block."""
    a = [list(r) for r in m.data]
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    v = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
    rws, cws = [a, u], [a, v]

    def clear(t):
        while True:
            best = None
            for i in range(t, m.rows):
                for j in range(t, m.cols):
                    if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                return
            if best[0] != t:
                intmatrix._row_swap(rws, best[0], t)
            if best[1] != t:
                intmatrix._col_swap(cws, best[1], t)
            dirty = False
            for i in range(t + 1, m.rows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        intmatrix._row_addmul(rws, i, t, -q)
                    dirty = dirty or a[i][t] != 0
            for j in range(t + 1, m.cols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        intmatrix._col_addmul(cws, j, t, -q)
                    dirty = dirty or a[t][j] != 0
            if not dirty:
                return

    t = 0
    while t < min(m.rows, m.cols):
        if all(a[i][j] == 0 for i in range(t, m.rows) for j in range(t, m.cols)):
            break
        clear(t)
        t += 1
    for k in range(t):
        if a[k][k] < 0:
            intmatrix._row_negate(rws, k)
    changed = True
    while changed:
        changed = False
        for k in range(t - 1):
            if a[k + 1][k + 1] % a[k][k] != 0:
                intmatrix._fix_divisibility(rws, cws, k)
                changed = True
        for k in range(t):
            if a[k][k] < 0:
                intmatrix._row_negate(rws, k)
    return (IntMatrix.from_rows(a, m.cols), IntMatrix.from_rows(u, m.rows),
            IntMatrix.from_rows(v, m.cols))


small_matrices = st.integers(0, 5).flatmap(
    lambda r: st.integers(0, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-3, 3), min_size=c, max_size=c),
            min_size=r, max_size=r,
        ).map(lambda rows: IntMatrix.from_rows(rows, cols=c))
    )
)


class TestUnitPivot:
    @given(small_matrices)
    @settings(max_examples=300, deadline=None)
    def test_snf_matches_full_scan(self, m):
        assert snf(m) == _full_scan_snf(m)
        assert invariant_factors(m) == tuple(
            x for x in diagonal(_full_scan_snf(m)[0]) if x)
