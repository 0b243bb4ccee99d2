"""Normal-form postconditions, solver certificates, and a cross-check
against an independent implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocat.intmatrix import (
    IntMatrix,
    Lattice,
    cokernel,
    diagonal,
    hnf,
    hstack,
    invariant_factors,
    flatten,
    invert_unimodular,
    kernel_basis,
    kron,
    rank,
    snf,
    solve,
    unflatten,
    vstack,
)


def _mat(rows):
    return IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)


def _det(m):
    sympy = pytest.importorskip("sympy")
    return int(sympy.Matrix(m.rows, m.cols, flatten(m)).det())


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
    """``@``, ``transpose``, ``-`` and ``apply`` against naive loops,
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

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
           st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_kron_flattens_products(self, p, q, r, t, rng):
        def draw(rows, cols):
            return IntMatrix.from_rows(
                [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)], cols=cols)

        a, x, b = draw(p, q), draw(q, r), draw(r, t)
        assert flatten(a @ x @ b) == list(kron(a, b.transpose()).apply(flatten(x)))

    @given(matrices)
    @settings(max_examples=100, deadline=None)
    def test_unflatten_inverts_flatten(self, m):
        assert unflatten(flatten(m), m.rows, m.cols) == m
        with pytest.raises(ValueError):
            unflatten(flatten(m) + [0], m.rows, m.cols)
