"""Chain complexes: construction laws, degreewise pushouts, the
interval example and its total space, and the nerve pipeline."""

import random

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cocat.core import (
    CoCategoryData,
    NotFree,
    Op,
    TypeMismatch,
    check_cocategory,
    classify,
    cokernel_pair,
    find_coinverse,
)
from cocat.abgp import ABGP, group_example_cocategory, transpose_dualize
from cocat.chain import (
    CH,
    ChainComplex,
    ChainMap,
    chain_compose,
    chain_example_cocategory,
    chain_identity,
    free_normalized_chains,
    nerve,
    pipeline,
    pipeline_cocategory,
    pipeline_map,
    total_order,
    total_space,
    truncate_ge2,
    zero_complex,
)
from cocat.fincat import (
    FunctorData,
    arrow_category,
    interval_cocategory,
    terminal_category,
)
from cocat.intmatrix import IntMatrix, Lattice, hstack, kernel_basis, solve, vstack

from test_abgp import (
    coinverse_residual,
    left_kernel_rank,
    probed_system,
    solve_coinverse_equation,
    unimodular,
)


def _m(rows, cols=None):
    return IntMatrix.from_rows(rows, cols=cols if cols is not None else len(rows[0]))


def _random_complex(rng, max_rank=3):
    """A two-boundary complex built so the square is zero by
    construction: the inner boundary is sampled from the kernel."""
    r0 = rng.randint(0, max_rank)
    r1 = rng.randint(0, max_rank)
    r2 = rng.randint(0, max_rank)
    d1 = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(r1)] for _ in range(r0)], cols=r1)
    basis = kernel_basis(d1)
    coeffs = IntMatrix.from_rows(
        [[rng.randint(-2, 2) for _ in range(r2)] for _ in range(basis.cols)], cols=r2)
    d2 = basis @ coeffs
    return ChainComplex((r0, r1, r2), (d1, d2))


class TestComplexes:
    def test_zero_square_enforced(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 1, 1), (_m([[1]]), _m([[1]])))

    def test_shapes_enforced(self):
        with pytest.raises(ValueError):
            ChainComplex((1, 2), (_m([[1]]),))

    def test_random_zero_squares(self):
        rng = random.Random(2)
        for _ in range(100):
            x = _random_complex(rng)
            for d in range(1, x.max_degree):
                assert (x.diff(d) @ x.diff(d + 1)).is_zero()

    def test_chain_map_commutation_enforced(self):
        x = ChainComplex((1, 1), (_m([[1]]),))
        y = ChainComplex((1, 1), (_m([[2]]),))
        with pytest.raises(TypeMismatch):
            ChainMap(x, y, (IntMatrix.identity(1), IntMatrix.identity(1)))
        ChainMap(x, y, (_m([[2]]), IntMatrix.identity(1)))


class TestChainPushout:
    def test_over_zero_is_direct_sum(self):
        z = zero_complex(2)
        x = chain_example_cocategory().q1
        f = ChainMap(z, x, (IntMatrix.zeros(2, 0), IntMatrix.zeros(1, 0)))
        w = CH.pushout(f, f)
        assert w.apex.ranks == (4, 2)

    def test_interval_gluing_ranks(self):
        d = chain_example_cocategory()
        assert d.double.apex.ranks == (3, 2)
        assert d.double.apex.diff(1) == _m([[-1, 0], [1, -1], [0, 1]])

    def test_identity_pushout(self):
        x = chain_example_cocategory().q1
        w = CH.pushout(chain_identity(x), chain_identity(x))
        assert w.apex.ranks == x.ranks

    def test_copair_counit(self):
        d = chain_example_cocategory()
        li = chain_compose(d.i, d.l)
        fold = CH.copair(d.double, li, chain_identity(d.q1))
        assert chain_compose(d.q, fold) == chain_identity(d.q1)
        assert fold.mats[0] == _m([[1, 1, 0], [0, 0, 1]], cols=3)

    @pytest.mark.xfail(raises=NotFree, strict=True,
                       reason="Tietze elimination keeps a relator with no unit entry")
    def test_free_pushout_with_no_unit_relator(self):
        # Z^4 / (3, 2, -3, -2) is free of rank 3, but no coefficient of
        # its one relator is a unit
        x, y = ChainComplex((1,), ()), ChainComplex((2,), ())
        f = ChainMap(x, y, (_m([[3], [2]]),))
        assert CH.pushout(f, f).apex.ranks == (3,)


class TestChainExample:
    def test_axioms(self):
        assert check_cocategory(CH, chain_example_cocategory()).ok

    def test_not_jointly_epi_in_degree_1(self):
        d = chain_example_cocategory()
        status, witness = CH.joint_epi_status((d.l, d.r))
        assert status is False
        assert witness["degree"] == 1
        assert witness["cokernel_invariant_factors"] == (0,)

    def test_coinverse(self):
        d = chain_example_cocategory()
        s = find_coinverse(CH, d)
        assert s is not None
        assert s.mats[1] == _m([[-1]])
        assert s.mats[0] == _m([[0, 1], [1, 0]])

    def test_classification(self):
        cls = classify(CH, chain_example_cocategory())
        assert (cls.is_cocategory, cls.is_copreorder,
                cls.is_cogroupoid, cls.is_coequivalence) == (True, False, True, False)


def _chain_residual(data):
    """Every degree's co-inverse identities, then the boundary squares
    s_{d-1}.diff(d) - diff(d).s_d, at a family of degreewise matrices."""
    q1 = data.q1
    degreewise = [coinverse_residual(*parts) for parts in zip(
        data.double.payload["degrees"], data.l.mats, data.r.mats, data.i.mats, data.q.mats)]

    def residual(mats):
        out = [x for identities, s in zip(degreewise, mats) for x in identities(s)]
        for d in range(1, q1.max_degree + 1):
            m = mats[d - 1] @ q1.diff(d) - q1.diff(d) @ mats[d]
            out.extend(x for row in m.data for x in row)
        return out

    return residual


def _assert_agrees_with_probe(data):
    """``CH.solve_coinverse``, the closed form, equals one integer solve
    of the probed residual over all degrees and squares entry for entry
    (unknowns degree-major, row by row); on a co-category that solve is
    unique."""
    s = CH.solve_coinverse(data)
    probed = solve(*probed_system(_chain_residual(data), data.q1.ranks))
    assert probed is not None
    assert tuple(x for m in s.mats for row in m.data for x in row) == probed


def _left_kernel_ranks(data):
    """Per degree, the rank of the left kernel of A_d in
    ``s_d @ A_d = B_d``."""
    return [left_kernel_rank(*parts) for parts in zip(
        data.double.payload["degrees"], data.l.mats, data.r.mats, data.i.mats, data.q.mats)]


def _zero_cokernel_pair(x):
    """The cokernel pair of 0 -> x: Q1 is x + x, l and r the summands."""
    z = zero_complex(len(x.ranks))
    return cokernel_pair(CH, ChainMap(z, x, tuple(IntMatrix.zeros(n, 0) for n in x.ranks)))


# ranks (0, 1, 2): degree 0 is empty, so Q1 of its cokernel pair is (0, 2, 4)
_EMPTY_BOTTOM = ChainComplex((0, 1, 2), (IntMatrix.zeros(0, 1), _m([[1, -1]])))


class TestCoinverseSystem:
    """The degreewise solve against one solve of the probed system over
    all degrees and squares, and the trivial left kernel it rests on."""

    @pytest.mark.parametrize("build", [
        chain_example_cocategory,
        lambda: _zero_cokernel_pair(
            ChainComplex((1, 2, 1), (_m([[1, 2]]), _m([[2], [-1]])))),
        lambda: _zero_cokernel_pair(ChainComplex((2, 2), (_m([[1, 2], [0, 1]]),))),
        lambda: _zero_cokernel_pair(_EMPTY_BOTTOM),
    ])
    def test_matches_probed_residual(self, build):
        data = build()
        _assert_agrees_with_probe(data)

    def test_random_complexes(self):
        rng = random.Random(5)
        for _ in range(10):
            data = _zero_cokernel_pair(_random_complex(rng, max_rank=2))
            _assert_agrees_with_probe(data)

    def test_left_kernel_trivial_in_every_degree(self):
        for data in (chain_example_cocategory(), pipeline_cocategory(interval_cocategory())):
            assert _left_kernel_ranks(data) == [0, 0]
        rng = random.Random(11)
        for _ in range(10):
            x = _random_complex(rng)
            for data in (_zero_cokernel_pair(x), cokernel_pair(CH, chain_identity(x))):
                assert _left_kernel_ranks(data) == [0, 0, 0]

    def test_empty_degree_coequivalence(self):
        data = _zero_cokernel_pair(_EMPTY_BOTTOM)
        assert data.q1.ranks == (0, 2, 4)
        cls = classify(CH, data)
        assert (cls.is_cocategory, cls.is_copreorder,
                cls.is_cogroupoid, cls.is_coequivalence) == (True, True, True, True)
        assert cls.coinverse is not None
        assert [m.rows for m in cls.coinverse.mats] == [0, 2, 4]


def _block_diagonal(*ms):
    width = sum(m.cols for m in ms)
    rows, offset = [], 0
    for m in ms:
        rows.extend([0] * offset + list(row) + [0] * (width - offset - m.cols) for row in m.data)
        offset += m.cols
    return IntMatrix.from_rows(rows, cols=width)


@st.composite
def coreflexive_pairs(draw):
    """(l, r, i) with i.l = i.r = 1 in chain: Q1 = X + X + Y with
    l = (1, a, 0), r = (1, b, 0) for integers a, b and i the projection
    onto the first X, read through a random change of basis per degree."""
    rng = draw(st.randoms(use_true_random=False))
    x, y = _random_complex(rng, max_rank=2), _random_complex(rng, max_rank=1)
    a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    ops = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(-2, 2)),
                   max_size=4)
    bases = [unimodular(draw(ops), 2 * n + k) for n, k in zip(x.ranks, y.ranks)]
    diffs = tuple(bases[d - 1][0] @ _block_diagonal(x.diff(d), x.diff(d), y.diff(d))
                  @ bases[d][1] for d in range(1, 3))
    q0, q1 = x, ChainComplex(tuple(2 * n + k for n, k in zip(x.ranks, y.ranks)), diffs)

    def leg(c):
        return ChainMap(q0, q1, tuple(u @ vstack(IntMatrix.identity(n),
                                                 _m([[c * (p == j) for j in range(n)]
                                                     for p in range(n)], cols=n),
                                                 IntMatrix.zeros(k, n))
                                      for (u, _), n, k in zip(bases, x.ranks, y.ranks)))

    i = ChainMap(q1, q0, tuple(hstack(IntMatrix.identity(n), IntMatrix.zeros(n, n + k)) @ u_inv
                               for (_, u_inv), n, k in zip(bases, x.ranks, y.ranks)))
    return leg(a), leg(b), i


class TestCoreflexivePairs:
    """Every co-reflexive pair carries one co-category, with the forced
    q = nu1 + nu2 - nu1.r.i, and it is a co-groupoid; it is a co-preorder
    exactly when [l_d | r_d] has a trivial cokernel in every degree."""

    @given(coreflexive_pairs())
    @settings(max_examples=40, deadline=None)
    def test_cogroupoid_by_the_closed_form(self, lri):
        l, r, i = lri
        q1 = l.cod
        try:
            double = CH.pushout(r, l)
            n1, n2 = double.injections
            q = ChainMap(q1, double.apex, tuple(m1 + m2 - m1 @ rd @ id_ for m1, m2, rd, id_ in zip(
                n1.mats, n2.mats, r.mats, i.mats)))
            data = CoCategoryData(l.dom, q1, l, r, i, q, double)
            # the checker builds the triple pushout
            assert check_cocategory(CH, data).ok
        except NotFree:
            # a free pushout that keeps a relator with no unit entry, as
            # in TestChainPushout.test_free_pushout_with_no_unit_relator
            reject()
        cls = classify(CH, data)
        covered = all(
            all(tuple(int(p == j) for p in range(n)) in Lattice(hstack(ld, rd))
                for j in range(n))
            for n, ld, rd in zip(q1.ranks, l.mats, r.mats))
        assert (cls.is_cogroupoid, cls.is_copreorder, cls.is_coequivalence) == \
            (True, covered, covered)
        s = cls.coinverse
        assert chain_compose(s, s) == chain_identity(q1)
        for parts, sd in zip(zip(double.payload["degrees"], l.mats, r.mats, i.mats, q.mats),
                             s.mats):
            assert solve_coinverse_equation(*parts) == sd


def _from_zero(x: ChainComplex) -> ChainMap:
    z = zero_complex(x.max_degree + 1)
    return ChainMap(z, x, tuple(IntMatrix.zeros(r, 0) for r in x.ranks))


# complexes of a few rank shapes, degree 0 first
_SWEEP = [
    ChainComplex((1, 1), (_m([[0]]),)),
    ChainComplex((2, 1), (_m([[1], [1]]),)),
    ChainComplex((1, 2), (_m([[1, -1]]),)),
    ChainComplex((2, 2), (_m([[1, 0], [-1, 1]]),)),
    ChainComplex((1, 1, 1), (_m([[0]]), _m([[1]]))),
    ChainComplex((2, 2, 1), (_m([[1, 0], [1, 0]]), _m([[0], [1]]))),
    ChainComplex((0, 1, 2), (IntMatrix.zeros(0, 1), _m([[1, -1]]))),
]


class TestTotalSpace:
    def test_interleaved_order(self):
        x = chain_example_cocategory().q1
        assert total_order(x) == [(0, 0), (1, 0), (0, 1)]  # v0, e1, v1

    def test_entrywise_match(self):
        total = total_space(chain_example_cocategory())
        grp = group_example_cocategory()
        assert total.l.matrix == grp.l.matrix
        assert total.r.matrix == grp.r.matrix
        assert total.i.matrix == grp.i.matrix
        assert total.q.matrix == grp.q.matrix
        assert total.double.injections[0].matrix == grp.double.injections[0].matrix
        assert total.double.injections[1].matrix == grp.double.injections[1].matrix

    def test_total_is_cocategory(self):
        assert check_cocategory(ABGP, total_space(chain_example_cocategory())).ok

    def test_trivial_chain(self):
        from cocat.core import cokernel_pair

        point = ChainComplex((1, 0), (IntMatrix.zeros(1, 0),))
        data = cokernel_pair(CH, chain_identity(point))
        total = total_space(data)
        assert total.q1.rank == 1
        assert check_cocategory(ABGP, total).ok

    def test_dual_total_is_internal_category(self):
        icat = transpose_dualize(total_space(chain_example_cocategory()))
        assert check_cocategory(Op(ABGP), icat).ok

    def test_cokernel_pair_of_zero_into_interval(self):
        # the summed pushout's basis is not the interleaved one, so q must be
        # read through the comparison to come out a co-category
        data = cokernel_pair(CH, _from_zero(chain_example_cocategory().q1))
        assert check_cocategory(ABGP, total_space(data)).ok

    @pytest.mark.parametrize("x", _SWEEP, ids=lambda x: "ranks" + "-".join(map(str, x.ranks)))
    @pytest.mark.parametrize("zero", [True, False], ids=["from-zero", "identity"])
    def test_cokernel_pairs_sweep(self, x, zero):
        m = _from_zero(x) if zero else chain_identity(x)
        assert check_cocategory(ABGP, total_space(cokernel_pair(CH, m))).ok


class TestNerve:
    def test_invalid_category_rejected(self):
        import pytest as _pytest
        from cocat.core import NonComposable
        from cocat.fincat import FinCategory

        bad = FinCategory(2, (0, 1, 0), (0, 1, 1), (0, 1), (
            (0, None, 0),
            (None, 1, None),
            (None, 2, None),
        ))
        with _pytest.raises(NonComposable):
            nerve(bad)

    def test_terminal(self):
        n = nerve(terminal_category())
        assert [n.count(k) for k in range(4)] == [1, 0, 0, 0]

    def test_arrow(self):
        n = nerve(arrow_category())
        assert [n.count(k) for k in range(4)] == [2, 1, 0, 0]
        complex_ = free_normalized_chains(n)
        assert complex_.ranks[:2] == (2, 1)
        assert complex_.diff(1) == _m([[-1], [1]])

    def test_glued_interval(self):
        glued = interval_cocategory().double.apex
        n = nerve(glued)
        # exactly one nondegenerate 2-simplex: the composable pair
        assert [n.count(k) for k in range(4)] == [3, 3, 1, 0]
        complex_ = free_normalized_chains(n)
        assert complex_.diff(2).col(0) == (1, 1, -1)  # faces a, b minus composite

    def test_degenerate_faces_contribute_zero(self):
        # a category with an inverse pair: composites collapse to the
        # identities, so middle faces of the 2-chains vanish
        from cocat.fincat import FinCategory

        iso = FinCategory(
            2, (0, 1, 0, 1), (0, 1, 1, 0), (0, 1),
            (
                (0, None, 2, None),
                (None, 1, None, 3),
                (None, 2, None, 0),
                (3, None, 1, None),
            ),
        )
        n = nerve(iso)
        assert n.count(2) == 2  # (f, g) and (g, f)
        complex_ = free_normalized_chains(n)
        assert complex_.diff(2).col(0) == (1, 1)  # only the outer faces


class TestTruncation:
    def test_kills_high_degrees(self):
        glued = interval_cocategory().double.apex
        out = truncate_ge2(free_normalized_chains(nerve(glued)))
        assert out.ranks == (3, 2)

    def test_composite_identified_with_sum(self):
        from cocat.chain import _truncation_data

        glued = interval_cocategory().double.apex
        full = free_normalized_chains(nerve(glued))
        _, proj, sect = _truncation_data(full)
        pa, pb, pba = proj.col(0), proj.col(1), proj.col(2)
        assert tuple(x + y for x, y in zip(pa, pb)) == pba
        assert (proj @ sect) == IntMatrix.identity(2)

    def test_torsion_detected(self):
        x = ChainComplex((0, 1, 1), (IntMatrix.zeros(0, 1), _m([[2]])))
        with pytest.raises(NotFree):
            truncate_ge2(x)


class TestPipeline:
    def test_terminal(self):
        assert pipeline(terminal_category()).ranks == (1, 0)

    def test_arrow(self):
        out = pipeline(arrow_category())
        assert out.ranks == (2, 1)
        assert out.diff(1) == _m([[-1], [1]])

    def test_functoriality(self):
        iv = interval_cocategory()
        composite = pipeline_map(FunctorData(iv.q0, iv.q1, iv.l.obj_map, iv.l.mor_map))
        n1 = iv.double.injections[0]
        lhs = pipeline_map(iv.l)
        assert chain_compose(lhs, pipeline_map(n1)) == pipeline_map(
            type(iv.l)(iv.q0, n1.cod,
                       tuple(n1.obj_map[x] for x in iv.l.obj_map),
                       tuple(n1.mor_map[m] for m in iv.l.mor_map)))
        assert composite == lhs

    def test_interval_lands_on_chain_example(self):
        out = pipeline_cocategory(interval_cocategory())
        example = chain_example_cocategory()
        assert check_cocategory(CH, out).ok
        assert out == example

    def test_pipeline_classification(self):
        out = pipeline_cocategory(interval_cocategory())
        cls = classify(CH, out)
        assert cls.is_cocategory and not cls.is_copreorder
