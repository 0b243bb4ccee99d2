"""Group presentations, pushout/pullback contracts, the explicit
counterexample with its frozen matrices, and transpose dualisation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocat.core import (
    CoCategoryData,
    CoconeMismatch,
    IllFormedPushout,
    NotFree,
    PushoutWitness,
    TypeMismatch,
    check_cocat_morphism,
    check_cocategory,
    classify,
    cokernel_pair,
    find_coinverse,
)
from cocat.abgp import (
    ABGP,
    AbMap,
    FgAbGroup,
    EXAMPLE_I,
    EXAMPLE_L,
    EXAMPLE_Q,
    EXAMPLE_R,
    EXAMPLE_S,
    ab_compose,
    ab_equal,
    ab_identity,
    check_internal_category,
    coinverse_system,
    free_group,
    group_example_cocategory,
    transpose_dualize,
    transpose_internal,
)
from cocat.intmatrix import (
    IntMatrix,
    Lattice,
    cokernel,
    hstack,
    kernel_basis,
    vstack,
)


def _m(rows):
    return IntMatrix.from_rows(rows, cols=len(rows[0]) if rows else 0)


def _rand_matrix(rng, rows, cols, bound=3):
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def _valid_map_out(rng, group, target_rank, bound=2):
    # rows must annihilate every relator, i.e. lie in the kernel of the
    # transposed relation matrix
    basis = kernel_basis(group.relations.transpose())
    rows = []
    for _ in range(target_rank):
        coeffs = [rng.randint(-bound, bound) for _ in range(basis.cols)]
        rows.append(list(basis.apply(coeffs)) if basis.cols else [0] * group.rank)
    return IntMatrix.from_rows(rows, cols=group.rank)


def probed_system(residual, sizes):
    """The (matrix, rhs) of a residual affine in square matrices of the
    given sizes, read off by evaluating it at the zero matrices and at
    each unit matrix in turn; an oracle for the written-down systems."""
    zero = [IntMatrix.zeros(n, n) for n in sizes]
    base = residual(zero)
    columns = []
    for k, n in enumerate(sizes):
        for p in range(n):
            for c in range(n):
                unit = list(zero)
                unit[k] = IntMatrix.from_rows(
                    [[int((a, b) == (p, c)) for b in range(n)] for a in range(n)], cols=n)
                columns.append([x - y for x, y in zip(residual(unit), base)])
    return IntMatrix.from_cols(columns, rows=len(base)), [-x for x in base]


def coinverse_residual(double, l, r, i, q):
    """The four co-inverse identities evaluated at s, flattened row by
    row, with [u, v] read off the columns the witness kept."""
    eye = IntMatrix.identity(l.rows)

    def copair(u, v):
        return hstack(u, v).select_cols(double.payload["kept"])

    def residual(s):
        return [x for m in (s @ l - r, s @ r - l,
                            copair(eye, s) @ q - l @ i,
                            copair(s, eye) @ q - r @ i)
                for row in m.data for x in row]

    return residual


def _assert_system_matches_probe(data):
    parts = (data.double, data.l.matrix, data.r.matrix, data.i.matrix, data.q.matrix)
    residual = coinverse_residual(*parts)
    probed = probed_system(lambda mats: residual(mats[0]), [data.q1.rank])
    assert coinverse_system(*parts) == probed


class TestGroupsAndMaps:
    def test_presentation_canonicalised(self):
        a = FgAbGroup(2, _m([[2, 4], [0, 0]]))
        b = FgAbGroup(2, _m([[2, 0], [0, 0]]))
        assert a == b
        assert FgAbGroup(2) != a

    def test_element_equality(self):
        z_mod_3 = FgAbGroup(1, _m([[3]]))
        assert z_mod_3.element_equal((4,), (1,))
        assert not z_mod_3.element_equal((1,), (0,))

    def test_well_definedness_enforced(self):
        z_mod_2 = FgAbGroup(1, _m([[2]]))
        z = free_group(1)
        AbMap(z_mod_2, z_mod_2, _m([[3]]))  # 3*2 = 6 is in 2Z
        with pytest.raises(TypeMismatch):
            AbMap(z_mod_2, z, _m([[1]]))  # 2 not in the trivial lattice

    def test_equality_mod_relations(self):
        z_mod_2 = FgAbGroup(1, _m([[2]]))
        z = free_group(1)
        f = AbMap(z, z_mod_2, _m([[1]]))
        g = AbMap(z, z_mod_2, _m([[3]]))
        assert ab_equal(f, g)
        assert not ab_equal(f, AbMap(z, z_mod_2, _m([[0]])))

    def test_composition_is_matrix_product(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, c, d = (rng.randint(1, 3) for _ in range(4))
            f = AbMap(free_group(a), free_group(b), _rand_matrix(rng, b, a))
            g = AbMap(free_group(b), free_group(c), _rand_matrix(rng, c, b))
            h = AbMap(free_group(c), free_group(d), _rand_matrix(rng, d, c))
            assert ab_compose(ab_compose(f, g), h) == ab_compose(f, ab_compose(g, h))
            assert ab_compose(f, g).matrix == g.matrix @ f.matrix


class TestAbEqual:
    """Free codomains compare matrices; torsion codomains compare
    modulo the relation lattice."""

    def test_free_codomain_is_matrix_equality(self):
        z2 = free_group(2)
        f = AbMap(z2, z2, _m([[1, 2], [0, -1]]))
        assert ab_equal(f, AbMap(z2, z2, _m([[1, 2], [0, -1]])))
        assert not ab_equal(f, AbMap(z2, z2, _m([[1, 2], [0, 1]])))
        z_mod_2 = FgAbGroup(1, _m([[2]]))
        zero = AbMap(z_mod_2, z2, _m([[0], [0]]))
        assert ab_equal(zero, AbMap(z_mod_2, z2, IntMatrix.zeros(2, 1)))

    def test_torsion_codomain_matrices_differing_by_two(self):
        z_mod_2 = FgAbGroup(1, _m([[2]]))
        z2 = free_group(2)
        f = AbMap(z2, z_mod_2, _m([[1, 0]]))
        assert ab_equal(f, AbMap(z2, z_mod_2, _m([[3, -2]])))
        assert not ab_equal(f, AbMap(z2, z_mod_2, _m([[1, 1]])))

    @given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.booleans(),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_lattice_membership(self, n, k, nrel, shift, rng):
        cod = FgAbGroup(n, _rand_matrix(rng, n, nrel))
        dom = free_group(k)
        a = _rand_matrix(rng, n, k)
        # half the time move a by relators, so that equal pairs are drawn
        b = a + cod.relations @ _rand_matrix(rng, cod.relations.cols, k) if shift \
            else _rand_matrix(rng, n, k, bound=1)
        diff = [[a.data[i][j] - b.data[i][j] for i in range(n)] for j in range(k)]
        assert ab_equal(AbMap(dom, cod, a), AbMap(dom, cod, b)) == all(
            col in Lattice(cod.relations) for col in diff)


class TestPushout:
    def test_coproduct_of_lines(self):
        zero = free_group(0)
        z = free_group(1)
        f = AbMap(zero, z, IntMatrix.zeros(1, 0))
        w = ABGP.pushout(f, f)
        assert w.apex == free_group(2)

    def test_interval_span_gives_rank_5(self):
        q0, q1 = free_group(1), free_group(3)
        l = AbMap(q0, q1, EXAMPLE_L)
        r = AbMap(q0, q1, EXAMPLE_R)
        w = ABGP.pushout(r, l)
        assert w.apex == free_group(5)
        n1, n2 = w.injections
        # first copy keeps its basis; second lands on (v1, e2, v2)
        assert n1.matrix == _m([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert n2.matrix == _m([[0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_torsion_pushout(self):
        z = free_group(1)
        double = AbMap(z, z, _m([[2]]))
        to_zero = AbMap(z, free_group(0), IntMatrix.zeros(0, 1))
        w = ABGP.pushout(double, to_zero)
        assert w.apex == FgAbGroup(1, _m([[2]]))  # Z/2 survives simplification

    def test_universal_property(self):
        # compatible cocones factor, uniquely because the injections
        # are jointly epi (trivial cokernel of the stacked matrices)
        rng = random.Random(17)
        for _ in range(40):
            s, a, b, x = (rng.randint(0, 3) for _ in range(4))
            f = AbMap(free_group(s), free_group(a), _rand_matrix(rng, a, s))
            g = AbMap(free_group(s), free_group(b), _rand_matrix(rng, b, s))
            w = ABGP.pushout(f, g)
            assert ab_equal(ab_compose(f, w.injections[0]),
                            ab_compose(g, w.injections[1]))
            probe = AbMap(w.apex, free_group(x),
                          _valid_map_out(rng, w.apex, x))
            u = ab_compose(w.injections[0], probe)
            v = ab_compose(w.injections[1], probe)
            again = ABGP.copair(w, u, v)
            assert ab_equal(again, probe)
            stacked = hstack(w.injections[0].matrix, w.injections[1].matrix,
                             w.apex.relations)
            assert cokernel(stacked) == ()

    def test_incompatible_cocone_rejected(self):
        z = free_group(1)
        f = ab_identity(z)
        w = ABGP.pushout(f, f)
        u = AbMap(z, z, _m([[1]]))
        v = AbMap(z, z, _m([[2]]))
        with pytest.raises(CoconeMismatch):
            ABGP.copair(w, u, v)


class TestPullback:
    def test_identity_cospan(self):
        z = free_group(1)
        p, p1, p2 = ABGP.pullback(ab_identity(z), ab_identity(z))
        assert p == z
        assert p1.matrix == p2.matrix == IntMatrix.identity(1)

    def test_kernel_shape(self):
        rng = random.Random(23)
        for _ in range(30):
            a, b, c = (rng.randint(0, 3) for _ in range(3))
            f = AbMap(free_group(a), free_group(c), _rand_matrix(rng, c, a))
            g = AbMap(free_group(b), free_group(c), _rand_matrix(rng, c, b))
            p, p1, p2 = ABGP.pullback(f, g)
            assert ab_equal(ab_compose(p1, f), ab_compose(p2, g))
            # the projected kernel really is everything: membership of
            # random solutions
            stacked = hstack(f.matrix, -g.matrix)
            for col in range(kernel_basis(stacked).cols):
                vec = kernel_basis(stacked).col(col)
                combined = vstack(p1.matrix, p2.matrix)
                assert vec in Lattice(combined)

    def test_presented_source_rejected(self):
        z_mod_2 = FgAbGroup(1, _m([[2]]))
        f = AbMap(z_mod_2, z_mod_2, _m([[1]]))
        with pytest.raises(NotFree):
            ABGP.pullback(f, f)


class TestGroupExample:
    def test_matrices_as_printed(self):
        data = group_example_cocategory()
        assert data.l.matrix == EXAMPLE_L
        assert data.r.matrix == EXAMPLE_R
        assert data.i.matrix == EXAMPLE_I
        assert data.q.matrix == EXAMPLE_Q
        assert data.q0 == free_group(1)
        assert data.q1 == free_group(3)
        assert data.double.apex == free_group(5)

    def test_axioms_pass(self):
        assert check_cocategory(ABGP, group_example_cocategory()).ok

    def test_not_jointly_epi(self):
        data = group_example_cocategory()
        status, witness = ABGP.joint_epi_status((data.l, data.r))
        assert status is False
        assert witness["cokernel_invariant_factors"] == (0,)
        # independent route: the edge generator is not in the span
        stacked = hstack(data.l.matrix, data.r.matrix)
        assert (0, 1, 0) not in Lattice(stacked)
        assert (1, 0, 0) in Lattice(stacked)

    def test_uncovered_double_apex_rejected(self):
        d = group_example_cocategory()
        # the double's injections and q land in an apex with one extra
        # free generator that nothing hits
        bigger = free_group(d.double.apex.rank + 1)

        def widen(f):
            return AbMap(f.dom, bigger, vstack(f.matrix, IntMatrix.zeros(1, f.matrix.cols)))

        fake = PushoutWitness(apex=bigger, injections=tuple(map(widen, d.double.injections)),
                              legs=d.double.legs, payload=d.double.payload)
        with pytest.raises(IllFormedPushout, match="double witness: injections do not cover"):
            check_cocategory(ABGP, CoCategoryData(
                d.q0, d.q1, d.l, d.r, d.i, widen(d.q), fake, d.triple))

    def test_coinverse_solved_and_unique(self):
        data = group_example_cocategory()
        s = find_coinverse(ABGP, data)
        assert s is not None and s.matrix == EXAMPLE_S
        # uniqueness: the homogeneous constraint system has no kernel,
        # checked through the first identity alone needing full columns
        sl = s.matrix @ data.l.matrix
        assert sl == data.r.matrix
        assert s.matrix @ data.r.matrix == data.l.matrix
        # hand-made copairing on the surviving columns (v0 e1 v1 e2 v2)
        one_s = hstack(IntMatrix.identity(3), s.matrix).select_cols((0, 1, 2, 4, 5))
        assert one_s @ data.q.matrix == data.l.matrix @ data.i.matrix
        s_one = hstack(s.matrix, IntMatrix.identity(3)).select_cols((0, 1, 2, 4, 5))
        assert s_one @ data.q.matrix == data.r.matrix @ data.i.matrix

    def test_classification(self):
        cls = classify(ABGP, group_example_cocategory())
        assert cls.is_cocategory is True
        assert cls.is_copreorder is False
        assert cls.is_cogroupoid is True
        assert cls.is_coequivalence is False

    def test_torsion_cogroupoid_reason_names_the_solver(self):
        # the cokernel pair of 2: Z -> Z has Z/2 torsion in Q1, so the
        # direct solver gives up; its reason must survive the fallback
        z = free_group(1)
        cls = classify(ABGP, cokernel_pair(ABGP, AbMap(z, z, _m([[2]]))))
        assert cls.is_cogroupoid is None
        assert "co-inverse solving needs free groups" in cls.witnesses["cogroupoid"]

    def test_identity_is_a_morphism(self):
        data = group_example_cocategory()
        rep = check_cocat_morphism(ABGP, data, data,
                                   ab_identity(data.q0), ab_identity(data.q1))
        assert rep.ok


class TestCoinverseSystem:
    def test_group_example(self):
        _assert_system_matches_probe(group_example_cocategory())

    @given(st.integers(0, 2).flatmap(lambda k: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k),
                           min_size=n, max_size=n).map(
            lambda rows: IntMatrix.from_rows(rows, cols=k)))))
    @settings(max_examples=40, deadline=None)
    def test_cokernel_pairs_of_free_groups(self, m):
        # Z^k -> Z^n pushed out along itself; torsion in Q1 does not
        # matter to the system, only to the solver, which must find the
        # swap of the two summands whenever everything is free
        data = cokernel_pair(ABGP, AbMap(free_group(m.cols), free_group(m.rows), m))
        _assert_system_matches_probe(data)
        if data.q1.is_free and data.double.apex.is_free:
            assert ABGP.solve_coinverse(data) is not None


class TestJointEpiAgainstBruteForce:
    def test_matches_generator_membership(self):
        # jointly epi iff every standard generator lies in the span of
        # the stacked columns plus relations: two decision routes
        rng = random.Random(31)
        for _ in range(60):
            k = rng.randint(1, 3)
            cod = free_group(k)
            maps = []
            for _ in range(2):
                cols = rng.randint(0, 2)
                maps.append(AbMap(free_group(cols), cod, _rand_matrix(rng, k, cols)))
            status, _ = ABGP.joint_epi_status(maps)
            stacked = hstack(*(m.matrix for m in maps))
            brute = all(
                tuple(1 if i == j else 0 for i in range(k)) in Lattice(stacked)
                for j in range(k))
            assert status == brute


class TestTranspose:
    def test_internal_axioms(self):
        icat = transpose_dualize(group_example_cocategory())
        report = check_internal_category(icat)
        assert report.ok, report.failures

    def test_trivial_transpose(self):
        z = free_group(1)
        from cocat.core import cokernel_pair
        data = cokernel_pair(ABGP, ab_identity(z))
        icat = transpose_dualize(data)
        assert check_internal_category(icat).ok

    def test_involution_entrywise(self):
        data = group_example_cocategory()
        back = transpose_internal(transpose_dualize(data))
        assert back.l.matrix == data.l.matrix
        assert back.r.matrix == data.r.matrix
        assert back.i.matrix == data.i.matrix
        assert back.q.matrix == data.q.matrix

    def test_presented_group_rejected(self):
        from cocat.core import cokernel_pair

        z_mod_2 = FgAbGroup(1, _m([[2]]))
        data = cokernel_pair(ABGP, ab_identity(z_mod_2))
        assert check_cocategory(ABGP, data).ok
        with pytest.raises(NotFree):
            transpose_dualize(data)

    def test_broken_internal_category_detected(self):
        icat = transpose_dualize(group_example_cocategory())
        from cocat.core import InternalCategoryData

        bad_unit = AbMap(icat.c0, icat.c1, _m([[1], [1], [1]]))
        broken = InternalCategoryData(icat.c0, icat.c1, icat.src, icat.tgt,
                                      bad_unit, icat.comp, icat.double, icat.triple)
        report = check_internal_category(broken)
        assert not report.ok
        assert set(report.failures) == {"left-unit", "right-unit"}
