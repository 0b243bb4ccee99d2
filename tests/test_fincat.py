"""Finite categories: law validation, functor enumeration, word-based
pushouts, the interval, the forced co-inverse search, and the joint-epi
counterexample search."""

import pytest

from cocat.core import (
    ClosureExceeded,
    CoCategoryData,
    NonComposable,
    TypeMismatch,
    UnsupportedCapability,
    check_cocat_morphism,
    check_cocategory,
    classify,
    coinverse_candidates,
    cokernel_pair,
    find_coinverse,
)
from cocat.fincat import (
    CAT,
    JOINT_EPI_BOUND,
    FinCategory,
    FunctorData,
    arrow_category,
    check_category,
    discrete_category,
    enumerate_functors,
    functor_compose,
    functor_identity,
    interval_cocategory,
    joint_epi_counterexample_for_maps,
    pushout_cats,
    terminal_category,
    _complete_tables,
    _enumerate_categories,
)


class TestValidation:
    def test_builtins_validate(self):
        check_category(terminal_category())
        check_category(arrow_category())
        check_category(discrete_category(3))

    def test_bad_identity_law(self):
        # parallel a, b: 0 -> 1, and id0 then a (or a then id1) is b, so
        # the composite has the right endpoints and only the law fails
        for (f, g), side in (((0, 2), "left"), ((2, 1), "right")):
            table = [
                [0, None, 2, 3],
                [None, 1, None, None],
                [None, 2, None, None],
                [None, 3, None, None],
            ]
            table[f][g] = 3
            c = FinCategory(2, (0, 1, 0, 0), (0, 1, 1, 1), (0, 1), tuple(map(tuple, table)))
            with pytest.raises(NonComposable, match=f"{side} identity law fails at 2"):
                check_category(c)

    def test_wrong_endpoints(self):
        # id0 then a is set to id0, an arrow 0 -> 0 where 0 -> 1 is due
        table = (
            (0, None, 0),
            (None, 1, None),
            (None, 2, None),
        )
        c = FinCategory(2, (0, 1, 0), (0, 1, 1), (0, 1), table)
        with pytest.raises(NonComposable, match=r"composite of \(0, 2\) has wrong endpoints"):
            check_category(c)

    def test_missing_composite(self):
        table = (
            (0, None, 2),
            (None, 1, None),
            (None, None, None),  # a then id1 missing
        )
        c = FinCategory(2, (0, 1, 0), (0, 1, 1), (0, 1), table)
        with pytest.raises(NonComposable):
            check_category(c)

    def test_shape_errors_raise_on_construction(self):
        with pytest.raises(NonComposable):
            FinCategory(1, (0, 0), (0,), (0,), ((0,),))


class TestFunctors:
    def test_endofunctors_of_arrow(self):
        arrow = arrow_category()
        endos = enumerate_functors(arrow, arrow)
        assert len(endos) == 3
        # the identity and the two constant functors, nothing else
        images = {f.obj_map for f in endos}
        assert images == {(0, 1), (0, 0), (1, 1)}

    def test_from_terminal_one_per_object(self):
        for c in (arrow_category(), discrete_category(3)):
            assert len(enumerate_functors(terminal_category(), c)) == c.n_objects

    def test_to_terminal_exactly_one(self):
        for c in (arrow_category(), discrete_category(3), terminal_category()):
            assert len(enumerate_functors(c, terminal_category())) == 1

    def test_count_stable_under_object_renaming(self):
        arrow = arrow_category()
        # same category with the two objects swapped
        swapped = FinCategory(2, (1, 0, 1), (1, 0, 0), (1, 0), (
            (0, None, 2),
            (None, 1, None),
            (None, 2, None),
        ))
        check_category(swapped)
        assert len(enumerate_functors(arrow, arrow)) == len(
            enumerate_functors(swapped, swapped))

    def test_functoriality_enforced(self):
        arrow = arrow_category()
        with pytest.raises(TypeMismatch):
            FunctorData(arrow, arrow, (0, 1), (0, 1, 0))  # arrow sent to id0

    @pytest.mark.parametrize("obj_map, mor_map", [((5,), (9,)), ((0,), (9,))])
    def test_out_of_range_assignment_rejected(self, obj_map, mor_map):
        with pytest.raises(TypeMismatch, match="out of range"):
            FunctorData(terminal_category(), arrow_category(), obj_map, mor_map)


class TestPushouts:
    def test_arrow_glued_end_to_start(self):
        iv = interval_cocategory()
        glued = iv.double.apex
        assert glued.n_objects == 3
        assert glued.n_morphisms == 6
        check_category(glued)

    def test_disjoint_union_over_empty(self):
        empty = discrete_category(0)
        arrow = arrow_category()
        f = FunctorData(empty, arrow, (), ())
        w = pushout_cats(f, f)
        assert w.apex.n_objects == 4
        assert w.apex.n_morphisms == 6
        check_category(w.apex)

    def test_loop_closure_exceeded(self):
        s2 = discrete_category(2)
        arrow = arrow_category()
        point = terminal_category()
        f = FunctorData(s2, arrow, (0, 1), (0, 1))
        g = FunctorData(s2, point, (0, 0), (0, 0))
        with pytest.raises(ClosureExceeded):
            pushout_cats(f, g)

    def test_non_discrete_span_rejected(self):
        arrow = arrow_category()
        f = functor_identity(arrow)
        with pytest.raises(UnsupportedCapability):
            pushout_cats(f, f)

    def test_copair_universal(self):
        # collapsing either half of the glued interval recovers the
        # identity on the arrow
        iv = interval_cocategory()
        id1 = functor_identity(iv.q1)
        li = functor_compose(iv.i, iv.l)
        fold = CAT.copair(iv.double, li, id1)
        assert functor_compose(iv.q, fold) == id1
        fold2 = CAT.copair(iv.double, id1, functor_compose(iv.i, iv.r))
        assert functor_compose(iv.q, fold2) == id1


class TestInterval:
    def test_axioms(self):
        assert check_cocategory(CAT, interval_cocategory()).ok

    def test_sections(self):
        iv = interval_cocategory()
        assert functor_compose(iv.l, iv.i) == functor_identity(iv.q0)
        assert functor_compose(iv.r, iv.i) == functor_identity(iv.q0)

    def test_no_coinverse_after_three_candidates(self):
        iv = interval_cocategory()
        assert find_coinverse(CAT, iv) is None
        solutions, searched = coinverse_candidates(CAT, iv)
        assert searched == 3
        assert solutions == []

    def test_classification(self):
        cls = classify(CAT, interval_cocategory())
        assert cls.is_cocategory is True
        assert cls.is_copreorder is False  # refuted by the searcher
        assert cls.is_cogroupoid is False
        assert cls.is_coequivalence is False

    def test_identity_morphism(self):
        iv = interval_cocategory()
        rep = check_cocat_morphism(CAT, iv, iv,
                                   functor_identity(iv.q0), functor_identity(iv.q1))
        assert rep.ok


# cokernel pairs of discrete S into discrete C, as (|C|, |S|)
DISCRETE_SHAPES = ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4))


def discrete_cokernel(c: int, s: int):
    """The cokernel pair of discrete(s) into discrete(c) on its first s
    objects."""
    big = discrete_category(c)
    m = FunctorData(discrete_category(s), big, tuple(range(s)),
                    tuple(big.identities[:s]))
    return cokernel_pair(CAT, m)


def walking_iso_interval():
    """The interval built on the walking isomorphism 0 <-> 1: l = 0,
    r = 1, and q sending each arrow to its composite across two glued
    copies, as :func:`interval_cocategory` does."""
    point = terminal_category()
    iso = FinCategory(2, (0, 1, 0, 1), (0, 1, 1, 0), (0, 1), (
        (0, None, 2, None),
        (None, 1, None, 3),
        (None, 2, None, 0),
        (3, None, 1, None),
    ))
    l = FunctorData(point, iso, (0,), (0,))
    r = FunctorData(point, iso, (1,), (1,))
    i = FunctorData(iso, point, (0, 0), (0, 0, 0, 0))
    double = CAT.pushout(r, l)
    n1, n2 = double.injections
    glued = double.apex
    ends = (n1.obj_map[0], n2.obj_map[1])
    q = FunctorData(iso, glued, ends, (
        glued.identities[ends[0]],
        glued.identities[ends[1]],
        glued.table[n1.mor_map[2]][n2.mor_map[2]],
        glued.table[n2.mor_map[3]][n1.mor_map[3]],
    ))
    return CoCategoryData(q0=point, q1=iso, l=l, r=r, i=i, q=q, double=double)


class TestSolveCoinverse:
    """The forced search agrees with exhaustive enumeration: an s exists
    for both or neither, and the solver's s is the first candidate."""

    def _agree(self, data):
        solutions, searched = coinverse_candidates(CAT, data)
        s = CAT.solve_coinverse(data)
        assert s == (solutions[0] if solutions else None)
        return s, searched

    def test_interval(self):
        assert self._agree(interval_cocategory()) == (None, 3)

    @pytest.mark.parametrize("c, s", DISCRETE_SHAPES)
    def test_discrete_cokernel_pairs(self, c, s):
        data = discrete_cokernel(c, s)
        assert check_cocategory(CAT, data).ok
        found, _ = self._agree(data)
        assert found is not None

    def test_walking_iso_interval(self):
        data = walking_iso_interval()
        assert check_cocategory(CAT, data).ok
        found, searched = self._agree(data)
        assert searched == 4
        assert found.obj_map == (1, 0) and found.mor_map == (1, 0, 3, 2)
        cls = classify(CAT, data)
        assert (cls.is_cocategory, cls.is_copreorder, cls.is_cogroupoid,
                cls.is_coequivalence) == (True, False, True, False)

    def test_object_conflict_has_no_coinverse(self):
        # s.l = r sends both objects to 0, but s.r = l needs s(0) = 1
        q = discrete_category(2)
        l = FunctorData(q, q, (0, 1), (0, 1))
        r = FunctorData(q, q, (0, 0), (0, 0))
        double = CAT.pushout(r, l)
        data = CoCategoryData(q, q, l, r, functor_identity(q), double.injections[0], double)
        assert self._agree(data) == (None, 4)

    def test_legs_missing_objects_are_undecided(self):
        # l = r = object 0 of the arrow: s is forced on it alone
        iv = interval_cocategory()
        data = CoCategoryData(iv.q0, iv.q1, iv.l, iv.l, iv.i, iv.q, iv.double)
        with pytest.raises(UnsupportedCapability, match="not forced"):
            CAT.solve_coinverse(data)
        with pytest.raises(UnsupportedCapability):
            find_coinverse(CAT, data)


class TestJointEpiSearch:
    def test_interval_witness_found(self):
        iv = interval_cocategory()
        status, info = CAT.joint_epi_status((iv.l, iv.r))
        assert status is False
        first, second = info["functors"]
        assert info["category"].n_morphisms <= JOINT_EPI_BOUND
        assert first != second
        assert functor_compose(iv.l, first) == functor_compose(iv.l, second)
        assert functor_compose(iv.r, first) == functor_compose(iv.r, second)

    def test_trivial_unknown_at_small_bound(self):
        data = cokernel_pair(CAT, functor_identity(terminal_category()))
        assert joint_epi_counterexample_for_maps([data.l, data.r]) is None
        # l = r = identity: the images generate Q1, so this is decided
        status, info = CAT.joint_epi_status((data.l, data.r))
        assert status is True
        assert info is None

    def test_epi_not_generated_unknown(self):
        # the arrow category into the walking isomorphism is epi (the
        # inverse is forced), but its image does not generate the inverse
        iso = FinCategory(2, (0, 1, 0, 1), (0, 1, 1, 0), (0, 1), (
            (0, None, 2, None),
            (None, 1, None, 3),
            (None, 2, None, 0),
            (3, None, 1, None),
        ))
        check_category(iso)
        inclusion = FunctorData(arrow_category(), iso, (0, 1), (0, 1, 2))
        status, info = CAT.joint_epi_status((inclusion,))
        assert status is None
        assert "searched_morphisms_up_to" in info

    def test_discrete_unknown(self):
        # Q0 = Q1, l = r = id: no pair of distinct functors can agree
        pair = discrete_category(2)
        data = cokernel_pair(CAT, functor_identity(pair))
        assert check_cocategory(CAT, data).ok
        assert joint_epi_counterexample_for_maps([data.l, data.r]) is None


class TestCategoryEnumeration:
    def test_small_counts(self):
        # 1 morphism: the terminal category only
        assert sum(1 for _ in _enumerate_categories(1)) == 1
        # 2 morphisms: discrete pair, plus the two one-object monoids
        # on a single generator (t.t = id and t.t = t)
        cats2 = [c for c in _enumerate_categories(2) if c.n_morphisms == 2]
        assert len(cats2) == 3

    def test_all_enumerated_are_valid(self):
        for c in _enumerate_categories(3):
            check_category(c)

    def test_incremental_associativity_keeps_every_table(self):
        # each yielded table is fully associative, and as many come out
        # as when every composable triple was rescanned per entry
        cats = list(_enumerate_categories(4))
        assert len(cats) == 241
        for c in cats:
            check_category(c)
        monoids = list(_complete_tables(1, (0,) * 4, (0,) * 4))
        assert len(monoids) == 156
        for c in monoids:
            check_category(c)
