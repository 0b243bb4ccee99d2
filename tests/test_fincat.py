"""Finite categories: law validation, functor enumeration, word-based
pushouts, the interval, and the joint-epi counterexample search."""

import pytest

from cocat.core import (
    ClosureExceeded,
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
    FinCategory,
    FunctorData,
    arrow_category,
    check_category,
    discrete_category,
    enumerate_functors,
    functor_compose,
    functor_identity,
    interval_cocategory,
    joint_epi_counterexample,
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
        # table[id][a] wrong on purpose
        table = (
            (0, None, 0),
            (None, 1, None),
            (None, 2, None),
        )
        c = FinCategory(2, (0, 1, 0), (0, 1, 1), (0, 1), table)
        with pytest.raises(NonComposable):
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
            pushout_cats(f, g, word_cap=6)

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


class TestJointEpiSearch:
    def test_interval_witness_found(self):
        iv = interval_cocategory()
        found = joint_epi_counterexample(iv, 6)
        assert found is not None
        c, first, second = found
        assert c.n_morphisms <= 6
        assert first != second
        assert functor_compose(iv.l, first) == functor_compose(iv.l, second)
        assert functor_compose(iv.r, first) == functor_compose(iv.r, second)

    def test_trivial_unknown_at_small_bound(self):
        data = cokernel_pair(CAT, functor_identity(terminal_category()))
        assert joint_epi_counterexample(data, 3) is None
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
        assert joint_epi_counterexample(data, 3) is None


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
