"""The finite-set engine: universal properties checked by exhausting
all candidate factorisations, coherent-structure stability, exhaustive
enumeration with frozen regression counts, the universal co-category,
and the colax correspondence."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocat.core import (
    CoCategoryData,
    CoconeMismatch,
    NotMono,
    SizeLimit,
    TypeMismatch,
    check_cocat_morphism,
    check_cocategory,
    classify,
    coinverse_candidates,
    double_and_triple,
)
from cocat.finset import (
    FINSET,
    FinMap,
    FinSetObj,
    Subobject,
    _q_candidates,
    _representative_triples,
    classifying_map,
    cokernel_pair_cocategory,
    colax_maps,
    cocat_morphisms,
    compose,
    count_q_solutions,
    enumerate_cocategories,
    equalizer,
    identity,
    image,
    is_mono,
    iso_cocategories,
    pullback,
    pullback_cocategory,
    pushout,
    subset_mono,
    trivial_cocategory,
    uncovered,
    universal_cocategory,
    union,
    verify_proposition,
)


def _maps(dom_size, cod_size):
    dom, cod = FinSetObj(dom_size), FinSetObj(cod_size)
    return [FinMap(dom, cod, t)
            for t in itertools.product(range(cod_size), repeat=dom_size)]


sizes = st.integers(0, 3)
small_map = st.tuples(sizes, st.integers(1, 3)).flatmap(
    lambda dc: st.tuples(
        st.just(dc),
        st.lists(st.integers(0, dc[1] - 1), min_size=dc[0], max_size=dc[0]),
    ).map(lambda t: FinMap(FinSetObj(t[0][0]), FinSetObj(t[0][1]), tuple(t[1])))
)


class TestFinMap:
    def test_out_of_range_entries_rejected(self):
        three = FinSetObj(3)
        for bad in (-1, 3):
            with pytest.raises(TypeMismatch):
                FinMap(FinSetObj(2), three, (0, bad))
            with pytest.raises(TypeMismatch):
                FinMap(FinSetObj(2), three, (bad, 0))

    def test_wrong_length_rejected(self):
        with pytest.raises(TypeMismatch):
            FinMap(FinSetObj(2), FinSetObj(3), (0,))
        with pytest.raises(TypeMismatch):
            FinMap(FinSetObj(0), FinSetObj(3), (0,))

    def test_empty_table_on_empty_domain(self):
        for n in (0, 2):
            assert FinMap(FinSetObj(0), FinSetObj(n), ()).table == ()


class TestPushout:
    def test_glue_one_point(self):
        s = FinSetObj(1)
        f = FinMap(s, FinSetObj(2), (0,))
        g = FinMap(s, FinSetObj(2), (0,))
        w = pushout(f, g)
        assert w.apex.size == 3

    def test_empty_span_is_coproduct(self):
        s = FinSetObj(0)
        f = FinMap(s, FinSetObj(2), ())
        g = FinMap(s, FinSetObj(3), ())
        w = pushout(f, g)
        assert w.apex.size == 5

    def test_identity_span_absorbs(self):
        a = FinSetObj(4)
        w = pushout(identity(a), identity(a))
        assert w.apex.size == 4
        assert w.injections[0] == w.injections[1]

    def test_gluing_relation(self):
        rng = random.Random(3)
        for _ in range(50):
            s = FinSetObj(rng.randint(0, 3))
            a, b = FinSetObj(rng.randint(1, 4)), FinSetObj(rng.randint(1, 4))
            f = FinMap(s, a, tuple(rng.randrange(a.size) for _ in range(s.size)))
            g = FinMap(s, b, tuple(rng.randrange(b.size) for _ in range(s.size)))
            w = pushout(f, g)
            assert compose(f, w.injections[0]) == compose(g, w.injections[1])
            assert not uncovered(w.injections)

    def test_universal_property_by_exhaustion(self):
        # every compatible cocone factors uniquely; checked against all
        # candidate maps out of the apex
        rng = random.Random(11)
        for _ in range(40):
            s = FinSetObj(rng.randint(0, 2))
            a, b = FinSetObj(rng.randint(1, 3)), FinSetObj(rng.randint(1, 3))
            x = FinSetObj(rng.randint(1, 3))
            f = FinMap(s, a, tuple(rng.randrange(a.size) for _ in range(s.size)))
            g = FinMap(s, b, tuple(rng.randrange(b.size) for _ in range(s.size)))
            w = pushout(f, g)
            for u in _maps(a.size, x.size):
                for v in _maps(b.size, x.size):
                    compatible = compose(f, u) == compose(g, v)
                    factorings = [
                        h for h in _maps(w.apex.size, x.size)
                        if compose(w.injections[0], h) == u
                        and compose(w.injections[1], h) == v
                    ]
                    if compatible:
                        assert len(factorings) == 1
                        assert FINSET.copair(w, u, v) == factorings[0]
                    else:
                        assert not factorings
                        with pytest.raises(CoconeMismatch):
                            FINSET.copair(w, u, v)


class TestPullback:
    def test_diagonal(self):
        a = FinSetObj(3)
        obj, p1, p2 = pullback(identity(a), identity(a))
        assert obj.size == 3
        assert p1 == p2

    def test_disjoint_images_empty(self):
        s = FinSetObj(0)
        f = FinMap(s, FinSetObj(1), ())
        g = FinMap(s, FinSetObj(1), ())
        w = pushout(f, g)
        obj, _, _ = pullback(*w.injections)
        assert obj.size == 0

    def test_cokernel_pair_legs(self):
        # the two legs of the glued pair meet exactly over the shared part
        data = cokernel_pair_cocategory(subset_mono([0], FinSetObj(2)))
        obj, p1, p2 = pullback(data.l, data.r)
        assert obj.size == 1
        assert p1.table == p2.table == (0,)

    def test_universal_property_by_exhaustion(self):
        rng = random.Random(13)
        for _ in range(40):
            c = FinSetObj(rng.randint(1, 3))
            a, b = FinSetObj(rng.randint(0, 3)), FinSetObj(rng.randint(0, 3))
            x = FinSetObj(rng.randint(1, 2))
            f = FinMap(a, c, tuple(rng.randrange(c.size) for _ in range(a.size)))
            g = FinMap(b, c, tuple(rng.randrange(c.size) for _ in range(b.size)))
            obj, p1, p2 = pullback(f, g)
            assert compose(p1, f) == compose(p2, g)
            for u in _maps(x.size, a.size):
                for v in _maps(x.size, b.size):
                    if compose(u, f) != compose(v, g):
                        continue
                    factorings = [
                        h for h in _maps(x.size, obj.size)
                        if compose(h, p1) == u and compose(h, p2) == v
                    ]
                    assert len(factorings) == 1


class TestCoherentStructure:
    def test_image_of_constant(self):
        f = FinMap(FinSetObj(3), FinSetObj(3), (1, 1, 1))
        assert image(f).elements == (1,)

    def test_union_covers(self):
        two = FinSetObj(2)
        s1 = Subobject(two, (0,))
        s2 = Subobject(two, (1,))
        assert union(s1, s2).elements == (0, 1)
        assert not uncovered([s1.as_mono(), s2.as_mono()])

    def test_equalizer_recovers_subobject(self):
        for a in range(1, 5):
            for k in range(a + 1):
                m = subset_mono(range(k), FinSetObj(a))
                data = cokernel_pair_cocategory(m)
                eq = equalizer(data.l, data.r)
                assert Subobject.from_mono(eq) == Subobject.from_mono(m)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_union_and_image_stable_under_pullback(self, data):
        a = data.draw(st.integers(1, 4))
        c = data.draw(st.integers(1, 4))
        f = FinMap(FinSetObj(a), FinSetObj(c),
                   tuple(data.draw(st.integers(0, c - 1)) for _ in range(a)))
        s1 = Subobject(FinSetObj(c), tuple(sorted(data.draw(
            st.sets(st.integers(0, c - 1))))))
        s2 = Subobject(FinSetObj(c), tuple(sorted(data.draw(
            st.sets(st.integers(0, c - 1))))))

        def preimage(s):
            return tuple(x for x in range(a) if f.table[x] in s.elements)

        # pullback of a union is the union of the pullbacks
        assert preimage(union(s1, s2)) == tuple(
            sorted(set(preimage(s1)) | set(preimage(s2))))
        # pulling back a mono gives a mono with the preimage as image
        _, p1, _ = pullback(f, s1.as_mono())
        assert is_mono(p1)
        assert image(p1).elements == preimage(s1)


STEPS = ("preimages-cover", "left-retraction", "right-retraction", "legs-cover",
         "projections-equal", "square-is-pushout", "coinverse")


class TestProofWalkthrough:
    def test_cokernel_pair(self):
        report = verify_proposition(cokernel_pair_cocategory(subset_mono([0], FinSetObj(2))))
        assert report.ok
        assert tuple(c.name for c in report.checks) == STEPS
        assert all(c.detail is None for c in report.checks)

    def test_trivial(self):
        report = verify_proposition(trivial_cocategory())
        assert report.ok
        assert tuple(c.name for c in report.checks) == STEPS

    def test_rejects_invalid_input(self):
        # q collapses Q1 onto one apex element: the axioms fail, and the
        # walkthrough names the steps where the argument breaks
        d = cokernel_pair_cocategory(subset_mono([0], FinSetObj(2)))
        bad_q = FinMap(d.q1, d.double.apex, (0,) * 3)
        broken = CoCategoryData(d.q0, d.q1, d.l, d.r, d.i, bad_q, d.double, d.triple)
        report = verify_proposition(broken)
        assert report.failures == ("left-retraction", "right-retraction", "coinverse")
        assert report["left-retraction"].detail == "l.i.q_1 != m_1 at P1 element 1"
        assert report["right-retraction"].detail == "r.i.q_2 != m_2 at P2 element 1"
        assert report["coinverse"].detail == "constructed co-inverse violates left-cancel"


def _naive_count(n0, n1):
    """Independent oracle: enumerate all (l, r, i, q) tuples outright
    and run the generic checker on each."""
    q0, q1 = FinSetObj(n0), FinSetObj(n1)
    count = 0
    for l in _maps(n0, n1):
        for r in _maps(n0, n1):
            double, triple = double_and_triple(FINSET, l, r)
            for i in _maps(n1, n0):
                for q in _maps(n1, double.apex.size):
                    from cocat.core import CoCategoryData
                    data = CoCategoryData(q0, q1, l, r, i, q, double, triple)
                    if check_cocategory(FINSET, data).ok:
                        count += 1
    return count


def _surjection_oracle(max_q0, max_q1):
    """Every co-category with 1 <= |Q0| <= max_q0 and 1 <= |Q1| <= max_q1,
    searched under every onto i (no relabelling): each pair of sections
    l, r of i, completed by ``_q_candidates``."""
    for n0 in range(1, max_q0 + 1):
        for n1 in range(1, max_q1 + 1):
            q0, q1 = FinSetObj(n0), FinSetObj(n1)
            for i_table in itertools.product(range(n0), repeat=n1):
                fibers = [tuple(y for y in range(n1) if i_table[y] == x)
                          for x in range(n0)]
                if not all(fibers):
                    continue
                i = FinMap(q1, q0, i_table)
                for l_table in itertools.product(*fibers):
                    l = FinMap(q0, q1, l_table)
                    for r_table in itertools.product(*fibers):
                        yield from _q_candidates(q0, q1, l, FinMap(q0, q1, r_table), i)


class TestEnumeration:
    def test_bounds_1_1(self):
        assert sum(1 for _ in enumerate_cocategories(1, 1)) == 1

    def test_bounds_1_2_regression(self):
        # frozen on first run; cross-checked against the naive oracle
        found = list(enumerate_cocategories(1, 2))
        assert len(found) == 3
        assert _naive_count(1, 1) + _naive_count(1, 2) == 3

    def test_bounds_2_2_naive_oracle(self):
        ours = sum(1 for d in enumerate_cocategories(2, 2) if d.q0.size == 2)
        assert ours == _naive_count(2, 2) == 2

    def test_bounds_2_4_regression(self):
        found = list(enumerate_cocategories(2, 4))
        assert len(found) == 41
        by_size = {}
        for d in found:
            key = (d.q0.size, d.q1.size)
            by_size[key] = by_size.get(key, 0) + 1
        assert by_size == {(1, 1): 1, (1, 2): 2, (2, 2): 2, (2, 3): 12, (2, 4): 24}

    def test_counts_match_closed_form(self):
        # every structure is a relabelled amalgamated pair over its
        # shared subobject: choosing the subobject and the labelling
        # gives C(n0, s) * (2 n0 - s)! structures of each shape
        found = list(enumerate_cocategories(2, 4))
        by_size = {}
        for d in found:
            key = (d.q0.size, d.q1.size)
            by_size[key] = by_size.get(key, 0) + 1
        for (n0, n1), count in by_size.items():
            s = 2 * n0 - n1
            assert count == math.comb(n0, s) * math.factorial(n1)

    def test_bounds_3_5_closed_form(self):
        by_size = {}
        for d in enumerate_cocategories(3, 5):
            key = (d.q0.size, d.q1.size)
            by_size[key] = by_size.get(key, 0) + 1
        assert sum(by_size.values()) == 479
        for n0 in range(1, 4):
            for n1 in range(1, 6):
                s = 2 * n0 - n1
                expected = math.comb(n0, s) * math.factorial(n1) if 0 <= s <= n0 else 0
                assert by_size.get((n0, n1), 0) == expected

    def test_vacuous_bounds(self):
        found = list(enumerate_cocategories(0, 0))
        assert len(found) == 1
        assert found[0].q0.size == 0
        assert check_cocategory(FINSET, found[0]).ok
        assert classify(FINSET, found[0]).is_coequivalence
        assert verify_proposition(found[0]).ok

    def test_every_structure_verifies(self):
        for data in enumerate_cocategories(2, 3):
            cls = classify(FINSET, data)
            assert cls.is_coequivalence
            assert verify_proposition(data).ok

    def test_q_uniqueness_by_full_exhaustion(self):
        # for each found structure, *every* map into the apex is tried
        # and only the found q survives
        for data in enumerate_cocategories(2, 3):
            from cocat.core import CoCategoryData
            survivors = [
                q for q in _maps(data.q1.size, data.double.apex.size)
                if check_cocategory(FINSET, CoCategoryData(
                    data.q0, data.q1, data.l, data.r, data.i, q,
                    data.double, data.triple)).ok
            ]
            assert survivors == [data.q]
            assert count_q_solutions(data.q0, data.q1, data.l, data.r, data.i) == 1

    def test_roundtrip_through_equalizer(self):
        for data in enumerate_cocategories(2, 4):
            m = equalizer(data.l, data.r)
            rebuilt = cokernel_pair_cocategory(m)
            assert iso_cocategories(data, rebuilt) is not None

    def test_progress_hook(self):
        blocks = []
        list(enumerate_cocategories(1, 2, progress=blocks.append))
        assert [(b["q0"], b["q1"]) for b in blocks] == [(1, 1), (1, 2)]
        assert sum(b["found"] for b in blocks) == 3

    def test_progress_counts_representative_triples(self):
        # one non-decreasing i per composition (a, b) of |Q1|, with
        # (a b)^2 pairs of sections each
        blocks = []
        list(enumerate_cocategories(2, 4, progress=blocks.append))
        triples = {(b["q0"], b["q1"]): b["lri_triples"] for b in blocks}
        for n1 in range(1, 5):
            assert triples[(2, n1)] == sum((a * (n1 - a)) ** 2 for a in range(1, n1))

    def test_same_structures_as_surjection_oracle(self):
        assert Counter(enumerate_cocategories(3, 5)) == Counter(_surjection_oracle(3, 5))

    def test_witnesses_are_canonical(self):
        for data in enumerate_cocategories(2, 4):
            assert (data.double, data.triple) == double_and_triple(FINSET, data.l, data.r)

    def test_representatives_past_the_cli_cap(self):
        # each representative stands for its orbit under relabelling
        # Q1; the four flags are invariant under relabelling, so this
        # checks all 66,503 structures within (4, 8)
        total = expected = 0
        for n0 in range(1, 5):
            for n1 in range(1, 9):
                s = 2 * n0 - n1
                expected += math.comb(n0, s) * math.factorial(n1) if 0 <= s <= n0 else 0
                q0, q1 = FinSetObj(n0), FinSetObj(n1)
                for fibres, l, r, i in _representative_triples(q0, q1):
                    orbit = math.factorial(n1) // math.prod(
                        math.factorial(len(fib)) for fib in fibres)
                    for data in _q_candidates(q0, q1, l, r, i):
                        total += orbit
                        assert classify(FINSET, data).is_coequivalence
                        assert verify_proposition(data).ok
        assert total == expected == 66_503


class TestUniversal:
    def test_shape(self):
        u = universal_cocategory()
        assert u.q0.size == 2
        assert u.q1.size == 3
        # elements come out as (0 left, glued true point, 0 right)
        assert u.l.table == (0, 1)
        assert u.r.table == (2, 1)
        assert classify(FINSET, u).is_coequivalence

    def test_classifying_map(self):
        m = subset_mono([0], FinSetObj(2))
        assert classifying_map(m).table == (1, 0)
        with pytest.raises(NotMono):
            classifying_map(FinMap(FinSetObj(2), FinSetObj(2), (0, 0)))

    def test_pullback_of_constant_true_is_trivial(self):
        a = FinSetObj(3)
        chi = FinMap(a, FinSetObj(2), (1, 1, 1))
        data = pullback_cocategory(chi)
        assert data.q1.size == 3
        assert check_cocategory(FINSET, data).ok
        assert iso_cocategories(data, cokernel_pair_cocategory(identity(a))) is not None

    def test_pullback_of_constant_false_is_two_copies(self):
        a = FinSetObj(2)
        chi = FinMap(a, FinSetObj(2), (0, 0))
        data = pullback_cocategory(chi)
        assert data.q1.size == 4
        assert iso_cocategories(
            data, cokernel_pair_cocategory(subset_mono([], a))) is not None

    def test_roundtrip(self):
        for a in range(1, 4):
            for k in range(a + 1):
                m = subset_mono(range(k), FinSetObj(a))
                pulled = pullback_cocategory(classifying_map(m))
                assert check_cocategory(FINSET, pulled).ok
                assert iso_cocategories(pulled, cokernel_pair_cocategory(m)) is not None

    def test_chi_unique_over_enumeration(self):
        # existence and uniqueness of the characteristic map; the
        # comparison is over the shared Q0 (relabelling Q0 would let a
        # renamed subobject masquerade as a second solution)
        for data in enumerate_cocategories(2, 3):
            hits = [
                chi for chi in _maps(data.q0.size, 2)
                if iso_cocategories(pullback_cocategory(chi), data, fix_q0=True) is not None
            ]
            assert len(hits) == 1


class TestColax:
    def test_trivial_to_trivial(self):
        t = trivial_cocategory()
        assert len(cocat_morphisms(t, t)) == 1
        assert len(colax_maps(t, t)) == 1

    def test_empty_subobject_to_full(self):
        q = cokernel_pair_cocategory(subset_mono([], FinSetObj(1)))
        r = cokernel_pair_cocategory(subset_mono([0], FinSetObj(1)))
        morphs = cocat_morphisms(q, r)
        lax = colax_maps(q, r)
        assert len(morphs) == len(lax) == 1

    def test_true_to_false_has_nothing(self):
        q = cokernel_pair_cocategory(subset_mono([0], FinSetObj(1)))
        r = cokernel_pair_cocategory(subset_mono([], FinSetObj(1)))
        assert cocat_morphisms(q, r) == []
        assert colax_maps(q, r) == []

    def test_correspondence_on_builtins(self):
        from cocat.finset import verify_colax_correspondence

        builtins = [
            trivial_cocategory(),
            cokernel_pair_cocategory(subset_mono([], FinSetObj(1))),
            cokernel_pair_cocategory(subset_mono([0], FinSetObj(2))),
            cokernel_pair_cocategory(subset_mono([], FinSetObj(2))),
            universal_cocategory(),
        ]
        for q in builtins:
            for r in builtins:
                assert verify_colax_correspondence(q, r)

    def test_size_limit(self):
        q = cokernel_pair_cocategory(subset_mono([], FinSetObj(2)))
        with pytest.raises(SizeLimit):
            cocat_morphisms(q, q, max_candidates=10)


class TestIso:
    def test_self_iso(self):
        d = cokernel_pair_cocategory(subset_mono([0], FinSetObj(2)))
        found = iso_cocategories(d, d)
        assert found is not None

    def test_relabelling(self):
        a = cokernel_pair_cocategory(subset_mono([0], FinSetObj(2)))
        b = cokernel_pair_cocategory(subset_mono([1], FinSetObj(2)))
        assert iso_cocategories(a, b) is not None

    def test_size_mismatch(self):
        a = trivial_cocategory()
        b = cokernel_pair_cocategory(subset_mono([0], FinSetObj(2)))
        assert iso_cocategories(a, b) is None

    @pytest.mark.parametrize("fix_q0", [False, True])
    def test_forced_search_matches_all_pairs(self, fix_q0):
        # the oracle tries every pair of bijections in order, without
        # forcing f1 from the l- and r-squares
        def all_pairs(a, b):
            n0, n1 = a.q0.size, a.q1.size
            base = [tuple(range(n0))] if fix_q0 else itertools.permutations(range(n0))
            for p0 in base:
                for p1 in itertools.permutations(range(n1)):
                    f0, f1 = FinMap(a.q0, b.q0, p0), FinMap(a.q1, b.q1, p1)
                    if check_cocat_morphism(FINSET, a, b, f0, f1).ok:
                        return f0, f1
            return None

        found = list(enumerate_cocategories(2, 4))
        pairs = 0
        for a in found:
            for b in found:
                if (a.q0.size, a.q1.size) != (b.q0.size, b.q1.size):
                    continue
                pairs += 1
                assert iso_cocategories(a, b, fix_q0=fix_q0) == all_pairs(a, b)
        assert pairs == 1 + 4 + 4 + 144 + 576

    def test_non_injective_forcing_is_no_iso(self):
        # the squares force f1 = (0, 0), which commutes with all the
        # structure but is no bijection, so no isomorphism exists
        a = cokernel_pair_cocategory(subset_mono([], FinSetObj(1)))
        b = _hand_built(1, 2, (0,), (0,), (0, 0), (0, 0))
        f0, f1 = identity(a.q0), FinMap(a.q1, b.q1, (0, 0))
        assert check_cocat_morphism(FINSET, a, b, f0, f1).ok
        assert iso_cocategories(a, b) is None


def _hand_built(n0, n1, l, r, i, q):
    """A structure with the given tables and canonical witnesses; its
    axioms need not hold."""
    q0, q1 = FinSetObj(n0), FinSetObj(n1)
    l_map, r_map = FinMap(q0, q1, l), FinMap(q0, q1, r)
    double, triple = double_and_triple(FINSET, l_map, r_map)
    return CoCategoryData(q0, q1, l_map, r_map, FinMap(q1, q0, i),
                          FinMap(q1, double.apex, q), double, triple)


class TestSolveCoinverse:
    def test_agrees_with_enumeration(self):
        found = list(enumerate_cocategories(2, 4))
        assert len(found) == 41
        for d in found:
            solutions, _ = coinverse_candidates(FINSET, d)
            s = FINSET.solve_coinverse(d)
            assert (s is None) == (not solutions)
            assert s is None or s in solutions

    def test_pin_conflict(self):
        # s.l = r sends both elements to 0, but s.r = l needs s(0) = 1
        d = _hand_built(2, 2, (0, 1), (0, 0), (0, 1), (0, 0))
        assert FINSET.solve_coinverse(d) is None
        assert coinverse_candidates(FINSET, d)[0] == []

    @pytest.mark.parametrize("q, has_coinverse", [((0, 0), True), ((0, 1), False)])
    def test_uncovered_element_is_searched(self, q, has_coinverse):
        # l = r miss element 1 of Q1, so s(1) is not pinned and every
        # value is tried; with q = (0, 1) left-cancel fails for all
        d = _hand_built(1, 2, (0,), (0,), (0, 0), q)
        solutions, searched = coinverse_candidates(FINSET, d)
        assert searched == 4 and bool(solutions) is has_coinverse
        s = FINSET.solve_coinverse(d)
        assert s == (solutions[0] if solutions else None)

    def test_legs_outside_q1_are_a_type_mismatch(self):
        d = _hand_built(1, 2, (0,), (1,), (0, 0), (0, 0))
        wide = FinMap(d.q0, FinSetObj(3), (2,))
        with pytest.raises(TypeMismatch):
            FINSET.solve_coinverse(CoCategoryData(d.q0, d.q1, wide, d.r, d.i, d.q,
                                                  d.double, d.triple))
