"""The finite-set engine: universal properties checked by exhausting
all candidate factorisations, coherent-structure stability, exhaustive
enumeration with frozen regression counts, the universal co-category,
and the colax correspondence."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocat import finset
from cocat.core import (
    CoCategoryData,
    CoconeMismatch,
    IllFormedPushout,
    NotMono,
    PushoutWitness,
    SizeLimit,
    TypeMismatch,
    UnsupportedCapability,
    check_cocat_morphism,
    check_cocategory,
    classify,
    coinverse_candidates,
    find_coinverse,
)
from cocat.finset import (
    FINSET,
    FinMap,
    FinSetObj,
    Subobject,
    _fibre_shuffles,
    _q_candidates,
    _representative_triples,
    classifying_map,
    cokernel_pair_cocategory,
    colax_maps,
    cocat_morphisms,
    compose,
    copair,
    enumerate_cocategories,
    equalizer,
    factor,
    identity,
    image,
    inverse,
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


def _draw_map(data, n, m):
    """A map of an n-set into an m-set (m > 0 when n > 0), entry by entry."""
    table = tuple(data.draw(st.integers(0, m - 1)) for _ in range(n))
    return FinMap(FinSetObj(n), FinSetObj(m), table)


def _draw_span(data):
    """Two maps out of one set S into sets A and B, sizes 0..3."""
    na, nb = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    ns = data.draw(st.integers(0, 3)) if na and nb else 0
    return _draw_map(data, ns, na), _draw_map(data, ns, nb)


def _naive_pushout(f, g):
    """Apex size and injection tables of the quotient of A + B by
    f(s) ~ g(s): classes merged as sets, numbered by smallest member."""
    na, nb = f.cod.size, g.cod.size
    cls = {x: frozenset((x,)) for x in range(na + nb)}
    for s in range(f.dom.size):
        merged = cls[f.table[s]] | cls[na + g.table[s]]
        for y in merged:
            cls[y] = merged
    firsts = sorted({min(c) for c in cls.values()})
    label = tuple(firsts.index(min(cls[x])) for x in range(na + nb))
    return len(firsts), label[:na], label[na:]


class TestKernel:
    def test_one_object_per_size(self):
        assert FinSetObj(3) is FinSetObj(3)
        assert FinSetObj(0) is not FinSetObj(1)
        assert FinSetObj(2).size == 2

    def test_negative_size_rejected_and_never_interned(self):
        for _ in range(2):
            with pytest.raises(ValueError):
                FinSetObj(-1)
        assert -1 not in finset._FINSETS

    def test_one_object_per_size_across_threads(self):
        # sizes no other test builds, so the threads race to intern each
        sizes = range(1000, 5000)
        barrier = threading.Barrier(4, timeout=60)

        def build(_):
            barrier.wait()
            return [FinSetObj(n) for n in sizes]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(build, range(4)))
        finally:
            sys.setswitchinterval(interval)
        for n, objs in zip(sizes, zip(*results)):
            assert all(obj is FinSetObj(n) for obj in objs)

    def test_identity_is_cached_on_the_object(self):
        a = FinSetObj(4)
        assert identity(a) is identity(a)
        assert identity(a) == FinMap(a, a, (0, 1, 2, 3))

    def test_attributes_cannot_be_set(self):
        two = FinSetObj(2)
        m = FinMap(two, two, (1, 0))
        for obj, name in ((two, "size"), (m, "dom"), (m, "cod"), (m, "table"), (m, "extra")):
            with pytest.raises(AttributeError):
                setattr(obj, name, 0)
        for obj, name in ((two, "size"), (m, "table")):
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert two.size == 2 and m.table == (1, 0)

    def test_equality_and_hash_follow_the_fields(self):
        a, b = FinSetObj(2), FinSetObj(3)
        m = FinMap(a, b, (0, 2))
        same = FinMap(FinSetObj(2), FinSetObj(3), (0, 2))
        assert m == same and not m != same
        assert hash(m) == hash(same) == hash((a, b, (0, 2)))
        assert hash(a) == hash((2,))
        for other in (FinMap(a, b, (0, 1)), FinMap(a, FinSetObj(4), (0, 2)),
                      FinMap(FinSetObj(3), b, (0, 2, 0))):
            assert m != other and not m == other
        assert m != (a, b, (0, 2))
        assert len({m, same, FinMap(a, b, (2, 0))}) == 2
        assert repr(m) == "FinMap(dom=FinSetObj(size=2), cod=FinSetObj(size=3), table=(0, 2))"

    def test_pickle_and_deepcopy_round_trip(self):
        m = FinMap(FinSetObj(3), FinSetObj(5), (0, 4, 1))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(m, protocol))
            assert back == m and back.dom is m.dom and back.cod is m.cod
        for back in (copy.deepcopy(m), copy.copy(m)):
            assert back == m and back.dom is m.dom and back.cod is m.cod
        assert pickle.loads(pickle.dumps(FinSetObj(7))) is FinSetObj(7)
        assert copy.deepcopy(FinSetObj(7)) is FinSetObj(7)

    def test_tampered_table_rejected_on_load(self):
        m = FinMap(FinSetObj(3), FinSetObj(5), (0, 4, 1))
        # protocol 0 writes each small int as I<digits>; 4 occurs once
        text = pickle.dumps(m, 0)
        assert text.count(b"I4\n") == 1
        for tampered in (b"I9\n", b"I-1\n"):
            with pytest.raises(TypeMismatch):
                pickle.loads(text.replace(b"I4\n", tampered))
        # deepcopy takes a copy from the memo: hand it a short table
        with pytest.raises(TypeMismatch):
            copy.deepcopy(m, {id(m.table): (0, 4)})

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_compose_matches_table_lookup(self, data):
        n, m = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        m = m or (1 if n else 0)
        m2 = data.draw(st.one_of(st.just(m), st.integers(0, 3)))
        k = data.draw(st.integers(1 if m2 else 0, 3))
        f, g = _draw_map(data, n, m), _draw_map(data, m2, k)
        if m2 != m:
            with pytest.raises(TypeMismatch):
                compose(f, g)
            return
        h = compose(f, g)
        assert h.dom is f.dom and h.cod is g.cod
        assert h.table == tuple(g.table[f.table[x]] for x in range(n))
        assert FINSET.equal(h, FinMap(FinSetObj(n), FinSetObj(k), h.table))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_pushout_and_copair_match_naive_quotient(self, data):
        f, g = _draw_span(data)
        w = pushout(f, g)
        size, inj1, inj2 = _naive_pushout(f, g)
        assert w.apex is FinSetObj(size)
        assert (w.injections[0].table, w.injections[1].table) == (inj1, inj2)
        assert w.injections[0].dom is f.cod and w.injections[1].dom is g.cod
        assert w.legs == (f, g)

        x = data.draw(st.integers(1, 3))
        u, v = _draw_map(data, f.cod.size, x), _draw_map(data, g.cod.size, x)
        values = [set() for _ in range(size)]
        for pos, val in zip(inj1 + inj2, u.table + v.table):
            values[pos].add(val)
        if any(len(vals) > 1 for vals in values):
            with pytest.raises(CoconeMismatch):
                copair(w, u, v)
        else:
            h = copair(w, u, v)
            assert h.dom is w.apex and h.cod is u.cod
            assert h.table == tuple(vals.pop() for vals in values)

    def test_mismatched_types_rejected(self):
        one, two = FinSetObj(1), FinSetObj(2)
        f = FinMap(two, two, (0, 1))
        with pytest.raises(TypeMismatch):
            compose(f, FinMap(one, two, (0,)))
        with pytest.raises(TypeMismatch):
            compose(FinMap(two, FinSetObj(3), (0, 1)), f)
        with pytest.raises(TypeMismatch):
            pushout(f, FinMap(one, two, (0,)))
        w = pushout(f, f)
        with pytest.raises(TypeMismatch):
            copair(w, f, FinMap(two, one, (0, 0)))
        with pytest.raises(TypeMismatch):
            copair(w, FinMap(one, two, (0,)), f)


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

    def test_factor_by_exhaustion(self):
        # legs from a set of size <= 2 into Q1 of size <= 3, values in a
        # set of size <= 2, against every map h out of Q1
        cases = 0
        for size, a, b in itertools.product(range(4), range(3), range(3)):
            tables = [list(itertools.product(range(n), repeat=a)) for n in (size, size, b, b)]
            for leg1, leg2, val1, val2 in itertools.product(*tables):
                cases += 1
                solutions = [h for h in itertools.product(range(b), repeat=size)
                             if all(h[p] == v for p, v in zip(leg1 + leg2, val1 + val2))]
                if b and not solutions:
                    assert factor(size, leg1, leg2, val1, val2) is None
                elif set(leg1 + leg2) == set(range(size)):
                    assert [factor(size, leg1, leg2, val1, val2)] == solutions
                else:
                    with pytest.raises(UnsupportedCapability, match="not forced"):
                        factor(size, leg1, leg2, val1, val2)
        assert cases == 1748

    def test_copair_refuses_injections_that_miss_the_apex(self):
        # (i1, i2) commutes, and no element of A or B reaches apex element 2
        f = g = FinMap(FinSetObj(1), FinSetObj(2), (0,))
        x = FinSetObj(3)
        witness = PushoutWitness(x, (FinMap(f.cod, x, (0, 1)), FinMap(g.cod, x, (0, 1))), (f, g))
        with pytest.raises(IllFormedPushout, match="injections do not cover the apex"):
            copair(witness, identity(f.cod), identity(g.cod))

    def test_is_pushout_on_its_own_witness(self):
        f = g = FinMap(FinSetObj(1), FinSetObj(2), (0,))
        assert FINSET.is_pushout(pushout(f, g)) is True

    @pytest.mark.parametrize("apex, inj1, inj2", [
        (3, (0, 1), (2, 1)),    # i1.f != i2.g: the square does not commute
        (4, (0, 1), (0, 2)),    # a cocone whose apex is too big
        (2, (0, 1), (0, 1)),    # a cocone whose apex is too small
        (3, (0, 1), (0, 1)),    # right size, but the comparison misses 2
    ])
    def test_is_pushout_false(self, apex, inj1, inj2):
        f = g = FinMap(FinSetObj(1), FinSetObj(2), (0,))
        x = FinSetObj(apex)
        witness = PushoutWitness(x, (FinMap(f.cod, x, inj1), FinMap(g.cod, x, inj2)), (f, g))
        assert FINSET.is_pushout(witness) is False


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

    def test_joint_epi_is_joint_cover(self):
        one, three = FinSetObj(1), FinSetObj(3)
        ends = [FinMap(one, three, (0,)), FinMap(one, three, (2,))]
        assert FINSET.joint_epi_status(ends) == (False, {"uncovered": 1})
        assert FINSET.joint_epi_status(ends + [FinMap(one, three, (1,))]) == (True, None)

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
        broken = CoCategoryData(d.q0, d.q1, d.l, d.r, d.i, bad_q, d.double)
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
            double = pushout(r, l)
            for i in _maps(n1, n0):
                for q in _maps(n1, double.apex.size):
                    from cocat.core import CoCategoryData
                    data = CoCategoryData(q0, q1, l, r, i, q, double)
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


def _relabel_by_pushouts(data, sigma):
    """The structure transported along a bijection sigma of Q1 with
    fresh pushouts: l' = sigma.l, r' = sigma.r, i' = i.sigma^-1, the
    double pushout of (r', l'), and q' = phi.q.sigma^-1,
    where the apex bijection phi has phi.nu1 = nu1'.sigma and
    phi.nu2 = nu2'.sigma."""
    back = inverse(sigma)
    l, r = compose(data.l, sigma), compose(data.r, sigma)
    double = pushout(r, l)
    nu1, nu2 = double.injections
    phi = copair(data.double, compose(sigma, nu1), compose(sigma, nu2)).table
    q = FinMap(data.q1, double.apex, tuple(phi[w] for w in compose(back, data.q).table))
    return CoCategoryData(data.q0, data.q1, l, r, compose(back, data.i), q, double)


def _relabelled_by_pushouts(max_q0, max_q1):
    """Every representative relabelled along every fibre shuffle, in
    the enumeration's order, through fresh pushouts."""
    for n0 in range(1, max_q0 + 1):
        for n1 in range(1, max_q1 + 1):
            q0, q1 = FinSetObj(n0), FinSetObj(n1)
            for fibres, l, r, i in _representative_triples(q0, q1):
                for rep in _q_candidates(q0, q1, l, r, i):
                    for sigma in _fibre_shuffles(fibres, tuple(range(n1))):
                        yield _relabel_by_pushouts(rep, FinMap(q1, q1, sigma))


def _compositions(n, parts):
    """The ordered ways of writing n as ``parts`` positive summands."""
    return [c for c in itertools.product(range(1, n + 1), repeat=parts) if sum(c) == n]


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
        structures = candidates = 0
        for data in enumerate_cocategories(2, 3):
            structures += 1
            maps = _maps(data.q1.size, data.double.apex.size)
            candidates += len(maps)
            survivors = [
                q for q in maps
                if check_cocategory(FINSET, CoCategoryData(
                    data.q0, data.q1, data.l, data.r, data.i, q,
                    data.double)).ok
            ]
            assert survivors == [data.q]
        assert (structures, candidates) == (17, 795)

    def test_forced_q_passes_the_checker(self):
        # _q_candidates tests no axiom: covering legs force a q that
        # passes all of them, on each of the 39 covering representatives
        covering = 0
        for n0 in range(1, 4):
            for n1 in range(1, 7):
                q0, q1 = FinSetObj(n0), FinSetObj(n1)
                for _, l, r, i in _representative_triples(q0, q1):
                    if uncovered([l, r]):
                        continue
                    covering += 1
                    [data] = _q_candidates(q0, q1, l, r, i)
                    assert check_cocategory(FINSET, data).ok
        assert covering == 39

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
        for data in enumerate_cocategories(3, 6):
            assert data.double == pushout(data.r, data.l)

    def test_transport_matches_fresh_pushouts(self):
        ours = list(enumerate_cocategories(3, 6))
        oracle = list(_relabelled_by_pushouts(3, 6))
        assert len(ours) == len(oracle) == 1199
        for data, expected in zip(ours, oracle):
            # witnesses compare by apex, injections and legs
            for f in dataclasses.fields(CoCategoryData):
                assert getattr(data, f.name) == getattr(expected, f.name), f.name

    def test_searched_and_found_at_3_6(self):
        # one non-decreasing i per composition of |Q1| into |Q0| parts,
        # with (product of the parts)^2 pairs of sections each; the
        # found counts are the closed form of test_bounds_3_5_closed_form
        blocks = []
        total = sum(1 for _ in enumerate_cocategories(3, 6, progress=blocks.append))
        searched = {(b["q0"], b["q1"]): b["lri_triples"] for b in blocks}
        found = {(b["q0"], b["q1"]): b["found"] for b in blocks}
        assert list(searched) == [(n0, n1) for n0 in range(1, 4) for n1 in range(1, 7)]
        for (n0, n1) in searched:
            assert searched[(n0, n1)] == sum(math.prod(c) ** 2
                                             for c in _compositions(n1, n0))
            s = 2 * n0 - n1
            assert found[(n0, n1)] == (math.comb(n0, s) * math.factorial(n1)
                                       if 0 <= s <= n0 else 0)
        assert sum(searched.values()) == 913
        assert sum(found.values()) == total == 1199

    def test_vacuous_bounds_report_progress(self):
        blocks = []
        found = list(enumerate_cocategories(0, 3, progress=blocks.append))
        assert blocks == [{"q0": 0, "q1": 0, "lri_triples": 1, "found": 1}]
        assert sum(b["found"] for b in blocks) == len(found)

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


def _non_covering_triples(max_q0, max_q1):
    """The representative (q0, q1, l, r, i) up to (max_q0, max_q1) whose
    legs l, r together miss some element of Q1."""
    for n0 in range(1, max_q0 + 1):
        for n1 in range(1, max_q1 + 1):
            q0, q1 = FinSetObj(n0), FinSetObj(n1)
            for _, l, r, i in _representative_triples(q0, q1):
                if set(l.table) | set(r.table) != set(range(n1)):
                    yield q0, q1, l, r, i


class TestEarlyRejection:
    """``_q_candidates`` rejects (l, r, i) whose legs miss Q1 before any
    pushout; these tests rebuild what it skips and check it was empty."""

    def test_no_apex_element_folds_back_to_a_missed_point(self):
        # the counit folds [l.i, 1] and [1, r.i], by the generic copair
        triples = 0
        for q0, q1, l, r, i in _non_covering_triples(3, 6):
            triples += 1
            double = pushout(r, l)
            fold_left = copair(double, compose(i, l), identity(q1))
            fold_right = copair(double, identity(q1), compose(i, r))
            missed = set(range(q1.size)) - set(l.table) - set(r.table)
            assert missed
            for z in missed:
                assert not any(fold_left(w) == z == fold_right(w)
                               for w in range(double.apex.size))
        assert triples == 874

    def test_no_q_passes_the_checker(self):
        triples = candidates = 0
        for q0, q1, l, r, i in _non_covering_triples(3, 3):
            triples += 1
            double = pushout(r, l)
            for q in _maps(q1.size, double.apex.size):
                candidates += 1
                data = CoCategoryData(q0, q1, l, r, i, q, double)
                assert not check_cocategory(FINSET, data).ok
        assert (triples, candidates) == (15, 1399)

    def test_only_covering_triples_build_pushouts(self, monkeypatch):
        # 39 of the 913 representatives at (3, 6) cover Q1, and each
        # builds its double pushout; relabelling builds none
        calls = []
        real = finset.pushout

        def counting(f, g):
            calls.append((f, g))
            return real(f, g)

        monkeypatch.setattr(finset, "pushout", counting)
        assert sum(1 for _ in enumerate_cocategories(3, 6)) == 1199
        assert len(calls) == 39


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

    def test_forced_morphisms_match_all_pairs(self):
        # the oracle tries every (f0, f1) in order, without forcing f1
        # from the l- and r-squares
        def all_pairs(q, r):
            return [(f0, f1) for f0 in _maps(q.q0.size, r.q0.size)
                    for f1 in _maps(q.q1.size, r.q1.size)
                    if check_cocat_morphism(FINSET, q, r, f0, f1).ok]

        structures = list(enumerate_cocategories(2, 3)) + [
            trivial_cocategory(),
            cokernel_pair_cocategory(subset_mono([], FinSetObj(1))),
            cokernel_pair_cocategory(subset_mono([0], FinSetObj(2))),
            cokernel_pair_cocategory(subset_mono([], FinSetObj(2))),
            universal_cocategory(),
        ]
        morphisms = 0
        for q in structures:
            for r in structures:
                found = cocat_morphisms(q, r)
                assert found == all_pairs(q, r)
                morphisms += len(found)
        assert len(structures) == 22 and morphisms > 0

    def test_size_limit(self):
        # f1 is forced, so the space is every f0: 8**7 > 10**6
        q = cokernel_pair_cocategory(subset_mono([], FinSetObj(7)))
        r = cokernel_pair_cocategory(subset_mono([], FinSetObj(8)))
        with pytest.raises(SizeLimit):
            cocat_morphisms(q, r)


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

    def test_size_limit(self):
        # 10! > 10**6 permutations of Q0; over a fixed Q0 there is one
        q = cokernel_pair_cocategory(subset_mono([], FinSetObj(10)))
        with pytest.raises(SizeLimit):
            iso_cocategories(q, q)
        assert iso_cocategories(q, q, fix_q0=True) is not None


def _hand_built(n0, n1, l, r, i, q):
    """A structure with the given tables and canonical witnesses; its
    axioms need not hold."""
    q0, q1 = FinSetObj(n0), FinSetObj(n1)
    l_map, r_map = FinMap(q0, q1, l), FinMap(q0, q1, r)
    double = pushout(r_map, l_map)
    return CoCategoryData(q0, q1, l_map, r_map, FinMap(q1, q0, i),
                          FinMap(q1, double.apex, q), double)


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
    def test_uncovered_element_is_undecided(self, q, has_coinverse):
        # l = r miss element 1 of Q1, so s(1) is not forced: enumeration
        # finds a co-inverse for q = (0, 0) and none for q = (0, 1), where
        # left-cancel fails for all, but off a co-category find_coinverse
        # decides neither
        d = _hand_built(1, 2, (0,), (0,), (0, 0), q)
        solutions, searched = coinverse_candidates(FINSET, d)
        assert searched == 4 and bool(solutions) is has_coinverse
        with pytest.raises(UnsupportedCapability, match="not forced"):
            find_coinverse(FINSET, d)

    def test_legs_outside_q1_are_a_type_mismatch(self):
        d = _hand_built(1, 2, (0,), (1,), (0, 0), (0, 0))
        wide = FinMap(d.q0, FinSetObj(3), (2,))
        with pytest.raises(TypeMismatch):
            FINSET.solve_coinverse(CoCategoryData(d.q0, d.q1, wide, d.r, d.i, d.q,
                                                  d.double))


def test_uncovering_legs_force_nothing():
    # l = r miss element 1 of Q1, so neither f1 nor s is forced
    d = _hand_built(1, 2, (0,), (0,), (0, 0), (0, 0))
    with pytest.raises(UnsupportedCapability):
        cocat_morphisms(d, d)
    with pytest.raises(UnsupportedCapability):
        iso_cocategories(d, d)
    with pytest.raises(UnsupportedCapability):
        FINSET.solve_coinverse(d)
    # into l' = (0,), r' = (1,) every f0 asks f1(0) to be both 0 and 1,
    # so no f1 exists whatever it does off im(l): the answer is proven
    dst = cokernel_pair_cocategory(subset_mono([], FinSetObj(1)))
    assert (dst.l.table, dst.r.table) == ((0,), (1,))
    assert cocat_morphisms(d, dst) == []
    assert iso_cocategories(d, dst) is None
