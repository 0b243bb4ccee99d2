"""Generic axiom checking, classification flags, morphism squares and
reassembly, exercised through the finite-set host; the optional
``inverse`` capability, the ``solve_coinverse`` contract and the
joint-epi and joint-mono tests on an empty family in every host; and
the axiom checker as it stood when every structure carried its triple
pushout, kept as the reference for :func:`check_cocategory`."""

import pytest
from hypothesis import given, reject, settings

from cocat.core import (
    Check,
    ClosureExceeded,
    CoCategoryData,
    CoconeMismatch,
    IllFormedPushout,
    InvariantViolation,
    NotFree,
    Op,
    OpMap,
    PushoutWitness,
    Report,
    TypeMismatch,
    UnsupportedCapability,
    check_cocat_morphism,
    check_cocategory,
    classify,
    coinverse_candidates,
    coinverse_violation,
    cokernel_pair,
    find_coinverse,
    reassemble,
    triple_pushout,
)
from cocat.abgp import ABGP, AbMap, FgAbGroup, free_group, group_example_cocategory
from cocat.chain import CH, ChainComplex, ChainMap, chain_example_cocategory, chain_identity
from cocat.fincat import CAT, arrow_category, functor_identity, interval_cocategory
from cocat.intmatrix import IntMatrix
from cocat.finset import (
    FINSET,
    FinMap,
    FinSet,
    FinSetObj,
    cokernel_pair_cocategory,
    compose,
    enumerate_cocategories,
    identity,
    is_mono,
    pushout,
    subset_mono,
    trivial_cocategory,
    universal_cocategory,
)
from test_abgp import _dualised_sweep
from test_abgp import coreflexive_pairs as abgp_coreflexive_pairs
from test_chain import coreflexive_pairs as chain_coreflexive_pairs
from test_fincat import discrete_cokernel, walking_iso_interval
from test_golden import _abgp_cokernel, _cat_composite, _chain_cokernel


@pytest.fixture
def pair_example():
    """Cokernel pair of the one-point subobject of a two-point set."""
    return cokernel_pair_cocategory(subset_mono([0], FinSetObj(2)))


class TestAxioms:
    def test_trivial(self):
        report = check_cocategory(FINSET, trivial_cocategory())
        assert report.ok

    def test_discrete(self):
        # Q0 = Q1 = X, all structure maps the identity up to the
        # collapsed pushout
        data = cokernel_pair_cocategory(identity(FinSetObj(3)))
        assert data.q1.size == 3
        assert data.l == data.r == identity(FinSetObj(3))
        assert check_cocategory(FINSET, data).ok

    def test_pair(self, pair_example):
        report = check_cocategory(FINSET, pair_example)
        assert report.ok
        assert report.failures == ()
        names = [c.name for c in report.checks]
        assert names == ["left-compat", "right-compat", "left-section",
                         "right-section", "left-counit", "right-counit", "coassoc"]

    def test_q_is_split_mono(self, pair_example):
        # the counit copairing is a left inverse of q
        data = pair_example
        assert is_mono(data.q)
        fold = FINSET.copair(data.double, compose(data.i, data.l), identity(data.q1))
        assert compose(data.q, fold) == identity(data.q1)

    def test_broken_counit_reported(self, pair_example):
        d = pair_example
        # send everything to nu1's copy: breaks the right-compat square
        bad_q = FinMap(d.q1, d.double.apex, d.double.injections[0].table)
        broken = CoCategoryData(d.q0, d.q1, d.l, d.r, d.i, bad_q, d.double)
        report = check_cocategory(FINSET, broken)
        assert not report.ok
        assert "right-compat" in report.failures

    def test_type_mismatch(self, pair_example):
        d = pair_example
        wrong = FinMap(FinSetObj(5), d.q1, (0, 0, 0, 0, 0))
        with pytest.raises(TypeMismatch):
            check_cocategory(FINSET, CoCategoryData(
                d.q0, d.q1, wrong, d.r, d.i, d.q, d.double))

    def test_ill_formed_witness(self, pair_example):
        d = pair_example
        # witness whose injections do not satisfy the gluing relation
        fake = PushoutWitness(apex=d.double.apex,
                              injections=(d.double.injections[0],) * 2,
                              legs=d.double.legs)
        with pytest.raises(IllFormedPushout):
            check_cocategory(FINSET, CoCategoryData(
                d.q0, d.q1, d.l, d.r, d.i, d.q, fake))

    def test_non_pushout_witness_rejected(self, pair_example):
        d = pair_example
        # gluing relation holds (constant maps) but the apex is too big
        bigger = FinSetObj(d.double.apex.size + 1)
        const1 = FinMap(d.q1, bigger, (0,) * d.q1.size)
        fake = PushoutWitness(apex=bigger, injections=(const1, const1), legs=d.double.legs)
        q = FinMap(d.q1, bigger, (0,) * d.q1.size)
        with pytest.raises(IllFormedPushout):
            check_cocategory(FINSET, CoCategoryData(
                d.q0, d.q1, d.l, d.r, d.i, q, fake))

    class NoPushouts(FinSet):
        def pushout(self, f, g):
            raise ClosureExceeded("no pushouts here")

    def test_host_error_on_the_triple_is_raised(self, pair_example):
        # the checker builds the triple pushout itself; a host that
        # cannot build it raises, rather than failing an axiom.  This
        # host does not decide joint epimorphy, so the triple is needed
        class NoPushouts(self.NoPushouts):
            def joint_epi_status(self, maps):
                return None, None

        with pytest.raises(ClosureExceeded, match="no pushouts here"):
            check_cocategory(NoPushouts(), pair_example)

    def test_copreorder_needs_no_pushout(self, pair_example):
        # l and r are jointly epi, so the counits and co-associativity
        # follow from the compat and section laws
        report = check_cocategory(self.NoPushouts(), pair_example)
        assert report.ok and len(report.checks) == 7

    @pytest.mark.parametrize("cat, build, built", [
        (FINSET, lambda: cokernel_pair_cocategory(subset_mono([0], FinSetObj(2))), 0),
        (ABGP, _abgp_cokernel, 0),
        (CH, lambda: cokernel_pair(CH, chain_identity(_interval)), 0),
        (CH, _chain_cokernel, 0),
        (CAT, lambda: discrete_cokernel(3, 2), 0),
        (ABGP, group_example_cocategory, 1),
        (CAT, interval_cocategory, 1),
    ], ids=["finset-cokernel", "abgp-cokernel", "chain-cokernel-identity",
            "chain-cokernel-zero", "cat-cokernel", "abgp-example", "cat-interval"])
    def test_triple_pushout_only_off_jointly_epi_legs(self, cat, build, built):
        # the one pushout the full check builds is the triple's
        data = build()
        calls = []

        class Counting(type(cat)):
            def pushout(self, f, g):
                calls.append((f, g))
                return super().pushout(f, g)

        assert check_cocategory(Counting(), data).ok
        assert len(calls) == built


class TestClassify:
    def test_flags_all_true(self, pair_example):
        cls = classify(FINSET, pair_example)
        assert (cls.is_cocategory, cls.is_copreorder,
                cls.is_cogroupoid, cls.is_coequivalence) == (True, True, True, True)
        assert cls.coinverse is not None

    def test_monotone_flags(self, pair_example):
        cls = classify(FINSET, pair_example)
        if cls.is_coequivalence:
            assert cls.is_copreorder and cls.is_cogroupoid

    def test_undecided_copreorder_leaves_coequivalence_undecided(self, pair_example):
        class NoJointEpi(FinSet):
            def joint_epi_status(self, maps):
                raise UnsupportedCapability("no joint-epi test")

        cls = classify(NoJointEpi(), pair_example)
        assert (cls.is_copreorder, cls.is_cogroupoid, cls.is_coequivalence) == (None, True, None)

    def test_not_cocategory(self, pair_example):
        d = pair_example
        bad_q = FinMap(d.q1, d.double.apex, (0,) * d.q1.size)
        broken = CoCategoryData(d.q0, d.q1, d.l, d.r, d.i, bad_q, d.double)
        cls = classify(FINSET, broken)
        assert not cls.is_cocategory
        assert cls.is_coequivalence is None
        assert "axioms" in cls.witnesses


class TestCoinverse:
    def test_swap_of_copies(self, pair_example):
        d = pair_example
        s = find_coinverse(FINSET, d)
        # independent construction: copair the m-pushout's injections
        # in swapped order
        m = subset_mono([0], FinSetObj(2))
        w = pushout(m, m)
        swap = FINSET.copair(w, d.r, d.l)
        assert s == swap

    def test_identities_checked_in_order(self, pair_example):
        d = pair_example
        bad = FinMap(d.q1, d.q1, (0,) * d.q1.size)
        assert coinverse_violation(FINSET, d, bad) == "swap-left"

    def test_unique(self, pair_example):
        solutions, searched = coinverse_candidates(FINSET, pair_example)
        assert searched == 27  # all maps Q1 -> Q1
        assert len(solutions) == 1

    @pytest.mark.parametrize("cat, build", [
        (FINSET, lambda: cokernel_pair_cocategory(subset_mono([0], FinSetObj(2)))),
        (FINSET, universal_cocategory),
        (ABGP, group_example_cocategory),
        (ABGP, lambda: cokernel_pair(ABGP, AbMap(free_group(1), free_group(1),
                                                 IntMatrix.from_rows([[2]])))),
        (CH, chain_example_cocategory),
        (CH, lambda: cokernel_pair(CH, chain_identity(_interval))),
        (CAT, lambda: discrete_cokernel(3, 2)),
        (CAT, walking_iso_interval),
    ], ids=["finset-cokernel", "finset-universal", "abgp-example", "abgp-torsion",
            "chain-example", "chain-interval", "cat-cokernel", "cat-walking-iso"])
    def test_solver_returns_only_checked_coinverses(self, cat, build):
        # the solve_coinverse contract, on which find_coinverse relies
        # instead of re-checking
        data = build()
        s = cat.solve_coinverse(data)
        assert s is not None and coinverse_violation(cat, data, s) is None


class TestMorphisms:
    def test_identity_morphism(self, pair_example):
        d = pair_example
        rep = check_cocat_morphism(FINSET, d, d, identity(d.q0), identity(d.q1))
        assert rep.ok

    def test_map_to_trivial(self, pair_example):
        d = pair_example
        t = trivial_cocategory()
        f0 = FinMap(d.q0, t.q0, (0, 0))
        f1 = FinMap(d.q1, t.q1, (0, 0, 0))
        assert check_cocat_morphism(FINSET, d, t, f0, f1).ok

    def test_q_square_can_fail_alone(self):
        # hand-built (non-valid) structure where l, r, i squares pass
        # but the q-square does not
        q0, q1 = FinSetObj(1), FinSetObj(3)
        l = r = FinMap(q0, q1, (0,))
        i = FinMap(q1, q0, (0, 0, 0))
        double = pushout(r, l)
        q = FinMap(q1, double.apex, (0, 1, 1))
        data = CoCategoryData(q0, q1, l, r, i, q, double)
        f0 = identity(q0)
        f1 = FinMap(q1, q1, (0, 2, 1))
        rep = check_cocat_morphism(FINSET, data, data, f0, f1)
        assert not rep.ok
        assert rep.failures == ("q-square",)

    @pytest.mark.parametrize("wrong", ["f0-cod", "f0-dom", "f1-cod", "f1-dom"])
    def test_one_wrong_end_rejected(self, pair_example, wrong):
        d = pair_example
        other = FinSetObj(1)
        maps = {"f0": identity(d.q0), "f1": identity(d.q1)}
        name, end = wrong.split("-")
        obj = maps[name].dom
        maps[name] = (FinMap(obj, other, (0,) * obj.size) if end == "cod"
                      else FinMap(other, obj, (0,)))
        with pytest.raises(TypeMismatch, match=f"{name} must map"):
            check_cocat_morphism(FINSET, d, d, maps["f0"], maps["f1"])

    def test_named_failures(self, pair_example):
        d = pair_example
        f0 = identity(d.q0)
        f1 = FinMap(d.q1, d.q1, (1, 0, 2))
        rep = check_cocat_morphism(FINSET, d, d, f0, f1)
        assert not rep.ok
        assert "left-square" in rep.failures


class TestCokernelPairConstruction:
    def test_sizes(self):
        # |A +_S A| = 2|A| - |S|
        for a in range(5):
            for subset in range(a + 1):
                m = subset_mono(range(subset), FinSetObj(a))
                data = cokernel_pair(FINSET, subset_mono(range(subset), FinSetObj(a)))
                assert data.q1.size == 2 * a - subset
                assert check_cocategory(FINSET, data).ok

    def test_identity_mono_gives_trivial(self):
        data = cokernel_pair_cocategory(identity(FinSetObj(4)))
        assert data.q1.size == 4

    def test_empty_mono_gives_two_copies(self):
        data = cokernel_pair_cocategory(subset_mono([], FinSetObj(2)))
        assert data.q1.size == 4


class TestReassemble:
    def test_own_injections_leave_structure_unchanged(self, pair_example):
        d = pair_example
        assert reassemble(FINSET, d.l, d.r, d.i, d.q, d.double.injections) == d

    def test_glued_into_larger_set_is_not_invertible(self, pair_example):
        d = pair_example
        incl = subset_mono(range(d.double.apex.size), FinSetObj(d.double.apex.size + 1))
        glued = tuple(compose(nu, incl) for nu in d.double.injections)
        with pytest.raises(InvariantViolation, match="pushout comparison is not invertible"):
            reassemble(FINSET, d.l, d.r, d.i, compose(d.q, incl), glued)


# two vertices and an edge from the first to the second
_interval = ChainComplex((2, 1), (IntMatrix.from_rows([[-1], [1]]),))
_zero_boundary = ChainComplex((1, 1), (IntMatrix.zeros(1, 1),))


class TestInverse:
    @pytest.mark.parametrize("cat, f", [
        (FINSET, FinMap(FinSetObj(3), FinSetObj(3), (2, 0, 1))),
        (ABGP, AbMap(free_group(2), free_group(2), IntMatrix.from_rows([[2, 1], [1, 1]]))),
        # swap the vertices and reverse the edge
        (CH, ChainMap(_interval, _interval,
                      (IntMatrix.from_rows([[0, 1], [1, 0]]), IntMatrix.from_rows([[-1]])))),
    ])
    def test_two_sided(self, cat, f):
        g = cat.inverse(f)
        assert cat.equal(cat.compose(f, g), cat.identity(f.dom))
        assert cat.equal(cat.compose(g, f), cat.identity(f.cod))

    @pytest.mark.parametrize("cat, f", [
        (FINSET, FinMap(FinSetObj(3), FinSetObj(3), (0, 0, 1))),
        (ABGP, AbMap(free_group(1), free_group(1), IntMatrix.from_rows([[2]]))),
        (ABGP, AbMap(free_group(1), free_group(2), IntMatrix.from_rows([[1], [0]]))),
        # invertible in degree 0, determinant 2 in degree 1
        (CH, ChainMap(_zero_boundary, _zero_boundary,
                      (IntMatrix.identity(1), IntMatrix.from_rows([[2]])))),
    ])
    def test_none_off_isomorphisms(self, cat, f):
        assert cat.inverse(f) is None

    def test_abgp_torsion_unsupported(self):
        z2 = FgAbGroup(1, IntMatrix.from_rows([[2]]))
        with pytest.raises(UnsupportedCapability):
            ABGP.inverse(AbMap(z2, z2, IntMatrix.identity(1)))

    def test_cat_unsupported(self):
        with pytest.raises(UnsupportedCapability):
            CAT.inverse(functor_identity(arrow_category()))


@pytest.mark.parametrize("status", [
    FINSET.joint_epi_status,
    CAT.joint_epi_status,
    ABGP.joint_epi_status,
    ABGP.joint_mono_status,
    CH.joint_epi_status,
    Op(ABGP).joint_epi_status,
], ids=["finset-epi", "cat-epi", "abgp-epi", "abgp-mono", "chain-epi", "op-abgp-epi"])
def test_empty_family_is_a_type_mismatch(status):
    with pytest.raises(TypeMismatch, match="need at least one map"):
        status(())


# ---------------------------------------------------------------------------
# The checker as it stood when structures carried their triple pushout


def reference_check_cocategory(cat, data, triple) -> Report:
    """The axiom checker as it stood when every structure carried its
    triple pushout, given here as ``triple``: that witness is type- and
    gluing-checked and must cover its apex, and co-associativity
    copairs through it.  The double's checks did not change.  The
    reference for :func:`check_cocategory`, which builds the triple."""
    t1, t2, t3 = triple.injections
    for k, inj in enumerate(triple.injections, start=1):
        if (inj.dom, inj.cod) != (data.q1, triple.apex):
            raise TypeMismatch(f"triple nu{k}: wrong domain or codomain")
    if not cat.equal(cat.compose(data.r, t1), cat.compose(data.l, t2)):
        raise IllFormedPushout("triple witness: nu1.r != nu2.l")
    if not cat.equal(cat.compose(data.r, t2), cat.compose(data.l, t3)):
        raise IllFormedPushout("triple witness: nu2.r != nu3.l")
    if cat.joint_epi_status(triple.injections)[0] is False:
        raise IllFormedPushout("triple witness: injections do not cover the apex")

    l, r, i, q = data.l, data.r, data.i, data.q
    n1, n2 = data.double.injections
    id0 = cat.identity(data.q0)
    id1 = cat.identity(data.q1)
    checks = [
        Check("left-compat", cat.equal(cat.compose(l, q), cat.compose(l, n1))),
        Check("right-compat", cat.equal(cat.compose(r, q), cat.compose(r, n2))),
        Check("left-section", cat.equal(cat.compose(l, i), id0)),
        Check("right-section", cat.equal(cat.compose(r, i), id0)),
    ]
    for name, u, v in (("left-counit", cat.compose(i, l), id1),
                       ("right-counit", id1, cat.compose(i, r))):
        try:
            fold = cat.copair(data.double, u, v)
            checks.append(Check(name, cat.equal(cat.compose(q, fold), id1)))
        except CoconeMismatch as exc:
            checks.append(Check(name, False, f"copairing undefined: {exc}"))
    try:
        # the double into the triple as copies (1, 2) and as copies (2, 3)
        j1 = cat.copair(data.double, t1, t2)
        kappa = cat.copair(data.double, t2, t3)
        lhs = cat.copair(data.double, cat.compose(q, j1), t3)
        rhs = cat.copair(data.double, t1, cat.compose(q, kappa))
        checks.append(Check("coassoc", cat.equal(cat.compose(q, lhs), cat.compose(q, rhs))))
    except CoconeMismatch as exc:
        checks.append(Check("coassoc", False, f"copairing undefined: {exc}"))
    return Report(tuple(checks))


def _broken_q(data):
    """Corruptions of a finite-set q that change it: everything sent into
    the first copy, and one entry moved to the next apex element."""
    nu1 = data.double.injections[0]
    apex = data.double.apex
    moved = ((data.q.table[0] + 1) % apex.size,) + data.q.table[1:]
    for table in (nu1.table, moved):
        if table != data.q.table:
            yield CoCategoryData(data.q0, data.q1, data.l, data.r, data.i,
                                 FinMap(data.q1, apex, table), data.double)


def _transposed_triple(icat):
    """For a dualised structure, the witness it used to carry: abgp's
    triple pushout over the transposed-back double, transposed; None
    when that apex has torsion."""

    def back(f):
        return AbMap(f.dom, f.cod, f.base.matrix.transpose())

    def there(f):
        return OpMap(AbMap(f.cod, f.dom, f.matrix.transpose()))

    double = PushoutWitness(icat.double.apex, tuple(map(back, icat.double.injections)),
                            tuple(map(back, icat.double.legs)))
    triple = triple_pushout(ABGP, double)
    if not triple.apex.is_free:
        return None
    return PushoutWitness(triple.apex, tuple(map(there, triple.injections)),
                          tuple(map(there, triple.legs)))


def _forced_q_data(cat, l, r, i):
    """The co-category on an additive co-reflexive pair, with the forced
    q = nu1 + nu2 - nu1.r.i, degree by degree in chain complexes."""
    q1 = l.cod
    double = cat.pushout(r, l)
    n1, n2 = double.injections
    if cat is ABGP:
        q = AbMap(q1, double.apex, n1.matrix + n2.matrix - n1.matrix @ r.matrix @ i.matrix)
    else:
        q = ChainMap(q1, double.apex, tuple(m1 + m2 - m1 @ rd @ id_ for m1, m2, rd, id_ in zip(
            n1.mats, n2.mats, r.mats, i.mats)))
    return CoCategoryData(l.dom, q1, l, r, i, q, double)


class TestReferenceChecker:
    """``check_cocategory`` gives the reference's report, axiom by axiom
    and detail by detail, whether it reads the counits and
    co-associativity off jointly epi legs or checks them through the
    triple pushout."""

    @staticmethod
    def _agree(cat, data, triple=None):
        ours = check_cocategory(cat, data)
        if triple is None:
            triple = triple_pushout(cat, data.double)
        assert ours == reference_check_cocategory(cat, data, triple)
        return ours

    def test_every_structure_at_3_5_and_broken_q(self):
        structures = broken = 0
        for data in enumerate_cocategories(3, 5):
            assert self._agree(FINSET, data).ok
            structures += 1
            for bad in _broken_q(data):
                # q is forced, so any other q fails some axiom
                assert not self._agree(FINSET, bad).ok
                broken += 1
        assert (structures, broken) == (479, 948)

    @pytest.mark.parametrize("cat, build", [
        (FINSET, lambda: cokernel_pair_cocategory(subset_mono([0], FinSetObj(2)))),
        (ABGP, group_example_cocategory),
        (CH, chain_example_cocategory),
        (CAT, interval_cocategory),
    ], ids=["finset", "abgp", "chain", "cat"])
    def test_host_examples(self, cat, build):
        assert self._agree(cat, build()).ok

    def test_dualised_sweep(self):
        op = Op(ABGP)
        verdicts = []
        transposed = 0
        for icat in _dualised_sweep():
            triple = _transposed_triple(icat)
            transposed += triple is not None
            verdicts.append(self._agree(op, icat, triple).ok)
        # two structures have torsion in abgp's triple pushout; the
        # reference gets the pullback of composable triples for them
        assert (len(verdicts), transposed) == (105, 103)
        assert (verdicts.count(True), verdicts.count(False)) == (51, 54)

    def test_cat_composite_takes_the_full_path(self):
        # the compat and section laws hold, but l and r are not jointly
        # epi, so the counits and co-associativity are checked, and fail
        data = _cat_composite()
        assert CAT.joint_epi_status((data.l, data.r))[0] is False
        report = self._agree(CAT, data)
        assert report.failures == ("left-counit", "right-counit", "coassoc")

    @pytest.mark.parametrize("c", range(5))
    def test_cat_cokernels_of_the_empty_category(self, c):
        # the legs' images generate discrete(c) + discrete(c)
        data = discrete_cokernel(c, 0)
        assert CAT.joint_epi_status((data.l, data.r)) == (True, None)
        assert self._agree(CAT, data).ok

    @given(abgp_coreflexive_pairs())
    @settings(max_examples=50, deadline=None)
    def test_abgp_coreflexive_pairs(self, lri):
        assert self._agree(ABGP, _forced_q_data(ABGP, *lri)).ok

    @given(chain_coreflexive_pairs())
    @settings(max_examples=50, deadline=None)
    def test_chain_coreflexive_pairs(self, lri):
        try:
            data = _forced_q_data(CH, *lri)
            triple = triple_pushout(CH, data.double)
        except NotFree:
            # a free pushout that keeps a relator with no unit entry, as
            # in TestChainPushout.test_free_pushout_with_no_unit_relator
            reject()
        assert self._agree(CH, data, triple).ok
