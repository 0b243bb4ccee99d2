"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them
stream).  Everything here is exact integer arithmetic, so "tolerance"
is always equality; randomized engine checks use a fixed seed."""

import itertools
import json
import random

from click.testing import CliRunner

from cocat.cli import main
from cocat.core import (
    check_cocategory,
    coinverse_candidates,
    coinverse_violation,
    find_coinverse,
)
from cocat import abgp, chain, fincat, finset
from cocat.intmatrix import IntMatrix, diagonal, hnf, invert_unimodular, kernel_basis, snf


def _unimodular(u: IntMatrix) -> bool:
    """u is unimodular exactly when some integer v has u @ v = I."""
    try:
        return u @ invert_unimodular(u) == IntMatrix.identity(u.rows)
    except ValueError:
        return False


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, name


def _maps(dom_size, cod_size):
    dom, cod = finset.FinSetObj(dom_size), finset.FinSetObj(cod_size)
    return [finset.FinMap(dom, cod, t)
            for t in itertools.product(range(cod_size), repeat=dom_size)]


def test_criterion_1_theorem_harness():
    """Exhaustive enumeration finds structures and zero violations."""
    runner = CliRunner()
    result = runner.invoke(main, ["enumerate", "--q0-max", "2", "--q1-max", "4",
                                  "--verify-theorem", "--format", "json"])
    ok = result.exit_code == 0
    payload = json.loads(result.output) if ok else {}
    summary = payload.get("summary", {})
    ok = (ok and summary.get("nontrivial-structures", 0) >= 1
          and summary.get("violations", -1) == 0
          and summary.get("structures", 0) == 41)
    _report("criterion 1: theorem harness at bounds (2, 4)", ok,
            f"{summary.get('structures')} structures, "
            f"{summary.get('violations')} violations")


def test_criterion_2_roundtrips():
    """Mono -> co-category -> mono is exact; co-category -> mono ->
    co-category recovers the structure up to isomorphism."""
    failures = 0
    checked = 0
    for a in range(5):
        for k in range(a + 1):
            for elements in itertools.combinations(range(a), k):
                m = finset.subset_mono(elements, finset.FinSetObj(a))
                data = finset.cokernel_pair_cocategory(m)
                eq = finset.equalizer(data.l, data.r)
                checked += 1
                if finset.Subobject.from_mono(eq) != finset.Subobject.from_mono(m):
                    failures += 1
    for data in finset.enumerate_cocategories(2, 4):
        rebuilt = finset.cokernel_pair_cocategory(finset.equalizer(data.l, data.r))
        checked += 1
        if finset.iso_cocategories(data, rebuilt) is None:
            failures += 1
    _report("criterion 2: subobject round trips", failures == 0,
            f"{checked} round trips, {failures} failures")


def test_criterion_3_universal_and_colax():
    """The universal structure is three-pointed, characteristic maps
    are unique, and the colax correspondence bijects."""
    uni = finset.universal_cocategory()
    ok = uni.q1.size == 3
    for data in finset.enumerate_cocategories(2, 4):
        hits = [chi for chi in _maps(data.q0.size, 2)
                if finset.iso_cocategories(
                    finset.pullback_cocategory(chi), data, fix_q0=True) is not None]
        if len(hits) != 1:
            ok = False
            break
    builtins = [
        finset.trivial_cocategory(),
        finset.cokernel_pair_cocategory(finset.subset_mono([], finset.FinSetObj(1))),
        finset.cokernel_pair_cocategory(finset.subset_mono([0], finset.FinSetObj(2))),
        finset.cokernel_pair_cocategory(finset.subset_mono([], finset.FinSetObj(2))),
        finset.universal_cocategory(),
    ]
    pairs = 0
    for q in builtins:
        for r in builtins:
            pairs += 1
            if not finset.verify_colax_correspondence(q, r):
                ok = False
    _report("criterion 3: universal structure and colax correspondence", ok,
            f"|Q1| = {uni.q1.size}, {pairs} colax pairs")


def test_criterion_4_group_counterexample():
    """The explicit matrices, their failed joint epimorphy, the unique
    co-inverse, and the transposed internal category."""
    data = abgp.group_example_cocategory()
    ok = (data.l.matrix == abgp.EXAMPLE_L and data.r.matrix == abgp.EXAMPLE_R
          and data.i.matrix == abgp.EXAMPLE_I and data.q.matrix == abgp.EXAMPLE_Q)
    ok = ok and check_cocategory(abgp.ABGP, data).ok
    status, witness = abgp.ABGP.joint_epi_status((data.l, data.r))
    ok = ok and status is False and witness["cokernel_invariant_factors"] == (0,)
    s = find_coinverse(abgp.ABGP, data)
    ok = ok and s is not None and coinverse_violation(abgp.ABGP, data, s) is None
    ok = ok and s.matrix == abgp.EXAMPLE_S
    icat = abgp.transpose_dualize(data)
    ok = ok and abgp.check_internal_category(icat).ok
    _report("criterion 4: group counterexample, entrywise", ok)


def test_criterion_5_chain_consistency():
    """Total space matches the group example entrywise; the nerve
    pipeline reproduces the chain example."""
    example = chain.chain_example_cocategory()
    total = chain.total_space(example)
    grp = abgp.group_example_cocategory()
    ok = (total.l.matrix == grp.l.matrix and total.r.matrix == grp.r.matrix
          and total.i.matrix == grp.i.matrix and total.q.matrix == grp.q.matrix)
    out = chain.pipeline_cocategory(fincat.interval_cocategory())
    iso_found = out == example  # equal on the nose: identity is the iso
    ok = ok and iso_found
    glued = fincat.interval_cocategory().double.apex
    full = chain.free_normalized_chains(chain.nerve(glued))
    _, proj, _ = chain._truncation_data(full)
    composite_relation = tuple(
        x + y for x, y in zip(proj.col(0), proj.col(1))) == proj.col(2)
    ok = ok and composite_relation
    _report("criterion 5: chain consistency and nerve pipeline", ok,
            "composite = e1 + e2 exhibited" if composite_relation else "")


def test_criterion_6_interval():
    """The interval passes the axioms, has no co-inverse among its
    three endofunctors, and joint epimorphy is refuted by size 6."""
    data = fincat.interval_cocategory()
    ok = check_cocategory(fincat.CAT, data).ok
    solutions, searched = coinverse_candidates(fincat.CAT, data)
    ok = ok and searched == 3 and not solutions
    witness = fincat.joint_epi_counterexample(data, 6)
    ok = ok and witness is not None and witness[0].n_morphisms <= 6
    _report("criterion 6: the interval in finite categories", ok,
            f"{searched} endofunctors, witness size "
            f"{witness[0].n_morphisms if witness else 'none'}")


def test_criterion_7_uniqueness():
    """The co-composition is pinned by (l, r, i), and co-inverses are
    unique when they exist."""
    ok = True
    for data in finset.enumerate_cocategories(2, 4):
        if finset.count_q_solutions(data.q0, data.q1, data.l, data.r, data.i) != 1:
            ok = False
            break
        solutions, _ = coinverse_candidates(finset.FINSET, data)
        if len(solutions) != 1:
            ok = False
            break
    _report("criterion 7: uniqueness of q and the co-inverse", ok)


def test_criterion_8_engine_correctness():
    """Normal-form postconditions, universal properties and the chain
    law on 1000 randomized instances each."""
    rng = random.Random(20080619)
    failures = 0

    for _ in range(1000):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols)
        h, u = hnf(m)
        if m @ u != h or not _unimodular(u):
            failures += 1
        d, uu, vv = snf(m)
        if (uu @ m) @ vv != d:
            failures += 1
        if not (_unimodular(uu) and _unimodular(vv)):
            failures += 1
        diag = diagonal(d)
        for a, b in zip(diag, diag[1:]):
            if a == 0:
                if b != 0:
                    failures += 1
            elif b % a != 0 or a < 0:
                failures += 1

    def random_finmap(dom, cod):
        return finset.FinMap(dom, cod,
                             tuple(rng.randrange(cod.size) for _ in range(dom.size)))

    for _ in range(1000):
        s = finset.FinSetObj(rng.randint(0, 2))
        a, b = finset.FinSetObj(rng.randint(1, 3)), finset.FinSetObj(rng.randint(1, 3))
        x = finset.FinSetObj(rng.randint(1, 2))
        f, g = random_finmap(s, a), random_finmap(s, b)
        w = finset.pushout(f, g)
        h = random_finmap(w.apex, x)
        u = finset.compose(w.injections[0], h)
        v = finset.compose(w.injections[1], h)
        factorings = [c for c in _maps(w.apex.size, x.size)
                      if finset.compose(w.injections[0], c) == u
                      and finset.compose(w.injections[1], c) == v]
        if factorings != [h] or finset.FINSET.copair(w, u, v) != h:
            failures += 1

        c = finset.FinSetObj(rng.randint(1, 3))
        fa, gb = random_finmap(a, c), random_finmap(b, c)
        obj, p1, p2 = finset.pullback(fa, gb)
        if finset.compose(p1, fa) != finset.compose(p2, gb):
            failures += 1
        if obj.size or not x.size:
            u2 = random_finmap(x, obj)
            cone_u = finset.compose(u2, p1)
            cone_v = finset.compose(u2, p2)
            factorings = [c2 for c2 in _maps(x.size, obj.size)
                          if finset.compose(c2, p1) == cone_u
                          and finset.compose(c2, p2) == cone_v]
            if factorings != [u2]:
                failures += 1

    def random_complex():
        r0, r1, r2 = (rng.randint(0, 3) for _ in range(3))
        d1 = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(r1)] for _ in range(r0)], cols=r1)
        basis = kernel_basis(d1)
        coeffs = IntMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(r2)] for _ in range(basis.cols)],
            cols=r2)
        return chain.ChainComplex((r0, r1, r2), (d1, basis @ coeffs))

    for k in range(1000):
        if k % 2 == 0:
            x = random_complex()
            if any(not (x.diff(d) @ x.diff(d + 1)).is_zero()
                   for d in range(1, x.max_degree)):
                failures += 1
        else:
            # pushout of chain maps out of a boundary-free source: the
            # induced differentials must still square to zero
            a, b = random_complex(), random_complex()
            s_ranks = tuple(rng.randint(0, 1) for _ in range(3))
            s = chain.ChainComplex(
                s_ranks, tuple(IntMatrix.zeros(s_ranks[d], s_ranks[d + 1])
                               for d in range(2)))

            def into(target):
                mats = []
                for d in range(3):
                    cols = []
                    basis = kernel_basis(target.diff(d))
                    for _ in range(s_ranks[d]):
                        coeffs = [rng.randint(-1, 1) for _ in range(basis.cols)]
                        cols.append(basis.apply(coeffs) if basis.cols
                                    else (0,) * target.ranks[d])
                    mats.append(IntMatrix.from_cols(cols, rows=target.ranks[d]))
                return chain.ChainMap(s, target, tuple(mats))

            try:
                w = chain.CH.pushout(into(a), into(b))
            except chain.NotFree:
                # a torsion apex is a legitimate outcome for random
                # spans; only free results are in scope for the law
                continue
            for d in range(1, w.apex.max_degree):
                if not (w.apex.diff(d) @ w.apex.diff(d + 1)).is_zero():
                    failures += 1

    _report("criterion 8: engine correctness on randomized instances",
            failures == 0, f"{failures} failures across 3000 instances")
