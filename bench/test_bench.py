"""Tests of the benchmark's known answers, document generator and tracer.

Run with ``python -m pytest bench`` from the repository root.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402


@pytest.mark.parametrize("bounds, total", [((2, 4), 41), ((3, 5), 479), ((3, 6), 1199)])
def test_total_structures(bounds, total):
    assert oracle.total_structures(*bounds) == total


@pytest.mark.parametrize("n0, n1, count", [
    (1, 1, 1), (1, 2, 2), (1, 3, 0), (2, 1, 0), (2, 3, 12), (3, 5, 360), (3, 6, 720), (3, 7, 0),
])
def test_structure_count(n0, n1, count):
    assert oracle.structure_count(n0, n1) == count


@pytest.mark.parametrize("bounds, classes", [((2, 4), 5), ((3, 5), 8), ((3, 6), 9)])
def test_iso_classes(bounds, classes):
    assert oracle.iso_classes(*bounds) == classes


def test_closed_form_matches_brute_force_enumeration():
    from cocat import finset

    found = Counter((d.q0.size, d.q1.size) for d in finset.enumerate_cocategories(2, 4))
    assert all(found[(n0, n1)] == oracle.structure_count(n0, n1)
               for n0 in range(1, 3) for n1 in range(1, 5))


@pytest.mark.parametrize("n1, l, r, ok", [
    (2, (0,), (1,), True),          # S empty: two copies of a point
    (1, (0,), (0,), True),          # S everything
    (3, (0, 1), (2, 1), True),      # glued at one point
    (3, (0, 1), (1, 2), False),     # agree nowhere, yet only three elements
    (3, (0, 0), (1, 2), False),     # l not injective
    (3, (0,), (1,), False),         # element 2 missed
])
def test_cokernel_pair_shape(n1, l, r, ok):
    assert oracle.is_cokernel_pair_shape(n1, l, r) is ok


def test_judge_treats_undecided_as_not_wrong():
    assert oracle.judge(oracle.COEQUIVALENCE, (True, True, None, None)) == ([], False)
    assert oracle.judge(oracle.INTERVAL, (True, False, False, False)) == ([], True)
    wrong, decided = oracle.judge(oracle.GROUP_EXAMPLE, (True, True, True, True))
    assert wrong == ["copreorder", "coequivalence"] and decided


def test_generator_is_seeded_and_keeps_the_mix():
    import docs

    first, again, other = docs.generate(7), docs.generate(7), docs.generate(8)
    assert first == again
    assert [d.text for d in first] != [d.text for d in other]
    assert len(first) >= 200
    assert Counter(d.kind for d in first) == Counter(dict(docs.MIX))
    assert all((d.expected is None) == d.kind.startswith("malformed-") for d in first)
    mix = docs.describe(first)
    assert mix["documents"] == len(first) and 0 < mix["malformed_share"] < 1


def test_tracer_reaches_aliases_and_restores_them():
    from cocat import cli, core, finset

    import spans

    originals = (core.classify, cli.classify_data, finset.pushout, finset.FinSet.morphisms)
    data = finset.cokernel_pair_cocategory(finset.subset_mono([0], finset.FinSetObj(2)))
    tr = spans.Tracer()
    spans.instrument(tr)
    try:
        cli.classify_data(finset.FINSET, data)      # core.classify under another name
        finset.iso_cocategories(data, data)         # imports check_cocat_morphism at call time
    finally:
        tr.restore()
    assert (core.classify, cli.classify_data, finset.pushout, finset.FinSet.morphisms) == originals
    assert tr.ncalls("core.classify") == tr.ncalls("core.find_coinverse") == 1
    assert tr.ncalls("core.check_cocategory") == 1 and tr.ncalls("finset.iso") == 1
    assert tr.counts["finset.iso.candidates"] >= 1
    assert tr.counts["core.coinverse.candidates"] >= 1
    assert tr.counts["core.coinverse.hits"] == 1


def test_self_time_excludes_children():
    import spans

    tr = spans.Tracer()
    outer, inner = tr.name_id("core.outer"), tr.name_id("finset.inner")
    tr.enter(outer)
    tr.enter(inner)
    tr.exit()
    tr.exit()
    layers = tr.layer_self_seconds()
    assert layers["core"] == pytest.approx(tr.seconds("core.outer") - tr.seconds("finset.inner"))
    assert layers["finset"] == tr.seconds("finset.inner")
    parent_of_inner = tr.spans[0][1]
    assert tr.spans[0][2] == inner and parent_of_inner == tr.spans[1][0]


def test_tracer_keeps_every_span():
    import spans

    tr = spans.Tracer()
    nid = tr.name_id("core.leaf")
    for _ in range(1000):
        tr.enter(nid)
        tr.exit()
    assert tr.opened == len(tr.spans) == len(tr.dump()["spans"]) == 1000


def test_iteration_count_depends_only_on_seconds():
    import run

    assert run.iteration_count("enumerate-q3x6", 1) == run.MIN_ITERATIONS
    assert run.iteration_count("theorem-q3x5", 20) == 4
    assert run.iteration_count("hosts-docs", 20) == 5
