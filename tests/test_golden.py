"""Golden documents: each file in ``tests/golden/`` is, byte for byte, the
document its builder writes, and parsing it writes the same bytes back.

A deliberate change of the document format regenerates the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of ``tests/golden/`` shows the change.
"""

from pathlib import Path

import pytest

from cocat import abgp, chain, core, fincat, finset
from cocat.formats import parse_document, write_document
from cocat.intmatrix import IntMatrix

GOLDEN = Path(__file__).parent / "golden"


def _abgp_empty_q0() -> core.CoCategoryData:
    # l = r: 0 -> Z^2 are 2x0 matrices, which have rows but no columns
    q0, q1 = abgp.free_group(0), abgp.free_group(2)
    zero = abgp.AbMap(q0, q1, IntMatrix.zeros(2, 0))
    double = abgp.ABGP.pushout(zero, zero)
    stacked = IntMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])
    return core.CoCategoryData(q0, q1, zero, zero, abgp.AbMap(q1, q0, IntMatrix.zeros(0, 2)),
                               abgp.AbMap(q1, double.apex, stacked), double)


def _abgp_torsion() -> core.CoCategoryData:
    # the cokernel pair of 2: Z -> Z, whose Q1 has Z/2 torsion
    z = abgp.free_group(1)
    return core.cokernel_pair(abgp.ABGP, abgp.AbMap(z, z, IntMatrix.from_rows([[2]])))


def _cat_big() -> core.CoCategoryData:
    # the cokernel pair of the empty category into discrete(6)
    big = fincat.discrete_category(6)
    return core.cokernel_pair(fincat.CAT, fincat.FunctorData(fincat.discrete_category(0),
                                                             big, (), ()))


def _cat_composite() -> core.CoCategoryData:
    """Q0 the point, Q1 the chain 0 -> 1 -> 2 with the composite a.b, l
    picking 0 and r picking 2, q sending a, b and a.b across the two
    glued copies.  Not a co-category (both counits and co-associativity
    fail): it pins the ``-compose`` rows of the document layer."""
    q0 = fincat.terminal_category()
    # morphisms: id0, id1, id2, a: 0 -> 1, b: 1 -> 2, a.b: 0 -> 2
    src, tgt = (0, 1, 2, 0, 1, 0), (0, 1, 2, 1, 2, 2)
    table = [[None] * 6 for _ in range(6)]
    for f in range(6):
        table[src[f]][f] = table[f][tgt[f]] = f
    table[3][4] = 5
    q1 = fincat.FinCategory(3, src, tgt, (0, 1, 2), tuple(map(tuple, table)))
    l = fincat.FunctorData(q0, q1, (0,), (0,))
    r = fincat.FunctorData(q0, q1, (2,), (2,))
    i = fincat.FunctorData(q1, q0, (0, 0, 0), (0,) * 6)
    double = fincat.CAT.pushout(r, l)
    n1, n2 = double.injections
    glued = double.apex
    first, second = n1.mor_map[5], n2.mor_map[5]
    q = fincat.FunctorData(q1, glued,
                           (n1.obj_map[0], n1.obj_map[2], n2.obj_map[2]),
                           (glued.identities[n1.obj_map[0]], glued.identities[n1.obj_map[2]],
                            glued.identities[n2.obj_map[2]], first, second,
                            glued.table[first][second]))
    return core.CoCategoryData(q0, q1, l, r, i, q, double)


# file stem -> (host, builder); each stem starts with its host
DOCUMENTS = {
    "finset": ("finset", lambda: finset.cokernel_pair_cocategory(
        finset.subset_mono([0], finset.FinSetObj(2)))),
    "abgp": ("abgp", abgp.group_example_cocategory),
    "chain": ("chain", chain.chain_example_cocategory),
    "cat": ("cat", fincat.interval_cocategory),
    "abgp-empty-q0": ("abgp", _abgp_empty_q0),
    "abgp-torsion": ("abgp", _abgp_torsion),
    "cat-big": ("cat", _cat_big),
    "cat-composite": ("cat", _cat_composite),
}


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_builder_writes_the_golden_document(name):
    host, build = DOCUMENTS[name]
    assert write_document(host, build()) == _golden(name)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_golden_document_writes_back_unchanged(name):
    text = _golden(name)
    assert write_document(*parse_document(text)) == text


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (host, build) in DOCUMENTS.items():
        with open(GOLDEN / f"{name}.txt", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(write_document(host, build()))


if __name__ == "__main__":
    regenerate()
