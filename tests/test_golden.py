"""Golden files: each document in ``tests/golden/`` is, byte for byte,
the document its builder writes, and parsing it writes the same bytes
back; each report in ``tests/golden/reports/`` is the output and exit
code of one CLI command; and ``tests/golden/structures-3-6.sha256``
digests every structure ``enumerate_cocategories(3, 6)`` yields.

A deliberate change of the document format or of a report regenerates
the files with

    PYTHONPATH=src python tests/test_golden.py

and the diff of ``tests/golden/`` shows the change.
"""

import difflib
import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from cocat import abgp, chain, core, fincat, finset
from cocat.cli import main
from cocat.formats import parse_document, write_document
from cocat.intmatrix import IntMatrix

GOLDEN = Path(__file__).parent / "golden"
REPORTS = GOLDEN / "reports"
DIGEST = GOLDEN / "structures-3-6.sha256"


def _abgp_empty_q0() -> core.CoCategoryData:
    # l = r: 0 -> Z^2 are 2x0 matrices, which have rows but no columns
    q0, q1 = abgp.free_group(0), abgp.free_group(2)
    zero = abgp.AbMap(q0, q1, IntMatrix.zeros(2, 0))
    double = abgp.ABGP.pushout(zero, zero)
    stacked = IntMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])
    return core.CoCategoryData(q0, q1, zero, zero, abgp.AbMap(q1, q0, IntMatrix.zeros(0, 2)),
                               abgp.AbMap(q1, double.apex, stacked), double)


def _abgp_cokernel() -> core.CoCategoryData:
    # the cokernel pair of (1, 2): Z -> Z^2, a direct summand, so Q1 is
    # free; a co-preorder, whose counits and co-associativity the axiom
    # checker reads off the compat and section laws
    z, z2 = abgp.free_group(1), abgp.free_group(2)
    return core.cokernel_pair(abgp.ABGP, abgp.AbMap(z, z2, IntMatrix.from_rows([[1], [2]])))


def _abgp_torsion() -> core.CoCategoryData:
    # the cokernel pair of 2: Z -> Z, whose Q1 has Z/2 torsion
    z = abgp.free_group(1)
    return core.cokernel_pair(abgp.ABGP, abgp.AbMap(z, z, IntMatrix.from_rows([[2]])))


def _chain_cokernel() -> core.CoCategoryData:
    # the cokernel pair of 0 -> X, X the interval (two vertices, one
    # edge): Q1 = X + X, a co-preorder like the abgp cokernel pair
    x = chain.ChainComplex((2, 1), (IntMatrix.from_rows([[-1], [1]]),))
    zero = chain.ChainMap(chain.zero_complex(2), x, tuple(IntMatrix.zeros(n, 0) for n in x.ranks))
    return core.cokernel_pair(chain.CH, zero)


def _cat_big() -> core.CoCategoryData:
    # the cokernel pair of the empty category into discrete(6)
    big = fincat.discrete_category(6)
    return core.cokernel_pair(fincat.CAT, fincat.FunctorData(fincat.discrete_category(0),
                                                             big, (), ()))


def _cat_composite() -> core.CoCategoryData:
    """Q0 the point, Q1 the chain 0 -> 1 -> 2 with the composite a.b, l
    picking 0 and r picking 2, q sending a, b and a.b across the two
    glued copies.  Not a co-category (both counits and co-associativity
    fail): it pins the ``-compose`` rows of the document layer.  It is
    also the golden of the axiom checker's full path: the compat and
    section laws hold, but l and r are not jointly epi, so the counits
    and co-associativity are checked through the triple pushout."""
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
    "abgp-cokernel": ("abgp", _abgp_cokernel),
    "chain-cokernel": ("chain", _chain_cokernel),
    "cat-big": ("cat", _cat_big),
    "cat-composite": ("cat", _cat_composite),
}


# report name -> cocat arguments, without --format; a --file path is
# relative to the repository root
_COMMANDS = {
    **{f"verify-{example}": ["verify", example] for example in
       ("finset-cokernel", "abgp-example", "chain-example", "cat-interval", "universal")},
    "pipeline": ["pipeline"],
    **{f"enumerate-{n0}-{n1}": ["enumerate", "--q0-max", str(n0), "--q1-max", str(n1),
                                "--verify-theorem", "--count-iso"]
       for n0, n1 in ((2, 4), (3, 5))},
    **{f"classify-{doc}": ["classify", "--category", host, "--file", f"tests/golden/{doc}.txt"]
       for doc, (host, _) in DOCUMENTS.items()},
}
REPORT_NAMES = [f"{name}.{fmt}" for name in _COMMANDS for fmt in ("human", "json")]


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def _report(name: str) -> str:
    """The command line, its stdout and its exit code, as one text."""
    command, fmt = name.rsplit(".", 1)
    args = _COMMANDS[command] + ["--format", fmt]
    resolved = [str(GOLDEN.parent.parent / a) if a.startswith("tests/") else a for a in args]
    result = CliRunner().invoke(main, resolved)
    return f"$ cocat {' '.join(args)}\n{result.stdout}exit code: {result.exit_code}\n"


def _digest() -> str:
    """SHA-256 over the tables of every structure at (3, 6), in order."""
    h = hashlib.sha256()
    count = 0
    for data in finset.enumerate_cocategories(3, 6):
        nu1, nu2 = data.double.injections
        h.update(repr((data.q0.size, data.q1.size, data.l.table, data.r.table, data.i.table,
                       data.q.table, nu1.table, nu2.table)).encode() + b"\n")
        count += 1
    return f"{h.hexdigest()}  {count} structures of enumerate_cocategories(3, 6)\n"


def _assert_same(expected: str, actual: str, label: str) -> None:
    if actual != expected:
        diff = difflib.unified_diff(expected.splitlines(keepends=True),
                                    actual.splitlines(keepends=True),
                                    f"{label} (golden)", f"{label} (now)")
        pytest.fail("".join(diff), pytrace=False)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_builder_writes_the_golden_document(name):
    host, build = DOCUMENTS[name]
    assert write_document(host, build()) == _golden(name)


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_golden_document_writes_back_unchanged(name):
    text = _golden(name)
    assert write_document(*parse_document(text)) == text


@pytest.mark.parametrize("name", REPORT_NAMES)
def test_report_is_golden(name):
    path = REPORTS / f"{name}.txt"
    _assert_same(path.read_text(encoding="utf-8"), _report(name), str(path))


def test_structure_digest_is_golden():
    _assert_same(DIGEST.read_text(encoding="utf-8"), _digest(), str(DIGEST))


def test_no_orphaned_golden_file():
    expected = {f"{name}.txt" for name in DOCUMENTS} | {DIGEST.name, REPORTS.name}
    assert {p.name for p in GOLDEN.iterdir()} == expected
    assert {p.name for p in REPORTS.iterdir()} == {f"{name}.txt" for name in REPORT_NAMES}


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def regenerate() -> None:
    REPORTS.mkdir(parents=True, exist_ok=True)
    for name, (host, build) in DOCUMENTS.items():
        _write(GOLDEN / f"{name}.txt", write_document(host, build()))
    for name in REPORT_NAMES:
        _write(REPORTS / f"{name}.txt", _report(name))
    _write(DIGEST, _digest())


if __name__ == "__main__":
    regenerate()
