"""Seeded structure documents for the ``hosts-docs`` workload.

The mix is fixed, and so is the shape of each document (sizes, ranks);
the seed draws the rest (matrices, boundaries, which entry a malformed
document breaks) and the order.  The finite-set cokernel pairs are all
of them up to |Q1| = 6, one per subset, because the brute-force
co-inverse search costs more or less depending on the subset.
Every document carries the answer its construction guarantees, so the
workload never asks the code under test what the right verdict is.

Valid documents are built with the package's public constructors and
rendered with ``formats.write_document`` before timing starts.
Malformed ones are valid documents with one field broken on purpose:
an out-of-range table entry, a wrong length, or an out-of-range
identity index.  The last class crashes the ``cat`` parser with an
``IndexError`` at the time of writing; it stays in the mix so that the
defect shows in the failure count.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from cocat import abgp, chain, core, fincat, finset, formats
from cocat.intmatrix import IntMatrix

import oracle

# (kind, count) -- the fixed mix.  Costs differ by two orders of
# magnitude between kinds, so the counts are fixed rather than drawn.
MIX = (
    ("finset-cokernel", 32),
    ("abgp-cokernel-free", 40),
    ("abgp-cokernel-torsion", 30),
    ("abgp-example", 6),
    ("chain-cokernel-zero", 16),
    ("chain-cokernel-identity", 16),
    ("chain-example", 6),
    ("cat-interval", 6),
    ("cat-cokernel", 14),
    ("malformed-entry", 12),
    ("malformed-length", 12),
    ("malformed-identity", 12),
)

# finset cokernel pairs: (|A|, |S|) with |Q1| = 2|A| - |S| <= 6, and every subset S
FINSET_SHAPES = tuple((a, s) for a in range(1, 7) for s in range(a + 1) if 2 * a - s <= 6)
FINSET_SUBSETS = tuple((a, sub) for a, s in FINSET_SHAPES
                       for sub in itertools.combinations(range(a), s))
# abgp monos Z^k -> Z^n, n <= 5; torsion needs k >= 1
ABGP_FREE_SHAPES = tuple((n, k) for n in range(1, 6) for k in range(n + 1))
ABGP_TORSION_SHAPES = tuple((n, k) for n in range(1, 6) for k in range(1, n + 1))
# cat cokernel pairs of discrete categories: (|C|, |S|) with |Q1| = 2|C| - |S| <= 4
CAT_SHAPES = ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 4))
# chain complexes: ranks per degree, degree 0 first
CHAIN_SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1), (1, 2, 1), (0, 1, 2))


@dataclass(frozen=True)
class Doc:
    kind: str
    host: str
    text: str
    expected: Optional[tuple[bool, ...]]  # None: must raise ParseError
    torsion: bool = False


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random n x n integer matrix of determinant +-1: the identity
    after a few elementary column operations."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        if n < 2:
            break
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in m:
            row[a] += c * row[b]
    for a in range(n):
        b = rng.randrange(n)
        for row in m:
            row[a], row[b] = row[b], row[a]
    return m


def _abgp_cokernel(rng: random.Random, n: int, k: int, torsion: bool) -> core.CoCategoryData:
    """Cokernel pair of a mono Z^k -> Z^n.  Free: k columns of a
    unimodular matrix, so the image is a direct summand.  Torsion: one
    of those columns scaled by 2 or 3, so Q1 gets a finite summand."""
    u = _unimodular(rng, n)
    cols = [[u[i][j] for i in range(n)] for j in range(k)]
    if torsion:
        j = rng.randrange(k)
        d = rng.choice((2, 3))
        cols[j] = [d * x for x in cols[j]]
    mat = IntMatrix.from_cols([tuple(c) for c in cols], rows=n)
    m = abgp.AbMap(abgp.free_group(k), abgp.free_group(n), mat)
    return core.cokernel_pair(abgp.ABGP, m)


def _complex(rng: random.Random, ranks: tuple[int, ...]) -> chain.ChainComplex:
    """A complex with seeded boundaries.  In degree 2 the boundary d2
    lands on the last generator of degree 1, and d1 kills it, so
    d1 . d2 = 0 by construction."""
    degs = len(ranks) - 1
    diffs = []
    for d in range(1, degs + 1):
        rows, cols = ranks[d - 1], ranks[d]
        data = [[rng.randint(-1, 1) for _ in range(cols)] for _ in range(rows)]
        if d == 1 and degs == 2:
            for row in data:
                row[-1] = 0
        if d == 2:
            data = [[x if i == rows - 1 else 0 for x in row] for i, row in enumerate(data)]
        diffs.append(IntMatrix.from_rows(data, cols=cols) if rows else IntMatrix.zeros(0, cols))
    return chain.ChainComplex(tuple(ranks), tuple(diffs))


def _chain_cokernel(rng: random.Random, ranks: tuple[int, ...], zero: bool) -> core.CoCategoryData:
    """Cokernel pair of 0 -> X (Q1 = X + X) or of 1_X (Q1 = X)."""
    x = _complex(rng, ranks)
    if zero:
        z = chain.zero_complex(x.max_degree + 1)
        m = chain.ChainMap(z, x, tuple(IntMatrix.zeros(r, 0) for r in x.ranks))
    else:
        m = chain.chain_identity(x)
    return core.cokernel_pair(chain.CH, m)


def _cat_cokernel(rng: random.Random, c: int, s: int) -> core.CoCategoryData:
    """Cokernel pair of a discrete subcategory S of a discrete C."""
    big = fincat.discrete_category(c)
    objs = tuple(sorted(rng.sample(range(c), s)))
    m = fincat.FunctorData(fincat.discrete_category(s), big, objs,
                           tuple(big.identities[o] for o in objs))
    return core.cokernel_pair(fincat.CAT, m)


def _finset_cokernel(a: int, subset) -> core.CoCategoryData:
    return finset.cokernel_pair_cocategory(finset.subset_mono(subset, finset.FinSetObj(a)))


def _break_entry(rng: random.Random, text: str, field: str, value: int) -> str:
    """Set one seeded entry of the inline field ``field`` to ``value``."""
    lines = text.splitlines()
    for n, line in enumerate(lines):
        key, sep, rest = line.partition(": ")
        if key == field and sep:
            values = rest.split()
            values[rng.randrange(len(values))] = str(value)
            lines[n] = f"{key}: {' '.join(values)}"
            return "\n".join(lines) + "\n"
    raise ValueError(f"no inline field {field!r}")


def _malformed(rng: random.Random, kind: str, j: int) -> tuple[str, str]:
    """(host, text) of a document that is invalid by construction."""
    if kind == "malformed-entry":
        if j % 2 == 0:
            data = _finset_cokernel(*rng.choice(FINSET_SUBSETS))
            field = rng.choice(("l", "r"))
            return "finset", _break_entry(rng, formats.write_document("finset", data), field,
                                          data.q1.size + rng.randrange(2))
        data = fincat.interval_cocategory()
        field, cod = rng.choice((("l-mor", data.q1), ("i-mor", data.q0),
                                 ("q-mor", data.double.apex)))
        return "cat", _break_entry(rng, formats.write_document("cat", data), field,
                                   cod.n_morphisms + rng.randrange(2))
    if kind == "malformed-length":
        if j % 2 == 0:
            text = formats.write_document("finset", _finset_cokernel(*rng.choice(FINSET_SUBSETS)))
            lines = text.splitlines()
            n = next(n for n, line in enumerate(lines) if line.startswith("i: "))
            lines[n] = lines[n].rsplit(" ", 1)[0] if " " in lines[n][3:] else "i:"
            return "finset", "\n".join(lines) + "\n"
        n, k = rng.choice(ABGP_FREE_SHAPES)
        text = formats.write_document("abgp", _abgp_cokernel(rng, n, k, torsion=False))
        lines = text.splitlines()
        # first row of the i block: "i:", then "rows cols", then the rows
        row = lines.index("i:") + 2
        tokens = lines[row].split()
        del tokens[rng.randrange(len(tokens))]
        lines[row] = " ".join(tokens)
        return "abgp", "\n".join(lines) + "\n"
    if kind == "malformed-identity":
        if j % 2 == 0:
            data = fincat.interval_cocategory()
        else:
            data = _cat_cokernel(rng, *rng.choice(CAT_SHAPES))
        field, cat = rng.choice((("q0-identities", data.q0), ("q1-identities", data.q1)))
        return "cat", _break_entry(rng, formats.write_document("cat", data), field,
                                   cat.n_morphisms + rng.randrange(3))
    raise ValueError(f"unknown malformed kind {kind!r}")


def _valid(rng: random.Random, kind: str, j: int) -> tuple[str, core.CoCategoryData, tuple, bool]:
    """(host, data, expected flags, torsion) of a valid document."""
    if kind == "finset-cokernel":
        a, subset = FINSET_SUBSETS[j % len(FINSET_SUBSETS)]
        return "finset", _finset_cokernel(a, subset), oracle.COEQUIVALENCE, False
    if kind == "abgp-cokernel-free":
        n, k = ABGP_FREE_SHAPES[j % len(ABGP_FREE_SHAPES)]
        return "abgp", _abgp_cokernel(rng, n, k, torsion=False), oracle.COEQUIVALENCE, False
    if kind == "abgp-cokernel-torsion":
        n, k = ABGP_TORSION_SHAPES[j % len(ABGP_TORSION_SHAPES)]
        return "abgp", _abgp_cokernel(rng, n, k, torsion=True), oracle.COEQUIVALENCE, True
    if kind == "abgp-example":
        return "abgp", abgp.group_example_cocategory(), oracle.GROUP_EXAMPLE, False
    if kind in ("chain-cokernel-zero", "chain-cokernel-identity"):
        ranks = CHAIN_SHAPES[j % len(CHAIN_SHAPES)]
        zero = kind == "chain-cokernel-zero"
        return "chain", _chain_cokernel(rng, ranks, zero), oracle.COEQUIVALENCE, False
    if kind == "chain-example":
        return "chain", chain.chain_example_cocategory(), oracle.GROUP_EXAMPLE, False
    if kind == "cat-interval":
        return "cat", fincat.interval_cocategory(), oracle.INTERVAL, False
    if kind == "cat-cokernel":
        c, s = CAT_SHAPES[j % len(CAT_SHAPES)]
        return "cat", _cat_cokernel(rng, c, s), oracle.COEQUIVALENCE, False
    raise ValueError(f"unknown kind {kind!r}")


def generate(seed: int) -> list[Doc]:
    """The seeded batch, in a seeded order."""
    rng = random.Random(seed)
    docs = []
    for kind, count in MIX:
        for j in range(count):
            if kind.startswith("malformed-"):
                host, text = _malformed(rng, kind, j)
                docs.append(Doc(kind, host, text, None))
            else:
                host, data, expected, torsion = _valid(rng, kind, j)
                docs.append(Doc(kind, host, formats.write_document(host, data), expected, torsion))
    rng.shuffle(docs)
    return docs


def describe(docs: list[Doc]) -> dict:
    """The mix as run: documents per host and per kind, torsion share of
    the abgp documents, malformed share of all documents."""
    abgp_docs = [d for d in docs if d.host == "abgp" and d.expected is not None]
    return {
        "documents": len(docs),
        "per_host": dict(sorted(Counter(d.host for d in docs).items())),
        "per_kind": dict(sorted(Counter(d.kind for d in docs).items())),
        "abgp_torsion_share": sum(d.torsion for d in abgp_docs) / len(abgp_docs),
        "malformed_share": sum(d.expected is None for d in docs) / len(docs),
    }
