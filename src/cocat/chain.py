"""Bounded chain complexes of finite-rank free abelian groups.

A complex stores one rank per degree and one boundary matrix per
positive degree; the zero-square law is checked at construction.
Chain maps must commute with the boundaries degreewise (also checked).
Pushouts and copairings delegate degreewise to the abelian-group
engine; the co-inverse is s = l.i + r.i - 1, degree by degree.

The module also hosts three showpieces:

* the interval-shaped co-category whose degree-0 part is two vertices,
  degree-1 part a single edge from one to the other;
* ``total_space``, collapsing a chain co-category onto the abelian
  group engine by summing degrees.  The basis of the total group
  interleaves degrees -- generators sort by (position within degree,
  degree) -- which is the frozen convention that makes the collapsed
  interval agree entrywise with the explicit matrices in
  :mod:`cocat.abgp`;
* the nerve pipeline from finite categories: nondegenerate composable
  chains, freely generated chains with alternating-sum boundaries, and
  the quotient that kills everything above degree 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    CategoryCapabilities,
    CoCategoryData,
    InvariantViolation,
    NotFree,
    PushoutWitness,
    TypeMismatch,
    UnsupportedCapability,
    coinverse_violation,
    reassemble,
)
from .intmatrix import IntMatrix, cokernel, diagonal, hstack, invert_unimodular, snf
from .abgp import ABGP, AbMap, FgAbGroup, free_group
from .fincat import FinCategory, FunctorData


# ---------------------------------------------------------------------------
# Complexes and chain maps


@dataclass(frozen=True)
class ChainComplex:
    """Ranks per degree and boundary matrices; diffs[k] maps degree k+1
    to degree k, and consecutive boundaries compose to zero."""

    ranks: tuple[int, ...]
    diffs: tuple[IntMatrix, ...]

    def __post_init__(self):
        if not self.ranks:
            raise ValueError("a complex needs at least degree 0")
        if len(self.diffs) != len(self.ranks) - 1:
            raise ValueError("need exactly one boundary matrix per positive degree")
        for k, d in enumerate(self.diffs):
            if d.rows != self.ranks[k] or d.cols != self.ranks[k + 1]:
                raise ValueError(f"boundary {k + 1} has shape {d.rows}x{d.cols}, "
                                 f"expected {self.ranks[k]}x{self.ranks[k + 1]}")
        for k in range(len(self.diffs) - 1):
            if not (self.diffs[k] @ self.diffs[k + 1]).is_zero():
                raise ValueError(f"boundaries {k + 2} then {k + 1} do not square to zero")

    @property
    def max_degree(self) -> int:
        return len(self.ranks) - 1

    def rank(self, d: int) -> int:
        return self.ranks[d] if 0 <= d < len(self.ranks) else 0

    def diff(self, d: int) -> IntMatrix:
        """The boundary from degree d; zero-shaped outside the range."""
        if 1 <= d <= self.max_degree:
            return self.diffs[d - 1]
        return IntMatrix.zeros(self.rank(d - 1), self.rank(d))


def zero_complex(degrees: int = 1) -> ChainComplex:
    ranks = (0,) * degrees
    return ChainComplex(ranks, tuple(IntMatrix.zeros(0, 0) for _ in range(degrees - 1)))


@dataclass(frozen=True)
class ChainMap:
    """A degreewise matrix family commuting with the boundaries."""

    dom: ChainComplex
    cod: ChainComplex
    mats: tuple[IntMatrix, ...]

    def __post_init__(self):
        if self.dom.max_degree != self.cod.max_degree:
            raise TypeMismatch("chain maps need complexes padded to a common top degree")
        if len(self.mats) != len(self.dom.ranks):
            raise TypeMismatch("need one matrix per degree")
        for d, m in enumerate(self.mats):
            if m.rows != self.cod.ranks[d] or m.cols != self.dom.ranks[d]:
                raise TypeMismatch(f"degree-{d} matrix has shape {m.rows}x{m.cols}, "
                                   f"expected {self.cod.ranks[d]}x{self.dom.ranks[d]}")
        for d in range(1, self.dom.max_degree + 1):
            if self.cod.diff(d) @ self.mats[d] != self.mats[d - 1] @ self.dom.diff(d):
                raise TypeMismatch(f"degree-{d} square does not commute with the boundaries")


def chain_identity(x: ChainComplex) -> ChainMap:
    return ChainMap(x, x, tuple(IntMatrix.identity(r) for r in x.ranks))


def chain_compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """f followed by g."""
    if f.cod != g.dom:
        raise TypeMismatch("compose: cod(f) != dom(g)")
    return ChainMap(f.dom, g.cod, tuple(gm @ fm for fm, gm in zip(f.mats, g.mats)))


# ---------------------------------------------------------------------------
# Capabilities instance (degreewise delegation to the group engine)


class Ch(CategoryCapabilities):
    name = "chain"

    def equal(self, f, g):
        return f == g

    def compose(self, f, g):
        return chain_compose(f, g)

    def identity(self, obj):
        return chain_identity(obj)

    def pushout(self, f: ChainMap, g: ChainMap) -> PushoutWitness:
        """Degreewise group pushout with the induced boundaries.

        Raises :class:`NotFree` if any degree develops torsion (the
        apex would leave the category of free complexes)."""
        if f.dom != g.dom:
            raise TypeMismatch("pushout: span legs must share a domain")
        degs = f.dom.max_degree
        witnesses = []
        for d in range(degs + 1):
            fa = AbMap(free_group(f.dom.ranks[d]), free_group(f.cod.ranks[d]), f.mats[d])
            ga = AbMap(free_group(g.dom.ranks[d]), free_group(g.cod.ranks[d]), g.mats[d])
            w = ABGP.pushout(fa, ga)
            if not w.apex.is_free:
                raise NotFree(f"pushout has torsion in degree {d}")
            witnesses.append(w)
        ranks = tuple(w.apex.rank for w in witnesses)
        diffs = []
        for d in range(1, degs + 1):
            i1d, i2d = witnesses[d - 1].injections
            u = AbMap(free_group(f.cod.ranks[d]), i1d.cod,
                      i1d.matrix @ f.cod.diff(d))
            v = AbMap(free_group(g.cod.ranks[d]), i2d.cod,
                      i2d.matrix @ g.cod.diff(d))
            diffs.append(ABGP.copair(witnesses[d], u, v).matrix)
        apex = ChainComplex(ranks, tuple(diffs))
        inj1 = ChainMap(f.cod, apex, tuple(w.injections[0].matrix for w in witnesses))
        inj2 = ChainMap(g.cod, apex, tuple(w.injections[1].matrix for w in witnesses))
        return PushoutWitness(apex=apex, injections=(inj1, inj2), legs=(f, g),
                              payload={"degrees": tuple(witnesses)})

    def copair(self, witness: PushoutWitness, u: ChainMap, v: ChainMap) -> ChainMap:
        i1, i2 = witness.injections
        if u.dom != i1.dom or v.dom != i2.dom:
            raise TypeMismatch("copair: cocone legs do not match the span")
        if u.cod != v.cod:
            raise TypeMismatch("copair: cocone legs must share a codomain")
        if witness.payload is None or "degrees" not in witness.payload:
            raise UnsupportedCapability("witness lacks degreewise bookkeeping")
        mats = []
        for d, w in enumerate(witness.payload["degrees"]):
            ua = AbMap(w.injections[0].dom, free_group(u.cod.ranks[d]), u.mats[d])
            va = AbMap(w.injections[1].dom, free_group(v.cod.ranks[d]), v.mats[d])
            mats.append(ABGP.copair(w, ua, va).matrix)
        return ChainMap(witness.apex, u.cod, tuple(mats))

    def joint_epi_status(self, maps):
        maps = list(maps)
        if not maps:
            raise TypeMismatch("need at least one map")
        cod = maps[0].cod
        if any(m.cod != cod for m in maps):
            raise TypeMismatch("joint-epi test needs a common codomain")
        for d in range(cod.max_degree + 1):
            stacked = hstack(*(m.mats[d] for m in maps))
            factors = cokernel(stacked)
            if factors:
                return False, {"degree": d, "cokernel_invariant_factors": factors}
        return True, None

    def solve_coinverse(self, data: CoCategoryData) -> ChainMap:
        """s = l.i + r.i - 1 in each degree (l.i is "i, then l"), a sum of
        chain maps.  The counit laws force q = nu1 + nu2 - nu1.r.i, and
        i.l = i.r = 1, so on a co-category:
          s.l = l + r - l = r, and s.r = l likewise;
          [1, s].q = 1 + s - r.i = l.i;
          [s, 1].q = s + 1 - s.r.i = s + 1 - l.i = r.i.
        Off a co-category a failed identity raises :class:`UnsupportedCapability`."""
        s = ChainMap(data.q1, data.q1, tuple(
            (l + r) @ i - IntMatrix.identity(n)
            for n, l, r, i in zip(data.q1.ranks, data.l.mats, data.r.mats, data.i.mats)))
        violation = coinverse_violation(self, data, s)
        if violation is not None:
            raise UnsupportedCapability(f"chain: s = l.i + r.i - 1 violates {violation}")
        return s

    def inverse(self, f: ChainMap) -> Optional[ChainMap]:
        """Degree by degree through :func:`invert_unimodular`; None when
        some degree is not unimodular."""
        try:
            return ChainMap(f.cod, f.dom, tuple(invert_unimodular(m) for m in f.mats))
        except ValueError:
            return None


CH = Ch()


# ---------------------------------------------------------------------------
# The interval-shaped example


def chain_example_cocategory() -> CoCategoryData:
    """Degree 0: two vertices; degree 1: one edge with boundary v1 - v0.
    Its total space is exactly the explicit group example."""
    q0 = ChainComplex((1, 0), (IntMatrix.zeros(1, 0),))
    q1 = ChainComplex((2, 1), (IntMatrix.from_rows([[-1], [1]]),))
    l = ChainMap(q0, q1, (IntMatrix.from_rows([[1], [0]]), IntMatrix.zeros(1, 0)))
    r = ChainMap(q0, q1, (IntMatrix.from_rows([[0], [1]]), IntMatrix.zeros(1, 0)))
    i = ChainMap(q1, q0, (IntMatrix.from_rows([[1, 1]]), IntMatrix.zeros(0, 1)))
    double = CH.pushout(r, l)
    if double.apex.ranks != (3, 2):
        raise InvariantViolation("double pushout of the interval has unexpected ranks")
    q = ChainMap(q1, double.apex, (
        IntMatrix.from_rows([[1, 0], [0, 0], [0, 1]]),
        IntMatrix.from_rows([[1], [1]]),
    ))
    return CoCategoryData(q0=q0, q1=q1, l=l, r=r, i=i, q=q, double=double)


# ---------------------------------------------------------------------------
# Total space


def total_order(x: ChainComplex) -> list[tuple[int, int]]:
    """Basis order of the total group: (degree, position) pairs sorted
    by (position, degree), interleaving the degrees."""
    gens = [(d, p) for d, r in enumerate(x.ranks) for p in range(r)]
    return sorted(gens, key=lambda g: (g[1], g[0]))


def total_group(x: ChainComplex) -> FgAbGroup:
    return free_group(sum(x.ranks))


def total_matrix(f: ChainMap) -> IntMatrix:
    rows = total_order(f.cod)
    cols = total_order(f.dom)
    data = [[f.mats[dd].data[ri][ci] if rd == dd else 0
             for (dd, ci) in cols]
            for (rd, ri) in rows]
    return IntMatrix.from_rows(data, cols=len(cols))


def total_space(data: CoCategoryData) -> CoCategoryData:
    """Collapse a chain co-category onto the group engine by summing
    degrees and forgetting the boundaries.

    Pushout witnesses are recomputed by the group engine on the summed
    maps, and q is read through the comparison from them to the summed
    chain double pushout (:func:`core.reassemble`)."""
    q0 = total_group(data.q0)
    q1 = total_group(data.q1)
    glued_apex = total_group(data.double.apex)
    l = AbMap(q0, q1, total_matrix(data.l))
    r = AbMap(q0, q1, total_matrix(data.r))
    i = AbMap(q1, q0, total_matrix(data.i))
    q = AbMap(q1, glued_apex, total_matrix(data.q))
    glued = tuple(AbMap(q1, glued_apex, total_matrix(nu)) for nu in data.double.injections)
    return reassemble(ABGP, l, r, i, q, glued)


# ---------------------------------------------------------------------------
# Nerve and normalised chains


@dataclass(frozen=True)
class NormalizedNerve:
    """Nondegenerate simplices of a finite category's nerve, degree by
    degree, with face bookkeeping.

    ``simplices[0]`` lists objects; ``simplices[k]`` lists composable
    chains of k non-identity morphisms.  ``faces[k][i][j]`` is the
    index of the j-th face in degree k-1, or None when that face is
    degenerate (a middle composite collapsed to an identity)."""

    simplices: tuple[tuple, ...]
    faces: tuple[tuple, ...]

    def count(self, k: int) -> int:
        return len(self.simplices[k]) if k < len(self.simplices) else 0


# Top simplex dimension of the nerve: dimension 2 pins the degree-1
# quotient, dimension 3 feeds the zero-square check.
_NERVE_DEPTH = 3


def nerve(c: FinCategory) -> NormalizedNerve:
    """Nondegenerate simplices through dimension 3 (``_NERVE_DEPTH``).
    Raises NonComposable on an invalid composition table."""
    from .fincat import check_category

    check_category(c)
    non_ids = c.non_identities()
    simplices: list[tuple] = [tuple(range(c.n_objects)), tuple((m,) for m in non_ids)]
    for k in range(2, _NERVE_DEPTH + 1):
        prev = simplices[k - 1]
        ext = tuple(chain + (m,) for chain in prev for m in non_ids
                    if c.tgt[chain[-1]] == c.src[m])
        simplices.append(ext)

    index: list[dict] = [{s: i for i, s in enumerate(level)} for level in simplices]
    faces: list[tuple] = [()]
    level1 = []
    for (m,) in simplices[1]:
        level1.append((c.tgt[m], c.src[m]))  # d0 drops the source vertex
    faces.append(tuple(level1))
    for k in range(2, _NERVE_DEPTH + 1):
        level = []
        for chain in simplices[k]:
            entries = []
            for j in range(k + 1):
                if j == 0:
                    face = chain[1:]
                elif j == k:
                    face = chain[:-1]
                else:
                    composite = c.table[chain[j - 1]][chain[j]]
                    if c.is_identity(composite):
                        entries.append(None)
                        continue
                    face = chain[:j - 1] + (composite,) + chain[j + 1:]
                entries.append(index[k - 1][face])
            level.append(tuple(entries))
        faces.append(tuple(level))
    return NormalizedNerve(tuple(simplices), tuple(faces))


def free_normalized_chains(n: NormalizedNerve) -> ChainComplex:
    """The complex freely generated by nondegenerate simplices, with
    alternating-sum boundaries (degenerate faces contribute zero)."""
    depth = len(n.simplices) - 1
    ranks = tuple(len(level) for level in n.simplices)
    diffs = []
    for k in range(1, depth + 1):
        rows, cols = ranks[k - 1], ranks[k]
        data = [[0] * cols for _ in range(rows)]
        for col, entries in enumerate(n.faces[k]):
            for j, target in enumerate(entries):
                if target is not None:
                    data[target][col] += -1 if j % 2 else 1
        diffs.append(IntMatrix.from_rows(data, cols=cols))
    return ChainComplex(ranks, tuple(diffs))


def _truncation_data(x: ChainComplex) -> tuple[ChainComplex, IntMatrix, IntMatrix]:
    """Quotient by the subcomplex generated in degrees >= 2.

    Degree 1 becomes C1 / im(boundary_2), refed through the Smith form
    (torsion would leave free complexes and raises); returns the
    truncated complex together with the degree-1 projection and a
    section of it."""
    r1 = x.rank(1)
    d2 = x.diff(2)
    d, u, _ = snf(d2)
    diag = [e for e in diagonal(d) if e != 0]
    if any(e != 1 for e in diag):
        raise NotFree(f"degree-1 quotient has torsion {diag}")
    k = len(diag)
    uinv = invert_unimodular(u)
    proj = u.select_rows(range(k, r1))
    sect = uinv.select_cols(range(k, r1))
    new_d1 = x.diff(1) @ sect
    out = ChainComplex((x.rank(0), r1 - k), (new_d1,))
    return out, proj, sect


def truncate_ge2(x: ChainComplex) -> ChainComplex:
    return _truncation_data(x)[0]


# ---------------------------------------------------------------------------
# The pipeline: nerve, free chains, truncate


def pipeline(c: FinCategory) -> ChainComplex:
    """Finite category -> two-degree complex: free normalised chains of
    the nerve, with everything above degree 1 quotiented away."""
    return truncate_ge2(free_normalized_chains(nerve(c)))


def _induced_matrices(fun: FunctorData) -> list[IntMatrix]:
    """Matrices of the induced map on normalised chains: a simplex maps
    to its image chain, or to zero when the image degenerates."""
    nd = nerve(fun.dom)
    nc = nerve(fun.cod)
    index = [{s: i for i, s in enumerate(level)} for level in nc.simplices]
    mats = []
    data0 = [[0] * len(nd.simplices[0]) for _ in range(len(nc.simplices[0]))]
    for col, ob in enumerate(nd.simplices[0]):
        data0[fun.obj_map[ob]][col] = 1
    mats.append(IntMatrix.from_rows(data0, cols=len(nd.simplices[0])))
    for k in range(1, _NERVE_DEPTH + 1):
        rows, cols = len(nc.simplices[k]), len(nd.simplices[k])
        data = [[0] * cols for _ in range(rows)]
        for col, chain in enumerate(nd.simplices[k]):
            img = tuple(fun.mor_map[m] for m in chain)
            if any(fun.cod.is_identity(m) for m in img):
                continue
            data[index[k][img]][col] = 1
        mats.append(IntMatrix.from_rows(data, cols=cols))
    return mats


def pipeline_map(fun: FunctorData) -> ChainMap:
    """The induced map between pipeline complexes, transported through
    the degree-1 quotients."""
    dom_c, _, dom_sect = _truncation_data(free_normalized_chains(nerve(fun.dom)))
    cod_c, cod_proj, _ = _truncation_data(free_normalized_chains(nerve(fun.cod)))
    mats = _induced_matrices(fun)
    m1 = cod_proj @ mats[1] @ dom_sect
    return ChainMap(dom_c, cod_c, (mats[0], m1))


def pipeline_cocategory(data: CoCategoryData) -> CoCategoryData:
    """Apply the pipeline to a co-category of finite categories and
    reassemble the result over the computed chain pushouts: q is read
    through the comparison from the computed double pushout to the
    image of the glued object (:func:`core.reassemble`)."""
    glued = tuple(pipeline_map(nu) for nu in data.double.injections)
    return reassemble(CH, pipeline_map(data.l), pipeline_map(data.r), pipeline_map(data.i),
                      pipeline_map(data.q), glued)
