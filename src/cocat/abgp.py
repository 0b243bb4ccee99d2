"""Finitely generated abelian groups as a host category.

Groups are presentations (generator count plus a relation matrix whose
columns are relators), morphisms are integer matrices that carry the
domain relators into the codomain relation lattice.  Equality of
parallel maps is decided modulo that lattice through Hermite-form
membership, which into a free group is matrix equality.

Pushouts are presented on the disjoint sum of generators and then
simplified by eliminating generators that occur with coefficient +-1
in some relator (the classical Tietze move); the witness remembers
which disjoint-sum generators survived so that copairings are plain
column selections.  This canonicalisation is what makes the explicit
interval-shaped example below come out on the expected rank-5 basis.

This module also hosts that example -- a co-category on Z^3 whose legs
are not jointly epimorphic (the cokernel of [l | r] is Z) although a
co-inverse exists -- and dualisation by matrix transposition, which
turns a co-category of free groups into an internal category, that is
a co-category in ``Op(ABGP)``, checked by the same axiom checker
through pullbacks, pairings and the joint-mono test.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .core import (
    CategoryCapabilities,
    CoCategoryData,
    CoconeMismatch,
    InvariantViolation,
    NotFree,
    OpMap,
    PushoutWitness,
    TypeMismatch,
    UnsupportedCapability,
    coinverse_violation,
    reassemble,
)
from .intmatrix import (
    IntMatrix,
    Lattice,
    cokernel,
    hstack,
    invert_unimodular,
    kernel_basis,
    solve_matrix,
    vstack,
    _hnf,
)


# ---------------------------------------------------------------------------
# Groups and maps


class FgAbGroup:
    """A finitely presented abelian group.

    The relation matrix is canonicalised to its Hermite form with zero
    columns dropped, so two values are equal exactly when they present
    the same quotient of the same free group.
    """

    __slots__ = ("rank", "relations", "_lattice")

    def __init__(self, rank: int, relations: Optional[IntMatrix] = None):
        if rank < 0:
            raise ValueError("rank must be non-negative")
        if relations is None:
            relations = IntMatrix.zeros(rank, 0)
        if relations.rows != rank:
            raise ValueError("relation matrix must have one row per generator")
        h, _, _ = _hnf(relations)
        nonzero = [j for j in range(h.cols)
                   if any(h.data[i][j] for i in range(h.rows))]
        self.rank = rank
        self.relations = h.select_cols(nonzero)
        self._lattice: Optional[Lattice] = None

    @property
    def lattice(self) -> Lattice:
        if self._lattice is None:
            self._lattice = Lattice(self.relations)
        return self._lattice

    @property
    def is_free(self) -> bool:
        return self.relations.cols == 0

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, FgAbGroup)
                and self.rank == other.rank
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.rank, self.relations.data))

    def __reduce__(self):
        # unpickling and copying rebuild through the constructor, which
        # leaves a Hermite-form relation matrix as it is
        return FgAbGroup, (self.rank, self.relations)

    def __repr__(self):
        if self.is_free:
            return f"FgAbGroup(rank={self.rank})"
        return f"FgAbGroup(rank={self.rank}, relations={self.relations.cols})"


@lru_cache(maxsize=None)
def free_group(rank: int) -> FgAbGroup:
    """The free group of the given rank, one shared instance per rank."""
    return FgAbGroup(rank)


class AbMap:
    """A homomorphism given by its matrix on generators.

    Immutable.  Every construction checks, whoever builds it, that the
    matrix is cod.rank x dom.rank and that it carries each domain
    relator into the codomain relation lattice, raising
    :class:`TypeMismatch` naming the first relator that fails;
    unpickling and copying rebuild through the same checks.  Equality
    and hashing follow (dom, cod, matrix).
    """

    __slots__ = ("dom", "cod", "matrix")

    def __init__(self, dom: FgAbGroup, cod: FgAbGroup, matrix: IntMatrix):
        if matrix.rows != cod.rank or matrix.cols != dom.rank:
            raise TypeMismatch(
                f"matrix is {matrix.rows}x{matrix.cols}, expected "
                f"{cod.rank}x{dom.rank}")
        relations = dom.relations
        for j in range(relations.cols):
            if matrix.apply(relations.col(j)) not in cod.lattice:
                raise TypeMismatch(f"map does not respect domain relator {j}")
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_matrix(self, matrix)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.matrix == other.matrix and self.dom == other.dom and self.cod == other.cod

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.matrix))

    def __repr__(self) -> str:
        return f"AbMap(dom={self.dom!r}, cod={self.cod!r}, matrix={self.matrix!r})"

    def __reduce__(self):
        return AbMap, (self.dom, self.cod, self.matrix)


# the slots' own setters get past the refusing __setattr__
_set_dom, _set_cod, _set_matrix = (AbMap.dom.__set__, AbMap.cod.__set__,
                                   AbMap.matrix.__set__)


def ab_identity(obj: FgAbGroup) -> AbMap:
    return AbMap(obj, obj, IntMatrix.identity(obj.rank))


def ab_compose(f: AbMap, g: AbMap) -> AbMap:
    """f followed by g."""
    if f.cod != g.dom:
        raise TypeMismatch("compose: cod(f) != dom(g)")
    return AbMap(f.dom, g.cod, g.matrix @ f.matrix)


def ab_equal(f: AbMap, g: AbMap) -> bool:
    if f.dom != g.dom or f.cod != g.cod:
        return False
    if f.cod.is_free:
        return f.matrix == g.matrix
    return f.cod.lattice.contains_all_columns(f.matrix - g.matrix)


# ---------------------------------------------------------------------------
# Presentation simplification (Tietze elimination of unit-coefficient gens)


def _simplify_presentation(n: int, rel: IntMatrix, maps_into: list[IntMatrix]):
    """Eliminate generators occurring with coefficient +-1 in a relator.

    Deterministic choice: the highest-index eliminable generator, using
    the first relator that exhibits it.  Returns the reduced relation
    matrix, the transformed maps (still one column per original domain
    generator) and the surviving original generator indices.
    """
    rel_cols = [list(rel.col(j)) for j in range(rel.cols) if any(rel.col(j))]
    mats = [[list(row) for row in m.data] for m in maps_into]
    widths = [m.cols for m in maps_into]
    kept = list(range(n))

    while True:
        target = None
        best_gen = -1
        for ci, c in enumerate(rel_cols):
            for gi, val in enumerate(c):
                if val in (1, -1) and gi > best_gen:
                    best_gen = gi
                    target = (ci, gi)
        if target is None:
            break
        ci, k = target
        c = rel_cols.pop(ci)
        ck = c[k]
        expr = [-ck * c[j] for j in range(len(c))]  # x_k = sum expr[j] x_j
        for col in rel_cols:
            vk = col[k]
            if vk:
                for j in range(len(col)):
                    if j != k:
                        col[j] += vk * expr[j]
            del col[k]
        for m in mats:
            rowk = m[k]
            for j in range(len(m)):
                if j != k and expr[j]:
                    m[j] = [a + expr[j] * b for a, b in zip(m[j], rowk)]
            del m[k]
        del kept[k]
        rel_cols = [col for col in rel_cols if any(col)]

    new_rel = IntMatrix.from_cols([tuple(c) for c in rel_cols], rows=len(kept))
    new_maps = [IntMatrix.from_rows(m, cols=w) for m, w in zip(mats, widths)]
    return new_rel, new_maps, kept


# ---------------------------------------------------------------------------
# Capabilities instance


def _copair_matrix(witness: PushoutWitness, u: IntMatrix, v: IntMatrix) -> IntMatrix:
    """The matrix of [u, v] out of the apex: the columns of [u | v] at
    the disjoint-sum generators that survived simplification."""
    if witness.payload is None or "kept" not in witness.payload:
        raise UnsupportedCapability("witness lacks the column bookkeeping for copairing")
    kept = witness.payload["kept"]
    rows = tuple(tuple(map((ru + rv).__getitem__, kept))
                 for ru, rv in zip(u.data, v.data, strict=True))
    return IntMatrix(u.rows, len(kept), rows)


class AbGp(CategoryCapabilities):
    name = "abgp"

    def equal(self, f, g):
        return ab_equal(f, g)

    def compose(self, f, g):
        return ab_compose(f, g)

    def identity(self, obj):
        return ab_identity(obj)

    def pushout(self, f: AbMap, g: AbMap) -> PushoutWitness:
        """(A + B) / <f(s) - g(s)>, Tietze-simplified."""
        if f.dom != g.dom:
            raise TypeMismatch("pushout: span legs must share a domain")
        a, b = f.cod, g.cod
        n = a.rank + b.rank
        rel_a = vstack(a.relations, IntMatrix.zeros(b.rank, a.relations.cols))
        rel_b = vstack(IntMatrix.zeros(a.rank, b.relations.cols), b.relations)
        glue = vstack(f.matrix, -g.matrix)
        rel = hstack(rel_a, rel_b, glue)
        inj1 = vstack(IntMatrix.identity(a.rank), IntMatrix.zeros(b.rank, a.rank))
        inj2 = vstack(IntMatrix.zeros(a.rank, b.rank), IntMatrix.identity(b.rank))
        new_rel, (inj1, inj2), kept = _simplify_presentation(n, rel, [inj1, inj2])
        apex = FgAbGroup(len(kept), new_rel)
        return PushoutWitness(
            apex=apex,
            injections=(AbMap(a, apex, inj1), AbMap(b, apex, inj2)),
            legs=(f, g),
            payload={"kept": tuple(kept)},
        )

    def copair(self, witness: PushoutWitness, u: AbMap, v: AbMap) -> AbMap:
        i1, i2 = witness.injections
        if u.dom != i1.dom or v.dom != i2.dom:
            raise TypeMismatch("copair: cocone legs do not match the span")
        if u.cod != v.cod:
            raise TypeMismatch("copair: cocone legs must share a codomain")
        f, g = witness.legs
        if not ab_equal(ab_compose(f, u), ab_compose(g, v)):
            raise CoconeMismatch("cocone condition u.f = v.g fails")
        return AbMap(witness.apex, u.cod, _copair_matrix(witness, u.matrix, v.matrix))

    def pullback(self, f: AbMap, g: AbMap):
        """{(x, y) : f(x) = g(y)} for free sources, presented freely.

        Computed as the projection of the kernel of [f | -g | rel_C],
        re-based through a Hermite form.
        """
        if f.cod != g.cod:
            raise TypeMismatch("pullback: cospan legs must share a codomain")
        a, b = f.dom, g.dom
        if not (a.is_free and b.is_free):
            raise NotFree("pullback implemented for free sources only")
        c = f.cod
        stacked = hstack(f.matrix, -g.matrix, c.relations)
        kb = kernel_basis(stacked)
        proj = kb.select_rows(range(a.rank + b.rank))
        h, _, _ = _hnf(proj)
        nonzero = [j for j in range(h.cols) if any(h.data[i][j] for i in range(h.rows))]
        basis = h.select_cols(nonzero)
        p = free_group(basis.cols)
        p1 = AbMap(p, a, basis.select_rows(range(a.rank)))
        p2 = AbMap(p, b, basis.select_rows(range(a.rank, a.rank + b.rank)))
        return p, p1, p2

    def pair(self, projections, u: AbMap, v: AbMap) -> Optional[AbMap]:
        """The w with w.p1 = u and w.p2 = v, by one exact solve; None
        when there is none."""
        p1, p2 = projections
        if u.dom != v.dom:
            raise TypeMismatch("pair: cone legs must share a domain")
        w = solve_matrix(vstack(p1.matrix, p2.matrix), vstack(u.matrix, v.matrix))
        return None if w is None else AbMap(u.dom, p1.dom, w)

    def joint_mono_status(self, maps):
        """Between free groups: whether the stacked maps have a trivial kernel."""
        maps = list(maps)
        if not maps:
            raise TypeMismatch("need at least one map")
        dom = maps[0].dom
        if any(m.dom != dom for m in maps):
            raise TypeMismatch("joint-mono test needs a common domain")
        if not all(g.is_free for g in (dom, *(m.cod for m in maps))):
            raise UnsupportedCapability("abgp: joint-mono test needs free groups")
        kernel = kernel_basis(vstack(*(m.matrix for m in maps)))
        if kernel.cols:
            return False, {"kernel_rank": kernel.cols}
        return True, None

    def joint_epi_status(self, maps):
        maps = list(maps)
        if not maps:
            raise TypeMismatch("need at least one map")
        cod = maps[0].cod
        if any(m.cod != cod for m in maps):
            raise TypeMismatch("joint-epi test needs a common codomain")
        stacked = hstack(*(m.matrix for m in maps), cod.relations)
        factors = cokernel(stacked)
        if factors:
            return False, {"cokernel_invariant_factors": factors}
        return True, None

    def solve_coinverse(self, data: CoCategoryData) -> AbMap:
        """s = l.i + r.i - 1 (l.i is "i, then l").  The counit laws force
        q = nu1 + nu2 - nu1.r.i, and i.l = i.r = 1, so on a co-category:
          s.l = l + r - l = r, and s.r = l likewise;
          [1, s].q = 1 + s - r.i = l.i;
          [s, 1].q = s + 1 - s.r.i = s + 1 - l.i = r.i.
        Off a co-category a failed identity raises :class:`UnsupportedCapability`."""
        l, r, i = data.l.matrix, data.r.matrix, data.i.matrix
        s = AbMap(data.q1, data.q1, (l + r) @ i - IntMatrix.identity(data.q1.rank))
        violation = coinverse_violation(self, data, s)
        if violation is not None:
            raise UnsupportedCapability(f"abgp: s = l.i + r.i - 1 violates {violation}")
        return s

    def inverse(self, f: AbMap) -> Optional[AbMap]:
        """Through :func:`invert_unimodular` between free groups; None
        when the matrix is not unimodular."""
        if not (f.dom.is_free and f.cod.is_free):
            raise UnsupportedCapability("inverting needs free groups")
        try:
            return AbMap(f.cod, f.dom, invert_unimodular(f.matrix))
        except ValueError:
            return None


ABGP = AbGp()


# ---------------------------------------------------------------------------
# The explicit interval-shaped example on Z, Z^3


EXAMPLE_L = IntMatrix.from_rows([[1], [0], [0]])
EXAMPLE_R = IntMatrix.from_rows([[0], [0], [1]])
EXAMPLE_I = IntMatrix.from_rows([[1, 0, 1]])
EXAMPLE_Q = IntMatrix.from_rows([
    [1, 0, 0],
    [0, 1, 0],
    [0, 0, 0],
    [0, 1, 0],
    [0, 0, 1],
])
# the unique co-inverse: v0 <-> v1, e1 -> -e1
EXAMPLE_S = IntMatrix.from_rows([
    [0, 0, 1],
    [0, -1, 0],
    [1, 0, 0],
])


def group_example_cocategory() -> CoCategoryData:
    """The non-co-preorder co-category on Q0 = Z, Q1 = Z^3.

    Generators read (v0, e1, v1); the pushout apex comes out as the
    free rank-5 group on (v0, e1, v1, e2, v2), and q is given by its
    matrix on that basis.
    """
    q0 = free_group(1)
    q1 = free_group(3)
    l = AbMap(q0, q1, EXAMPLE_L)
    r = AbMap(q0, q1, EXAMPLE_R)
    i = AbMap(q1, q0, EXAMPLE_I)
    double = ABGP.pushout(r, l)
    if double.apex != free_group(5):
        raise InvariantViolation("double pushout did not reduce to the rank-5 free group")
    q = AbMap(q1, double.apex, EXAMPLE_Q)
    return CoCategoryData(q0=q0, q1=q1, l=l, r=r, i=i, q=q, double=double)


# ---------------------------------------------------------------------------
# Dualisation by transposition


def transpose_dualize(data: CoCategoryData) -> CoCategoryData:
    """Transpose every structure matrix, turning the co-category into an
    internal category: a co-category in ``Op(ABGP)`` on the same free
    groups, whose double apex is the object of composable pairs; the
    checker builds the object of composable triples as a pullback.
    Only meaningful over free groups."""
    for label, grp in (("Q0", data.q0), ("Q1", data.q1), ("double apex", data.double.apex)):
        if not grp.is_free:
            raise NotFree(f"{label} has relations; transposition needs free groups")

    def t(f: AbMap) -> OpMap:
        return OpMap(AbMap(f.cod, f.dom, f.matrix.transpose()))

    w = data.double
    double = PushoutWitness(apex=w.apex, injections=tuple(map(t, w.injections)),
                            legs=tuple(map(t, w.legs)))
    return CoCategoryData(q0=data.q0, q1=data.q1, l=t(data.l), r=t(data.r), i=t(data.i),
                          q=t(data.q), double=double)


def transpose_internal(icat: CoCategoryData) -> CoCategoryData:
    """Transpose back: rebuilds the co-category over freshly computed
    pushout witnesses, with q read through the comparison from them to
    the transposed composable-pairs object (:func:`core.reassemble`)."""

    def t(f: OpMap) -> AbMap:
        return AbMap(f.dom, f.cod, f.base.matrix.transpose())

    glued = tuple(map(t, icat.double.injections))
    return reassemble(ABGP, t(icat.l), t(icat.r), t(icat.i), t(icat.q), glued)
