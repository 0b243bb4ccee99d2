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
turns co-categories of free groups into internal categories checked
against the mirror-image axioms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    CategoryCapabilities,
    Check,
    CoCategoryData,
    CoconeMismatch,
    ConeMismatch,
    InternalCategoryData,
    InvariantViolation,
    NotFree,
    PullbackWitness,
    PushoutWitness,
    Report,
    TypeMismatch,
    UnsupportedCapability,
    double_and_triple,
)
from .intmatrix import (
    IntMatrix,
    Lattice,
    cokernel,
    flatten,
    hstack,
    kernel_basis,
    kron,
    solve,
    solve_matrix,
    unflatten,
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

    def element_equal(self, x: Sequence[int], y: Sequence[int]) -> bool:
        return tuple(a - b for a, b in zip(x, y)) in self.lattice

    def __eq__(self, other) -> bool:
        return (isinstance(other, FgAbGroup)
                and self.rank == other.rank
                and self.relations == other.relations)

    def __hash__(self):
        return hash((self.rank, self.relations.data))

    def __repr__(self):
        if self.is_free:
            return f"FgAbGroup(rank={self.rank})"
        return f"FgAbGroup(rank={self.rank}, relations={self.relations.cols})"


def free_group(rank: int) -> FgAbGroup:
    return FgAbGroup(rank)


@dataclass(frozen=True)
class AbMap:
    """A homomorphism given by its matrix on generators."""

    dom: FgAbGroup
    cod: FgAbGroup
    matrix: IntMatrix

    def __post_init__(self):
        if self.matrix.rows != self.cod.rank or self.matrix.cols != self.dom.rank:
            raise TypeMismatch(
                f"matrix is {self.matrix.rows}x{self.matrix.cols}, expected "
                f"{self.cod.rank}x{self.dom.rank}")
        for j in range(self.dom.relations.cols):
            if self.matrix.apply(self.dom.relations.col(j)) not in self.cod.lattice:
                raise TypeMismatch(f"map does not respect domain relator {j}")


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
    return hstack(u, v).select_cols(witness.payload["kept"])


def coinverse_system(double: PushoutWitness, l: IntMatrix, r: IntMatrix,
                     i: IntMatrix, q: IntMatrix) -> tuple[IntMatrix, list[int]]:
    """The four co-inverse identities s.l = r, s.r = l, [1,s].q = l.i and
    [s,1].q = r.i as one integer system ``matrix @ flatten(s) = rhs``;
    ``double`` is the pushout witness q lands in.

    Row by row, a.s.b flattens to ``kron(a, b^T)`` applied to
    ``flatten(s)``, and through the witness [u, v].q = u.qa + v.qb, where
    qa and qb are q read at the kept generators of each summand.
    """
    eye = IntMatrix.identity(l.rows)
    zero = IntMatrix.zeros(l.rows, l.rows)
    qa = _copair_matrix(double, eye, zero) @ q
    qb = _copair_matrix(double, zero, eye) @ q
    matrix = vstack(*(kron(eye, m.transpose()) for m in (l, r, qb, qa)))
    rhs = flatten(r) + flatten(l) + flatten(l @ i - qa) + flatten(r @ i - qb)
    return matrix, rhs


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

    def joint_epi_status(self, maps):
        maps = list(maps)
        cod = maps[0].cod
        if any(m.cod != cod for m in maps):
            raise TypeMismatch("joint-epi test needs a common codomain")
        stacked = hstack(*(m.matrix for m in maps), cod.relations)
        factors = cokernel(stacked)
        if factors:
            return False, {"cokernel_invariant_factors": factors}
        return True, None

    def solve_coinverse(self, data: CoCategoryData) -> Optional[AbMap]:
        """Solve the four co-inverse identities as one integer linear
        system in the entries of s (:func:`coinverse_system`).  Needs
        free groups so that equality is strict; returns None exactly
        when the system is inconsistent.
        """
        if not (data.q0.is_free and data.q1.is_free and data.double.apex.is_free):
            raise UnsupportedCapability("co-inverse solving needs free groups")
        sol = solve(*coinverse_system(data.double, data.l.matrix, data.r.matrix,
                                      data.i.matrix, data.q.matrix))
        if sol is None:
            return None
        n = data.q1.rank
        return AbMap(data.q1, data.q1, unflatten(sol, n, n))


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
    double, triple = double_and_triple(ABGP, l, r)
    if double.apex != free_group(5):
        raise InvariantViolation("double pushout did not reduce to the rank-5 free group")
    q = AbMap(q1, double.apex, EXAMPLE_Q)
    return CoCategoryData(q0=q0, q1=q1, l=l, r=r, i=i, q=q, double=double, triple=triple)


# ---------------------------------------------------------------------------
# Dualisation by transposition


def transpose_dualize(data: CoCategoryData) -> InternalCategoryData:
    """Transpose every structure matrix, turning the co-category into an
    internal category whose composable-pairs object is the transposed
    pushout apex.  Only meaningful over free groups."""
    for label, grp in (("Q0", data.q0), ("Q1", data.q1),
                       ("double apex", data.double.apex), ("triple apex", data.triple.apex)):
        if not grp.is_free:
            raise NotFree(f"{label} has relations; transposition needs free groups")
    c0 = free_group(data.q0.rank)
    c1 = free_group(data.q1.rank)
    p2 = free_group(data.double.apex.rank)
    p3 = free_group(data.triple.apex.rank)
    src = AbMap(c1, c0, data.l.matrix.transpose())
    tgt = AbMap(c1, c0, data.r.matrix.transpose())
    unit = AbMap(c0, c1, data.i.matrix.transpose())
    comp = AbMap(p2, c1, data.q.matrix.transpose())
    n1, n2 = data.double.injections
    t1, t2, t3 = data.triple.injections
    double = PullbackWitness(
        apex=p2,
        projections=(AbMap(p2, c1, n1.matrix.transpose()),
                     AbMap(p2, c1, n2.matrix.transpose())),
        legs=(tgt, src),
    )
    triple = PullbackWitness(
        apex=p3,
        projections=(AbMap(p3, c1, t1.matrix.transpose()),
                     AbMap(p3, c1, t2.matrix.transpose()),
                     AbMap(p3, c1, t3.matrix.transpose())),
        legs=(tgt, src),
    )
    return InternalCategoryData(c0=c0, c1=c1, src=src, tgt=tgt, unit=unit,
                                comp=comp, double=double, triple=triple)


def transpose_internal(icat: InternalCategoryData) -> CoCategoryData:
    """Transpose back: rebuilds the co-category with freshly computed
    pushout witnesses (the canonical pushout reproduces the transposed
    apex for data that came from :func:`transpose_dualize`)."""
    q0 = free_group(icat.c0.rank)
    q1 = free_group(icat.c1.rank)
    l = AbMap(q0, q1, icat.src.matrix.transpose())
    r = AbMap(q0, q1, icat.tgt.matrix.transpose())
    i = AbMap(q1, q0, icat.unit.matrix.transpose())
    double, triple = double_and_triple(ABGP, l, r)
    if double.apex.rank != icat.double.apex.rank or not double.apex.is_free:
        raise InvariantViolation("recomputed pushout does not match the transposed apex")
    q = AbMap(q1, double.apex, icat.comp.matrix.transpose())
    return CoCategoryData(q0=q0, q1=q1, l=l, r=r, i=i, q=q, double=double, triple=triple)


def _pair(witness: PullbackWitness, u: AbMap, v: AbMap) -> AbMap:
    """Factor the cone (u, v) through the pullback apex, verifying that
    the factorisation is unique (trivial kernel of the stacked
    projections)."""
    if len(witness.projections) != 2:
        raise TypeMismatch("pairing needs a binary pullback witness")
    pi1, pi2 = witness.projections
    if u.dom != v.dom:
        raise TypeMismatch("cone legs must share a domain")
    stacked = vstack(pi1.matrix, pi2.matrix)
    target = vstack(u.matrix, v.matrix)
    w = solve_matrix(stacked, target)
    if w is None:
        raise ConeMismatch("cone does not factor through the pullback apex")
    if kernel_basis(stacked).cols != 0:
        raise InvariantViolation("pullback projections are not jointly monic")
    return AbMap(u.dom, witness.apex, w)


def check_internal_category(icat: InternalCategoryData) -> Report:
    """The mirror-image axiom check for an internal category in AbGp:
    source/target of units and composites, unit laws and associativity,
    with pairings obtained by exact linear solving against the
    pullback witnesses."""
    src, tgt, unit, comp = icat.src, icat.tgt, icat.unit, icat.comp
    pi1, pi2 = icat.double.projections
    rho1, rho2, rho3 = icat.triple.projections
    id0 = ab_identity(icat.c0)
    id1 = ab_identity(icat.c1)
    checks: list[Check] = []

    checks.append(Check("double-cospan", ab_equal(ab_compose(pi1, tgt), ab_compose(pi2, src))))
    checks.append(Check("triple-cospan", ab_equal(ab_compose(rho1, tgt), ab_compose(rho2, src))
                        and ab_equal(ab_compose(rho2, tgt), ab_compose(rho3, src))))
    checks.append(Check("unit-source", ab_equal(ab_compose(unit, src), id0)))
    checks.append(Check("unit-target", ab_equal(ab_compose(unit, tgt), id0)))
    checks.append(Check("comp-source", ab_equal(ab_compose(comp, src), ab_compose(pi1, src))))
    checks.append(Check("comp-target", ab_equal(ab_compose(comp, tgt), ab_compose(pi2, tgt))))

    for name, first, second in (
        ("left-unit", ab_compose(src, unit), id1),
        ("right-unit", id1, ab_compose(tgt, unit)),
    ):
        try:
            w = _pair(icat.double, first, second)
            checks.append(Check(name, ab_equal(ab_compose(w, comp), id1)))
        except ConeMismatch as exc:
            checks.append(Check(name, False, f"pairing undefined: {exc}"))

    try:
        w12 = _pair(icat.double, rho1, rho2)
        m12 = ab_compose(w12, comp)
        left = ab_compose(_pair(icat.double, m12, rho3), comp)
        w23 = _pair(icat.double, rho2, rho3)
        m23 = ab_compose(w23, comp)
        right = ab_compose(_pair(icat.double, rho1, m23), comp)
        checks.append(Check("assoc", ab_equal(left, right)))
    except ConeMismatch as exc:
        checks.append(Check("assoc", False, f"pairing undefined: {exc}"))

    return Report(tuple(checks))
