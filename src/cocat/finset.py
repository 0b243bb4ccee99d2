"""The finite-set engine: a fully coherent host category.

Objects are sizes (elements ``0 .. size-1``), morphisms are lookup
tables.  Finite sets have every piece of structure the generic layer
can ask for -- finite limits, images, unions, a subobject classifier --
so this module also hosts the machinery that only makes sense here:
exhaustive co-category enumeration, the step-by-step verifier for the
claim that every co-category is a co-equivalence relation, the
universal co-category over the two-element classifier, and the colax
correspondence between co-categories and characteristic maps.

All constructions are canonical and deterministic: pushout apex
elements are equivalence classes ordered by their smallest member of
the disjoint union, pullback elements are lexicographically ordered
pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .core import (
    CategoryCapabilities,
    Check,
    CoCategoryData,
    CoconeMismatch,
    IllFormedPushout,
    InvariantViolation,
    NotMono,
    PushoutWitness,
    Report,
    SizeLimit,
    TypeMismatch,
    coinverse_violation,
    cokernel_pair,
    double_and_triple,
    triple_pushout,
)


# ---------------------------------------------------------------------------
# Objects, morphisms, subobjects


@dataclass(frozen=True)
class FinSetObj:
    """A finite set with elements 0 .. size-1."""

    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("size must be non-negative")


@dataclass(frozen=True)
class FinMap:
    """A function between finite sets, stored as a lookup table."""

    dom: FinSetObj
    cod: FinSetObj
    table: tuple[int, ...]

    def __post_init__(self):
        if len(self.table) != self.dom.size:
            raise TypeMismatch("table length does not match domain size")
        if self.table and (min(self.table) < 0 or max(self.table) >= self.cod.size):
            raise TypeMismatch("table entry out of codomain range")

    def __call__(self, x: int) -> int:
        return self.table[x]


@dataclass(frozen=True)
class Subobject:
    """A subobject in canonical form: the sorted subset of the codomain."""

    cod: FinSetObj
    elements: tuple[int, ...]

    def __post_init__(self):
        if tuple(sorted(set(self.elements))) != self.elements:
            raise ValueError("elements must be sorted and duplicate-free")
        if any(not (0 <= e < self.cod.size) for e in self.elements):
            raise ValueError("element out of range")

    @classmethod
    def from_mono(cls, m: FinMap) -> "Subobject":
        if not is_mono(m):
            raise NotMono("map is not injective")
        return cls(m.cod, tuple(sorted(m.table)))

    def as_mono(self) -> FinMap:
        return FinMap(FinSetObj(len(self.elements)), self.cod, self.elements)


def identity(obj: FinSetObj) -> FinMap:
    return FinMap(obj, obj, tuple(range(obj.size)))


def compose(f: FinMap, g: FinMap) -> FinMap:
    """f followed by g."""
    if f.cod != g.dom:
        raise TypeMismatch("compose: cod(f) != dom(g)")
    return FinMap(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def is_mono(f: FinMap) -> bool:
    return len(set(f.table)) == len(f.table)


def is_bijective(f: FinMap) -> bool:
    return f.dom.size == f.cod.size and is_mono(f)


def inverse(f: FinMap) -> FinMap:
    if not is_bijective(f):
        raise TypeMismatch("inverse of a non-bijection")
    table = [0] * f.cod.size
    for x, v in enumerate(f.table):
        table[v] = x
    return FinMap(f.cod, f.dom, tuple(table))


def subset_mono(elements, ambient: FinSetObj) -> FinMap:
    """The inclusion of a subset, given by its sorted element list."""
    return Subobject(ambient, tuple(sorted(set(elements)))).as_mono()


# ---------------------------------------------------------------------------
# Colimits and limits


def _uf_find(parent: list[int], x: int) -> int:
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def pushout(f: FinMap, g: FinMap) -> PushoutWitness:
    """Pushout of ``cod(f) <-f- S -g-> cod(g)``.

    The apex is the quotient of the disjoint union by f(s) ~ g(s);
    classes are numbered by their smallest member, A-part first.
    """
    if f.dom != g.dom:
        raise TypeMismatch("pushout: span legs must share a domain")
    na, nb = f.cod.size, g.cod.size
    parent = list(range(na + nb))
    for s in range(f.dom.size):
        ra = _uf_find(parent, f.table[s])
        rb = _uf_find(parent, na + g.table[s])
        if ra != rb:
            parent[rb] = ra
    smallest: dict[int, int] = {}
    for x in range(na + nb):
        r = _uf_find(parent, x)
        if r not in smallest:
            smallest[r] = x
    order = sorted(smallest, key=smallest.get)
    index = {r: k for k, r in enumerate(order)}
    apex = FinSetObj(len(order))
    inj1 = FinMap(f.cod, apex, tuple(index[_uf_find(parent, a)] for a in range(na)))
    inj2 = FinMap(g.cod, apex, tuple(index[_uf_find(parent, na + b)] for b in range(nb)))
    return PushoutWitness(apex=apex, injections=(inj1, inj2), legs=(f, g))


def _fill_copair_table(apex: int, inj1: tuple, inj2: tuple,
                       val1, val2) -> Optional[list[int]]:
    """Table of the copairing, or None when the cocone condition fails."""
    table: list[Optional[int]] = [None] * apex
    for pos, val in zip(inj1, val1):
        if table[pos] is None:
            table[pos] = val
        elif table[pos] != val:
            return None
    for pos, val in zip(inj2, val2):
        if table[pos] is None:
            table[pos] = val
        elif table[pos] != val:
            return None
    return table  # type: ignore[return-value]


def copair(witness: PushoutWitness, u: FinMap, v: FinMap) -> FinMap:
    """Factor the cocone (u, v) through the pushout apex."""
    i1, i2 = witness.injections
    if u.dom != i1.dom or v.dom != i2.dom:
        raise TypeMismatch("copair: cocone legs do not match the span")
    if u.cod != v.cod:
        raise TypeMismatch("copair: cocone legs must share a codomain")
    table = _fill_copair_table(witness.apex.size, i1.table, i2.table, u.table, v.table)
    if table is None:
        raise CoconeMismatch("legs disagree on a glued apex element")
    if None in table:
        raise IllFormedPushout("injections do not cover the apex")
    return FinMap(witness.apex, u.cod, tuple(table))


def pullback(f: FinMap, g: FinMap) -> tuple[FinSetObj, FinMap, FinMap]:
    """Pullback {(a, b) : f(a) = g(b)} with its two projections."""
    if f.cod != g.cod:
        raise TypeMismatch("pullback: cospan legs must share a codomain")
    pairs = [(a, b) for a in range(f.dom.size) for b in range(g.dom.size)
             if f.table[a] == g.table[b]]
    obj = FinSetObj(len(pairs))
    p1 = FinMap(obj, f.dom, tuple(a for a, _ in pairs))
    p2 = FinMap(obj, g.dom, tuple(b for _, b in pairs))
    return obj, p1, p2


def image(f: FinMap) -> Subobject:
    return Subobject(f.cod, tuple(sorted(set(f.table))))


def union(s1: Subobject, s2: Subobject) -> Subobject:
    if s1.cod != s2.cod:
        raise TypeMismatch("union: subobjects of different objects")
    return Subobject(s1.cod, tuple(sorted(set(s1.elements) | set(s2.elements))))


def uncovered(maps) -> list[int]:
    """The elements of the common codomain that no map hits, in order."""
    maps = list(maps)
    if not maps:
        raise TypeMismatch("need at least one map")
    cod = maps[0].cod
    if any(m.cod != cod for m in maps):
        raise TypeMismatch("jointly-covering test needs a common codomain")
    hit = set()
    for m in maps:
        hit.update(m.table)
    return [x for x in range(cod.size) if x not in hit]


def equalizer(f: FinMap, g: FinMap) -> FinMap:
    """The subset where two parallel maps agree, as a mono into dom."""
    if f.dom != g.dom or f.cod != g.cod:
        raise TypeMismatch("equalizer needs parallel maps")
    elems = tuple(x for x in range(f.dom.size) if f.table[x] == g.table[x])
    return FinMap(FinSetObj(len(elems)), f.dom, elems)


# ---------------------------------------------------------------------------
# Capabilities instance


class FinSet(CategoryCapabilities):
    name = "finset"

    def equal(self, f, g):
        return f == g

    def compose(self, f, g):
        return compose(f, g)

    def identity(self, obj):
        return identity(obj)

    def pushout(self, f, g):
        return pushout(f, g)

    def copair(self, witness, u, v):
        return copair(witness, u, v)

    def joint_epi_status(self, maps):
        # in finite sets jointly epi == jointly covering
        missing = uncovered(maps)
        if missing:
            return False, {"uncovered": missing[0]}
        return True, None

    def morphisms(self, x, y):
        for table in itertools.product(range(y.size), repeat=x.size):
            yield FinMap(x, y, table)

    def solve_coinverse(self, data):
        """The first co-inverse in the order of ``morphisms``, or None
        when provably none exists.

        s.l = r and s.r = l pin s on the images of l and r (a conflict
        rules every candidate out); only the elements neither image
        hits are searched, each over every value of Q1.
        """
        q1 = data.q1
        if data.l.cod != q1 or data.r.cod != q1:
            raise TypeMismatch("co-inverse: l and r must land in Q1")
        l, r = data.l.table, data.r.table
        table = _fill_copair_table(q1.size, l, r, r, l)
        if table is None:
            return None
        free = [z for z in range(q1.size) if table[z] is None]
        for values in itertools.product(range(q1.size), repeat=len(free)):
            for z, v in zip(free, values):
                table[z] = v
            s = FinMap(q1, q1, tuple(table))
            if coinverse_violation(self, data, s) is None:
                return s
        return None

    def is_pushout(self, witness):
        f, g = witness.legs
        i1, i2 = witness.injections
        if compose(f, i1) != compose(g, i2):
            return False
        canonical = pushout(f, g)
        try:
            comparison = copair(canonical, i1, i2)
        except (CoconeMismatch, IllFormedPushout):
            return False
        return is_bijective(comparison)


FINSET = FinSet()


# ---------------------------------------------------------------------------
# Co-categories from monos


def cokernel_pair_cocategory(m: FinMap) -> CoCategoryData:
    """The co-category with Q1 = A +_S A built from a mono S -> A."""
    if not is_mono(m):
        raise NotMono("cokernel pair co-category needs an injective map")
    return cokernel_pair(FINSET, m)


def trivial_cocategory() -> CoCategoryData:
    return cokernel_pair_cocategory(identity(FinSetObj(1)))


# ---------------------------------------------------------------------------
# Step-by-step verification that a co-category is a co-equivalence relation


def _first_difference(f: FinMap, g: FinMap) -> Optional[int]:
    """The first element where two maps with a common domain differ."""
    return next((x for x, (a, b) in enumerate(zip(f.table, g.table)) if a != b), None)


def verify_proposition(data: CoCategoryData) -> Report:
    """Walk the whole argument on one concrete co-category.

    The caller checks the axioms first (e.g. through ``classify``); the
    walkthrough assumes them and, on a structure that breaks them,
    reports the steps where the argument fails.  One check per step:

    * ``preimages-cover``: pulling the two summands of the double
      pushout back along q gives preimages that cover Q1;
    * ``left-retraction``, ``right-retraction``: they retract onto the
      images of l and r (l.i.q_1 = m_1, r.i.q_2 = m_2);
    * ``legs-cover``: so l and r jointly cover Q1;
    * ``projections-equal``: the two projections of their pullback agree;
    * ``square-is-pushout``: that pullback square is also a pushout;
    * ``coinverse``: its universal property yields a co-inverse.

    A failing step's detail carries a concrete element witness; a step
    that cannot run because an earlier one failed has no detail.
    """
    checks: list[Check] = []

    def step(name: str, failure: Optional[str]) -> bool:
        checks.append(Check(name, failure is None, failure))
        return failure is None

    nu1, nu2 = data.double.injections
    # P_j = pullback of nu_j along q, with q_j into the nu side and m_j
    # into the q side.
    _, m1, q1 = pullback(data.q, nu1)
    _, m2, q2 = pullback(data.q, nu2)
    missing = uncovered([m1, m2])
    step("preimages-cover",
         f"element {missing[0]} of Q1 lies in neither preimage" if missing else None)

    bad = _first_difference(compose(q1, compose(data.i, data.l)), m1)
    step("left-retraction", None if bad is None else f"l.i.q_1 != m_1 at P1 element {bad}")
    bad = _first_difference(compose(q2, compose(data.i, data.r)), m2)
    step("right-retraction", None if bad is None else f"r.i.q_2 != m_2 at P2 element {bad}")

    missing = uncovered([data.l, data.r])
    step("legs-cover", f"element {missing[0]} of Q1 not hit by l or r" if missing else None)

    _, p1, p2 = pullback(data.l, data.r)
    bad = _first_difference(p1, p2)
    proj_eq = step("projections-equal",
                   None if bad is None else f"pullback projections differ at element {bad}")

    W = pushout(p1, p2)
    try:
        comparison = copair(W, data.l, data.r)
    except (CoconeMismatch, IllFormedPushout) as exc:
        square = step("square-is-pushout", f"pushout comparison undefined: {exc}")
    else:
        square = step("square-is-pushout", None if is_bijective(comparison) else
                      f"comparison map has size {W.apex.size} vs Q1 size {data.q1.size}"
                      if W.apex.size != data.q1.size else "comparison map is not injective")
    if square and proj_eq:
        s = compose(inverse(comparison), copair(W, data.r, data.l))
        violated = coinverse_violation(FINSET, data, s)
        step("coinverse",
             None if violated is None else f"constructed co-inverse violates {violated}")
    else:
        checks.append(Check("coinverse", False))
    return Report(tuple(checks))


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def _vacuous_cocategory() -> CoCategoryData:
    zero = FinSetObj(0)
    empty = FinMap(zero, zero, ())
    double, triple = double_and_triple(FINSET, empty, empty)
    return CoCategoryData(zero, zero, empty, empty, empty, empty, double, triple)


def enumerate_cocategories(max_q0: int, max_q1: int,
                           progress: Optional[Callable[[dict], None]] = None
                           ) -> Iterator[CoCategoryData]:
    """Yield every co-category with |Q0| <= max_q0 and |Q1| <= max_q1,
    counted on the nose, not up to isomorphism.

    i is onto (i.l = id), and each onto i is i0.sigma^-1 for exactly one
    non-decreasing i0 (contiguous fibres) and one bijection sigma of Q1
    increasing on each fibre.  So (l, r, q) are searched under each i0
    only, and each completion is yielded relabelled along every such
    sigma, with the canonical ``double_and_triple`` witnesses: orderly
    generation (McKay 1998) where the canonical form is a sort.  The
    search assumes nothing of the theorem and prunes nothing that could
    pass.  Structures come out by size, then representative, then
    relabelling.  ``progress`` gets one dict per size: ``lri_triples``
    counts the representative (l, r, i) searched, ``found`` the
    structures yielded.

    The degenerate (0, 0) structure is a valid vacuous co-category but
    is only reachable when a bound is zero (an empty Q0 admits no maps
    from a nonempty Q1, and vice versa l, r need a nonempty target).
    """
    if max_q0 < 0 or max_q1 < 0:
        raise ValueError("bounds must be non-negative")
    if max_q0 == 0 or max_q1 == 0:
        yield _vacuous_cocategory()
        return
    for n0 in range(1, max_q0 + 1):
        for n1 in range(1, max_q1 + 1):
            found = 0
            triples = 0
            q0, q1 = FinSetObj(n0), FinSetObj(n1)
            for fibres, l, r, i in _representative_triples(q0, q1):
                triples += 1
                for rep in _q_candidates(q0, q1, l, r, i):
                    for sigma in _fibre_shuffles(fibres, tuple(range(n1))):
                        found += 1
                        yield _relabel(rep, FinMap(q1, q1, sigma))
            if progress is not None:
                progress({"q0": n0, "q1": n1, "lri_triples": triples, "found": found})


def _representative_triples(q0: FinSetObj, q1: FinSetObj
                            ) -> Iterator[tuple[tuple, FinMap, FinMap, FinMap]]:
    """(fibres, l, r, i) for each non-decreasing onto i: Q1 -> Q0, one
    per composition of |Q1| into |Q0| parts, and each pair of its
    sections l, r."""
    n0, n1 = q0.size, q1.size
    for cuts in itertools.combinations(range(1, n1), n0 - 1):
        ends = (0, *cuts, n1)
        fibres = tuple(tuple(range(a, b)) for a, b in zip(ends, ends[1:]))
        i = FinMap(q1, q0, tuple(x for x, fib in enumerate(fibres) for _ in fib))
        for l_table in itertools.product(*fibres):
            l = FinMap(q0, q1, l_table)
            for r_table in itertools.product(*fibres):
                yield fibres, l, FinMap(q0, q1, r_table), i


def _fibre_shuffles(fibres: tuple, labels: tuple) -> Iterator[tuple[int, ...]]:
    """The tables of the bijections that send the contiguous ``fibres``
    onto ``labels``, increasing on each fibre: one per coset of the
    permutations that fix every fibre."""
    if not fibres:
        yield ()
        return
    for chosen in itertools.combinations(labels, len(fibres[0])):
        rest = tuple(v for v in labels if v not in chosen)
        for tail in _fibre_shuffles(fibres[1:], rest):
            yield chosen + tail


def _relabel(data: CoCategoryData, sigma: FinMap) -> CoCategoryData:
    """Transport a structure along a bijection sigma of Q1: l' = sigma.l,
    r' = sigma.r, i' = i.sigma^-1, canonical witnesses for (l', r'), and
    q' = phi.q.sigma^-1, where the apex bijection phi has
    phi.nu1 = nu1'.sigma and phi.nu2 = nu2'.sigma."""
    back = inverse(sigma)
    l, r = compose(data.l, sigma), compose(data.r, sigma)
    double, triple = double_and_triple(FINSET, l, r)
    old1, old2 = data.double.injections
    nu1, nu2 = double.injections
    phi = _fill_copair_table(data.double.apex.size, old1.table, old2.table,
                             compose(sigma, nu1).table, compose(sigma, nu2).table)
    q = FinMap(data.q1, double.apex, tuple(phi[w] for w in compose(back, data.q).table))
    return CoCategoryData(data.q0, data.q1, l, r, compose(back, data.i), q, double, triple)


def _q_candidates(q0: FinSetObj, q1: FinSetObj, l: FinMap, r: FinMap,
                  i: FinMap) -> Iterator[CoCategoryData]:
    """Every q completing (l, r, i) to a co-category.  The axioms pin q
    on the images of l and r, the counit axioms hold pointwise, and
    only co-associativity is tested per candidate."""
    n1 = q1.size
    double = pushout(r, l)
    nu1, nu2 = (m.table for m in double.injections)
    apex = double.apex.size
    li = tuple(l.table[i.table[x]] for x in range(n1))
    ri = tuple(r.table[i.table[x]] for x in range(n1))
    idx = tuple(range(n1))
    fold_left = _fill_copair_table(apex, nu1, nu2, li, idx)
    fold_right = _fill_copair_table(apex, nu1, nu2, idx, ri)
    if fold_left is None or fold_right is None:
        return

    # axioms q.l = nu1.l and q.r = nu2.r pin q on the images of l and r
    base = _fill_copair_table(n1, l.table, r.table,
                              [nu1[e] for e in l.table], [nu2[e] for e in r.table])
    if base is None:
        return
    # both counit axioms hold pointwise: q(z) must fold back to z on
    # either side, so each entry ranges only over such apex elements
    options = [[w for w in (range(apex) if base[z] is None else (base[z],))
                if fold_left[w] == z == fold_right[w]] for z in range(n1)]
    if not all(options):
        return

    # only now is co-associativity worth the triple pushout
    triple = triple_pushout(FINSET, double)
    t1, t2, t3 = triple.injections
    j1 = copair(double, t1, t2).table
    kappa = copair(double, t2, t3).table
    t1t, t3t = t1.table, t3.table
    for qt in itertools.product(*options):
        q_then_j1 = tuple(j1[qt[x]] for x in range(n1))
        q_then_kappa = tuple(kappa[qt[x]] for x in range(n1))
        left_assoc = _fill_copair_table(apex, nu1, nu2, q_then_j1, t3t)
        right_assoc = _fill_copair_table(apex, nu1, nu2, t1t, q_then_kappa)
        if left_assoc is None or right_assoc is None:
            continue
        if any(left_assoc[qt[z]] != right_assoc[qt[z]] for z in range(n1)):
            continue
        q_map = FinMap(q1, double.apex, tuple(qt))
        yield CoCategoryData(q0, q1, l, r, i, q_map, double, triple)


def count_q_solutions(q0: FinSetObj, q1: FinSetObj, l: FinMap, r: FinMap,
                      i: FinMap) -> int:
    """How many co-compositions complete a fixed (l, r, i)."""
    return sum(1 for _ in _q_candidates(q0, q1, l, r, i))


# ---------------------------------------------------------------------------
# Subobject classifier and the universal co-category


OMEGA = FinSetObj(2)
TOP = FinMap(FinSetObj(1), OMEGA, (1,))


def universal_cocategory() -> CoCategoryData:
    """The co-category every finite-set co-category pulls back from:
    the cokernel pair of true: 1 -> Omega."""
    return cokernel_pair_cocategory(TOP)


def classifying_map(m: FinMap) -> FinMap:
    """Characteristic map A -> Omega of the subobject of a mono."""
    if not is_mono(m):
        raise NotMono("classifying map of a non-injective map")
    hit = set(m.table)
    return FinMap(m.cod, OMEGA, tuple(1 if a in hit else 0 for a in range(m.cod.size)))


def pullback_cocategory(chi: FinMap) -> CoCategoryData:
    """The co-category over A induced by pulling the universal one back
    along a characteristic map chi: A -> Omega.

    Q1 is the pullback of chi against the universal co-unit; l, r, i
    are the induced maps, and q is transported through the canonical
    comparison between the computed double pushout and the pullback of
    chi against the universal double apex.
    """
    if chi.cod != OMEGA:
        raise TypeMismatch("characteristic maps must land in the two-element classifier")
    uni = universal_cocategory()
    a = chi.dom

    pairs = [(x, u) for x in range(a.size) for u in range(uni.q1.size)
             if chi.table[x] == uni.i.table[u]]
    q1 = FinSetObj(len(pairs))
    index = {p: k for k, p in enumerate(pairs)}
    pi_a = FinMap(q1, a, tuple(x for x, _ in pairs))
    l = FinMap(a, q1, tuple(index[(x, uni.l.table[chi.table[x]])] for x in range(a.size)))
    r = FinMap(a, q1, tuple(index[(x, uni.r.table[chi.table[x]])] for x in range(a.size)))
    i = pi_a
    double, triple = double_and_triple(FINSET, l, r)

    # A x_Omega (universal double apex), over the folded co-unit
    u2 = uni.double
    ibar = copair(u2, uni.i, uni.i)
    pairs2 = [(x, w) for x in range(a.size) for w in range(u2.apex.size)
              if chi.table[x] == ibar.table[w]]
    index2 = {p: k for k, p in enumerate(pairs2)}
    p2obj = FinSetObj(len(pairs2))
    un1, un2 = u2.injections
    q_tilde = FinMap(q1, p2obj, tuple(index2[(x, uni.q.table[u])] for x, u in pairs))
    alpha1 = FinMap(q1, p2obj, tuple(index2[(x, un1.table[u])] for x, u in pairs))
    alpha2 = FinMap(q1, p2obj, tuple(index2[(x, un2.table[u])] for x, u in pairs))
    psi_inv = copair(double, alpha1, alpha2)
    if not is_bijective(psi_inv):
        raise InvariantViolation("double pushout does not match the pulled-back double apex")
    q = compose(q_tilde, inverse(psi_inv))
    return CoCategoryData(a, q1, l, r, i, q, double, triple)


# ---------------------------------------------------------------------------
# Colax correspondence and isomorphism search


def cocat_morphisms(src: CoCategoryData, dst: CoCategoryData,
                    max_candidates: int = 1_000_000) -> list[tuple[FinMap, FinMap]]:
    """All co-category morphisms src -> dst, by filtered brute force."""
    from .core import check_cocat_morphism

    space = (dst.q0.size ** src.q0.size) * (dst.q1.size ** src.q1.size)
    if space > max_candidates:
        raise SizeLimit(f"morphism search space {space} exceeds cap {max_candidates}")
    found = []
    for f0 in FINSET.morphisms(src.q0, dst.q0):
        for f1 in FINSET.morphisms(src.q1, dst.q1):
            if check_cocat_morphism(FINSET, src, dst, f0, f1).ok:
                found.append((f0, f1))
    return found


def colax_maps(src: CoCategoryData, dst: CoCategoryData) -> list[FinMap]:
    """Maps f0: Q0 -> R0 with chi_src <= chi_dst . f0 pointwise
    (0 = false below 1 = true), where each chi is recovered from the
    equalizer of that co-category's l and r."""
    chi_src = classifying_map(equalizer(src.l, src.r))
    chi_dst = classifying_map(equalizer(dst.l, dst.r))
    out = []
    for f0 in FINSET.morphisms(src.q0, dst.q0):
        if all(chi_src.table[x] <= chi_dst.table[f0.table[x]] for x in range(src.q0.size)):
            out.append(f0)
    return out


def verify_colax_correspondence(src: CoCategoryData, dst: CoCategoryData,
                                max_candidates: int = 1_000_000) -> bool:
    """Does (f0, f1) -> f0 biject co-category morphisms with colax maps?"""
    morphs = cocat_morphisms(src, dst, max_candidates=max_candidates)
    lax = {f0.table for f0 in colax_maps(src, dst)}
    tables = [f0.table for f0, _ in morphs]
    return len(tables) == len(set(tables)) and set(tables) == lax


def iso_cocategories(a: CoCategoryData, b: CoCategoryData,
                     max_candidates: int = 1_000_000, fix_q0: bool = False
                     ) -> Optional[tuple[FinMap, FinMap]]:
    """A pair of bijections commuting with all structure, or None.

    With ``fix_q0`` only the identity is tried on Q0, i.e. the search
    asks for an isomorphism over the shared base object (how a
    structure is compared with its pullback along a characteristic
    map).

    Given f0, the l- and r-squares force f1 on the images of a's l and
    r; an f0 whose forced part is not injective is skipped, and only
    the elements neither image hits are permuted.  Bijections are tried
    in the same order as a search over all pairs, so the same pair is
    found."""
    from .core import check_cocat_morphism

    if a.q0.size != b.q0.size or a.q1.size != b.q1.size:
        return None
    import math

    n1 = a.q1.size
    free_count = len(uncovered([a.l, a.r]))
    space = (1 if fix_q0 else math.factorial(a.q0.size)) * math.factorial(free_count)
    if space > max_candidates:
        raise SizeLimit(f"isomorphism search space {space} exceeds cap {max_candidates}")
    base = [tuple(range(a.q0.size))] if fix_q0 else itertools.permutations(range(a.q0.size))
    for p0 in base:
        f0 = FinMap(a.q0, b.q0, p0)
        # f1 . l = l' . f0 and f1 . r = r' . f0 on the images of l and r
        table = _fill_copair_table(n1, a.l.table, a.r.table,
                                   [b.l.table[x] for x in p0], [b.r.table[x] for x in p0])
        if table is None:
            continue
        forced = [v for v in table if v is not None]
        if len(set(forced)) != len(forced):
            continue
        free = [z for z in range(n1) if table[z] is None]
        rest = [v for v in range(n1) if v not in forced]
        for values in itertools.permutations(rest):
            for z, v in zip(free, values):
                table[z] = v
            f1 = FinMap(a.q1, b.q1, tuple(table))
            if check_cocat_morphism(FINSET, a, b, f0, f1).ok:
                return f0, f1
    return None
