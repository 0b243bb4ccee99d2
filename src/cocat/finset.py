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
pairs.  The enumeration transports each representative's double
pushout along a relabelling of Q1 instead of building a new one, and
the transported witness equals the one ``pushout`` builds.
The counit laws alone make l and r cover Q1 on every co-category, so
an (l, r, i) whose legs do not is rejected before any pushout, and
each map out of Q1 that the axioms fix on im(l) and im(r) is forced,
not searched, by one function, ``factor``: the co-composition q, a
co-inverse s, and the f1 of a co-category morphism given its f0.  A
conflict proves no such map exists; legs that miss Q1 with no conflict
raise instead of trying every map.  Covering legs are jointly epi, so
the compat laws that force q imply the counit and co-associativity
laws too: covering sections l, r of i complete in exactly one way.

The kernel is lean but checks everything: there is one ``FinSetObj``
per size, so objects compare by identity, and a ``FinMap`` is a
slotted immutable value whose table is length- and range-checked at
construction, on every path that builds one (pickling and copying
included).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from .core import (
    CategoryCapabilities,
    Check,
    CoCategoryData,
    CoconeMismatch,
    IllFormedPushout,
    NotMono,
    PushoutWitness,
    Report,
    SizeLimit,
    TypeMismatch,
    UnsupportedCapability,
    coinverse_violation,
    cokernel_pair,
    reassemble,
)


# ---------------------------------------------------------------------------
# Objects, morphisms, subobjects


class FinSetObj:
    """A finite set with elements 0 .. size-1.

    There is one instance per size: ``FinSetObj(n) is FinSetObj(n)``,
    so objects compare by identity.  Each carries its identity map,
    built on first use.
    """

    __slots__ = ("size", "_identity")

    def __new__(cls, size: int) -> "FinSetObj":
        obj = _FINSETS.get(size)
        if obj is None:
            if size < 0:
                raise ValueError("size must be non-negative")
            obj = object.__new__(cls)
            object.__setattr__(obj, "size", size)
            object.__setattr__(obj, "_identity", None)
            # atomic: of two threads interning one size, both get the winner
            obj = _FINSETS.setdefault(size, obj)
        return obj

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __hash__(self) -> int:
        # by value, not by id, so hashes and set orders repeat across runs
        return hash((self.size,))

    def __repr__(self) -> str:
        return f"FinSetObj(size={self.size!r})"

    def __reduce__(self):
        return FinSetObj, (self.size,)


_FINSETS: dict[int, FinSetObj] = {}


class FinMap:
    """A function between finite sets, stored as a lookup table.

    Immutable; every table is length- and range-checked here, whoever
    builds it.  Equality and hashing follow (dom, cod, table).
    """

    __slots__ = ("dom", "cod", "table")

    def __init__(self, dom: FinSetObj, cod: FinSetObj, table: tuple[int, ...]):
        if len(table) != dom.size:
            raise TypeMismatch("table length does not match domain size")
        if table and (min(table) < 0 or max(table) >= cod.size):
            raise TypeMismatch("table entry out of codomain range")
        _set_dom(self, dom)
        _set_cod(self, cod)
        _set_table(self, table)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.table == other.table and self.dom is other.dom and self.cod is other.cod

    def __hash__(self) -> int:
        return hash((self.dom, self.cod, self.table))

    def __repr__(self) -> str:
        return f"FinMap(dom={self.dom!r}, cod={self.cod!r}, table={self.table!r})"

    def __reduce__(self):
        # unpickling and copying rebuild through the checks above
        return FinMap, (self.dom, self.cod, self.table)

    def __call__(self, x: int) -> int:
        return self.table[x]


# the slots' own setters get past the refusing __setattr__, and are
# cheaper than object.__setattr__ on this hot path
_set_dom, _set_cod, _set_table = (FinMap.dom.__set__, FinMap.cod.__set__,
                                  FinMap.table.__set__)


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
    ident = obj._identity
    if ident is None:
        # threads racing here each store an equal map; any one may stay
        ident = FinMap(obj, obj, tuple(range(obj.size)))
        object.__setattr__(obj, "_identity", ident)
    return ident


def compose(f: FinMap, g: FinMap) -> FinMap:
    """f followed by g."""
    if f.cod is not g.dom:
        raise TypeMismatch("compose: cod(f) != dom(g)")
    return FinMap(f.dom, g.cod, tuple(map(g.table.__getitem__, f.table)))


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
    if f.dom is not g.dom:
        raise TypeMismatch("pushout: span legs must share a domain")
    na = f.cod.size
    parent = list(range(na + g.cod.size))
    for a, b in zip(f.table, g.table):
        ra = _uf_find(parent, a)
        rb = _uf_find(parent, na + b)
        if ra != rb:
            parent[rb] = ra
    # scanning in order meets each class first at its smallest member
    index: dict[int, int] = {}
    label = [index.setdefault(_uf_find(parent, x), len(index)) for x in range(len(parent))]
    apex = FinSetObj(len(index))
    inj1 = FinMap(f.cod, apex, tuple(label[:na]))
    inj2 = FinMap(g.cod, apex, tuple(label[na:]))
    return PushoutWitness(apex=apex, injections=(inj1, inj2), legs=(f, g))


def factor(size: int, leg1, leg2, val1, val2) -> Optional[tuple[int, ...]]:
    """h on ``range(size)`` with h[leg1[x]] = val1[x], h[leg2[x]] = val2[x]: None
    if two values meet at one element, UnsupportedCapability if legs miss one."""
    table: list[Optional[int]] = [None] * size
    for pos, val in zip(leg1, val1):
        if table[pos] is None:
            table[pos] = val
        elif table[pos] != val:
            return None
    for pos, val in zip(leg2, val2):
        if table[pos] is None:
            table[pos] = val
        elif table[pos] != val:
            return None
    if None in table:
        raise UnsupportedCapability(f"legs miss element {table.index(None)}: not forced")
    return tuple(table)  # type: ignore[arg-type]


def copair(witness: PushoutWitness, u: FinMap, v: FinMap) -> FinMap:
    """Factor the cocone (u, v) through the pushout apex."""
    i1, i2 = witness.injections
    if u.dom is not i1.dom or v.dom is not i2.dom:
        raise TypeMismatch("copair: cocone legs do not match the span")
    if u.cod is not v.cod:
        raise TypeMismatch("copair: cocone legs must share a codomain")
    try:
        table = factor(witness.apex.size, i1.table, i2.table, u.table, v.table)
    except UnsupportedCapability:
        raise IllFormedPushout("injections do not cover the apex") from None
    if table is None:
        raise CoconeMismatch("legs disagree on a glued apex element")
    return FinMap(witness.apex, u.cod, table)


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
        return f.table == g.table and f.dom is g.dom and f.cod is g.cod

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
        """The co-inverse, or None when provably none exists.

        s.l = r and s.r = l force s through ``factor`` on the images of
        l and r, which cover Q1 on every co-category, so one table is
        checked.  Legs that miss Q1 leave s unforced and raise
        :class:`UnsupportedCapability`.
        """
        q1 = data.q1
        if data.l.cod != q1 or data.r.cod != q1:
            raise TypeMismatch("co-inverse: l and r must land in Q1")
        l, r = data.l.table, data.r.table
        table = factor(q1.size, l, r, r, l)
        if table is None:
            return None
        s = FinMap(q1, q1, table)
        return s if coinverse_violation(self, data, s) is None else None

    def is_pushout(self, witness):
        f, g = witness.legs
        i1, i2 = witness.injections
        if compose(f, i1) != compose(g, i2):
            return False
        # (i1, i2) is a cocone, and the canonical pushout factors every cocone
        comparison = copair(pushout(f, g), i1, i2)
        return is_bijective(comparison)

    def inverse(self, f):
        return inverse(f) if is_bijective(f) else None


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
    # a pullback square commutes, so W factors (l, r)
    comparison = copair(W, data.l, data.r)
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
    return CoCategoryData(zero, zero, empty, empty, empty, empty, pushout(empty, empty))


def enumerate_cocategories(max_q0: int, max_q1: int,
                           progress: Optional[Callable[[dict], None]] = None
                           ) -> Iterator[CoCategoryData]:
    """Yield every co-category with |Q0| <= max_q0 and |Q1| <= max_q1,
    counted on the nose, not up to isomorphism.

    i is onto (i.l = id), and each onto i is i0.sigma^-1 for exactly one
    non-decreasing i0 (contiguous fibres) and one bijection sigma of Q1
    increasing on each fibre.  So (l, r, q) are searched under each i0
    only, and each completion is yielded relabelled along every such
    sigma: orderly generation (McKay 1998) where the canonical form is a
    sort.  Relabelling transports the representative's double pushout
    rather than building a new one; it equals ``pushout(r', l')`` for
    the relabelled (l', r').  The search assumes nothing of the theorem
    and prunes nothing that could pass: the one early rejection, of
    (l, r, i) whose legs miss some z of Q1, follows from the counit
    laws alone, and a rejected triple still counts as searched in
    ``lri_triples``.  Each covering triple has exactly one completion,
    whose axioms the compat laws imply (see ``_q_candidates``).
    Structures come out by size, then representative, then relabelling.
    ``progress`` gets one dict per size: ``lri_triples`` counts the
    representative (l, r, i) searched, ``found`` the structures yielded.

    The degenerate (0, 0) structure is a valid vacuous co-category but
    is only reachable when a bound is zero (an empty Q0 admits no maps
    from a nonempty Q1, and vice versa l, r need a nonempty target);
    it is reported as size (0, 0) with its one triple.
    """
    if max_q0 < 0 or max_q1 < 0:
        raise ValueError("bounds must be non-negative")
    if max_q0 == 0 or max_q1 == 0:
        yield _vacuous_cocategory()
        if progress is not None:
            progress({"q0": 0, "q1": 0, "lri_triples": 1, "found": 1})
        return
    for n0 in range(1, max_q0 + 1):
        for n1 in range(1, max_q1 + 1):
            found = 0
            triples = 0
            q0, q1 = FinSetObj(n0), FinSetObj(n1)
            # built once per composition, for the representatives under it
            shuffles: dict[tuple, list[tuple[FinMap, FinMap, FinMap]]] = {}
            for fibres, l, r, i in _representative_triples(q0, q1):
                triples += 1
                for rep in _q_candidates(q0, q1, l, r, i):
                    if fibres not in shuffles:
                        shuffles[fibres] = _fibre_relabellings(fibres, i)
                    for data in _relabellings(rep, shuffles[fibres]):
                        found += 1
                        yield data
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


def _fibre_relabellings(fibres: tuple, i: FinMap) -> list[tuple[FinMap, FinMap, FinMap]]:
    """(sigma, sigma^-1, i.sigma^-1) for each fibre shuffle sigma of the
    non-decreasing i with these ``fibres``."""
    q1 = i.dom
    out = []
    for table in _fibre_shuffles(fibres, tuple(range(q1.size))):
        sigma = FinMap(q1, q1, table)
        back = inverse(sigma)
        out.append((sigma, back, compose(back, i)))
    return out


def _first_appearance(seq) -> dict[int, int]:
    """Each value of ``seq`` numbered by where it first appears; in
    iteration order the keys list the old values by their new number."""
    return {w: k for k, w in enumerate(dict.fromkeys(seq))}


def _relabellings(rep: CoCategoryData, shuffles) -> Iterator[CoCategoryData]:
    """``rep`` transported along each bijection sigma of Q1 in
    ``shuffles``, given with sigma^-1 and i' = i.sigma^-1 for the
    representative's i: l' = sigma.l, r' = sigma.r and
    q' = phi.q.sigma^-1, into the double pushout that
    ``pushout(r', l')`` builds.

    The relabelled double pushout has the old classes, read through
    sigma^-1 on both copies of Q1; numbering them by first appearance,
    A part then B part, is ``pushout``'s smallest-member numbering and
    gives the apex bijection phi."""
    q0, q1 = rep.q0, rep.q1
    d_apex = rep.double.apex
    nu1, nu2 = (m.table for m in rep.double.injections)
    l, r, q = rep.l.table, rep.r.table, rep.q.table
    # list comprehensions, not generators, inside tuple(): cheaper here
    for sigma, back, i2 in shuffles:
        s, b = sigma.table, back.table
        old1, old2 = [nu1[x] for x in b], [nu2[x] for x in b]
        phi = _first_appearance(old1 + old2)
        l2 = FinMap(q0, q1, tuple([s[a] for a in l]))
        r2 = FinMap(q0, q1, tuple([s[a] for a in r]))
        # PushoutWitness(apex, injections, legs)
        new_double = PushoutWitness(
            d_apex,
            (FinMap(q1, d_apex, tuple([phi[w] for w in old1])),
             FinMap(q1, d_apex, tuple([phi[w] for w in old2]))),
            (r2, l2))
        yield CoCategoryData(q0, q1, l2, r2, i2,
                             FinMap(q1, d_apex, tuple([phi[q[x]] for x in b])),
                             new_double)


def _q_candidates(q0: FinSetObj, q1: FinSetObj, l: FinMap, r: FinMap,
                  i: FinMap) -> Iterator[CoCategoryData]:
    """The q completing (l, r, i) to a co-category, if there is one.

    Legs that miss some z of Q1 have none, by the counit laws alone:
    every apex class w of Q1 +_Q0 Q1 holds some nu1(a), which [l.i, 1]
    sends to l(i(a)) in im(l), or some nu2(b), which [1, r.i] sends to
    r(i(b)) in im(r), so no w folds back to z on both sides.

    Legs that cover Q1 have exactly one, which needs no test: the q that
    the compat laws q.l = nu1.l and q.r = nu2.r force through
    ``factor``.  The forced table has no conflict: l(a) = r(b) gives
    a = i(l(a)) = i(r(b)) = b, and then nu1(l(a)) = nu1(r(a)) =
    nu2(l(a)) = nu2(r(a)).  Each side of each counit and
    co-associativity law is a map out of Q1, and the compat laws make
    the two sides agree after l and after r, which cover Q1 and so are
    jointly epi."""
    if uncovered([l, r]):
        return
    double = pushout(r, l)
    nu1, nu2 = (m.table for m in double.injections)
    qt = factor(q1.size, l.table, r.table,
                [nu1[e] for e in l.table], [nu2[e] for e in r.table])
    yield CoCategoryData(q0, q1, l, r, i, FinMap(q1, double.apex, qt), double)


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
    are the induced maps, and q is read through the comparison from the
    computed double pushout to the pullback of chi against the universal
    double apex (:func:`core.reassemble`).
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
    return reassemble(FINSET, l, r, i, q_tilde, (alpha1, alpha2))


# ---------------------------------------------------------------------------
# Colax correspondence and isomorphism search


_SEARCH_CAP = 1_000_000     # the most f0 a morphism search tries


def _forced_morphisms(src: CoCategoryData, dst: CoCategoryData,
                      f0s: Iterable[FinMap]) -> Iterator[tuple[FinMap, FinMap]]:
    """(f0, f1) for each f0 in ``f0s`` whose l- and r-squares agree:
    f1.l = l'.f0 and f1.r = r'.f0 force f1 through ``factor`` on the
    images of src's l and r, which cover its Q1 on every co-category.
    An f0 whose squares conflict has no f1 and is skipped.  Where src's
    legs miss Q1, the first f0 without a conflict raises
    :class:`UnsupportedCapability`."""
    l, r, dl, dr = src.l.table, src.r.table, dst.l.table, dst.r.table
    for f0 in f0s:
        p0 = f0.table
        table = factor(src.q1.size, l, r, [dl[x] for x in p0], [dr[x] for x in p0])
        if table is not None:
            yield f0, FinMap(src.q1, dst.q1, table)


def cocat_morphisms(src: CoCategoryData, dst: CoCategoryData) -> list[tuple[FinMap, FinMap]]:
    """All co-category morphisms src -> dst: each f0 with the f1 it forces."""
    from .core import check_cocat_morphism

    space = dst.q0.size ** src.q0.size
    if space > _SEARCH_CAP:
        raise SizeLimit(f"morphism search space {space} exceeds cap {_SEARCH_CAP}")
    return [(f0, f1) for f0, f1 in _forced_morphisms(src, dst, FINSET.morphisms(src.q0, dst.q0))
            if check_cocat_morphism(FINSET, src, dst, f0, f1).ok]


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


def verify_colax_correspondence(src: CoCategoryData, dst: CoCategoryData) -> bool:
    """Does (f0, f1) -> f0 biject co-category morphisms with colax maps?"""
    tables = [f0.table for f0, _ in cocat_morphisms(src, dst)]
    lax = {f0.table for f0 in colax_maps(src, dst)}
    return len(tables) == len(set(tables)) and set(tables) == lax


def iso_cocategories(a: CoCategoryData, b: CoCategoryData, fix_q0: bool = False
                     ) -> Optional[tuple[FinMap, FinMap]]:
    """A pair of bijections commuting with all structure, or None.

    With ``fix_q0`` only the identity is tried on Q0, i.e. the search
    asks for an isomorphism over the shared base object (how a
    structure is compared with its pullback along a characteristic
    map).

    Each bijection f0 forces f1 through the l- and r-squares
    (``_forced_morphisms``), so the answer is the first bijective pair
    over the permutations of Q0: the pair a search over all pairs of
    bijections finds first."""
    from .core import check_cocat_morphism

    if a.q0.size != b.q0.size or a.q1.size != b.q1.size:
        return None
    n0 = a.q0.size
    space = 1 if fix_q0 else math.factorial(n0)
    if space > _SEARCH_CAP:
        raise SizeLimit(f"isomorphism search space {space} exceeds cap {_SEARCH_CAP}")
    perms = [tuple(range(n0))] if fix_q0 else itertools.permutations(range(n0))
    for f0, f1 in _forced_morphisms(a, b, (FinMap(a.q0, b.q0, p0) for p0 in perms)):
        if is_mono(f1) and check_cocat_morphism(FINSET, a, b, f0, f1).ok:
            return f0, f1
    return None
