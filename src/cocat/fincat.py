"""Finite categories and functors as a host category.

A finite category is stored as explicit source/target/identity arrays
plus a full composition table (``table[f][g]`` is "f then g", None when
not composable).  Functors are object and morphism assignments.

Pushouts are only supported along spans out of discrete categories:
the glued category's morphisms are reduced words in the two sides'
non-identity morphisms (adjacent same-side factors composed away), and
word closure is capped, so gluing that creates free loops raises
:class:`ClosureExceeded` instead of diverging.

Joint epimorphy is proved when the images of the family generate the
codomain under composition (functors agreeing on generators agree
everywhere).  Otherwise it can only be disproved: the searcher
enumerates small composition tables and looks for a pair of distinct
functors agreeing after precomposition, which is a sound refutation.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import (
    CategoryCapabilities,
    ClosureExceeded,
    CoCategoryData,
    CoconeMismatch,
    NonComposable,
    PushoutWitness,
    TypeMismatch,
    UnsupportedCapability,
    coinverse_violation,
)
from . import finset as fs

# Largest test category (in morphisms) the joint-epi refutation searches.
JOINT_EPI_BOUND = 4
# Longest reduced word a pushout may create before closure is abandoned.
WORD_CAP = 16


# ---------------------------------------------------------------------------
# Categories and functors


@dataclass(frozen=True)
class FinCategory:
    """A finite category with a full composition lookup table."""

    n_objects: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    identities: tuple[int, ...]
    table: tuple[tuple[Optional[int], ...], ...]

    def __post_init__(self):
        m = len(self.src)
        if len(self.tgt) != m:
            raise NonComposable("src/tgt length mismatch")
        if len(self.identities) != self.n_objects:
            raise NonComposable("need one identity per object")
        if any(not (0 <= x < self.n_objects) for x in self.src + self.tgt):
            raise NonComposable("src/tgt out of range")
        if any(not (0 <= e < m) for e in self.identities):
            raise NonComposable("identity index out of range")
        if len(self.table) != m or any(len(row) != m for row in self.table):
            raise NonComposable("composition table must be n_morphisms square")

    @property
    def n_morphisms(self) -> int:
        return len(self.src)

    def is_identity(self, f: int) -> bool:
        return f in self.identities

    def non_identities(self) -> list[int]:
        ids = set(self.identities)
        return [f for f in range(self.n_morphisms) if f not in ids]


def check_category(c: FinCategory) -> None:
    """Raise :class:`NonComposable` on the first violated category law."""
    m = c.n_morphisms
    for x in range(c.n_objects):
        e = c.identities[x]
        if c.src[e] != x or c.tgt[e] != x:
            raise NonComposable(f"identity of object {x} is not an endomorphism of it")
    for f in range(m):
        for g in range(m):
            entry = c.table[f][g]
            if (c.tgt[f] == c.src[g]) != (entry is not None):
                raise NonComposable(f"table defined-ness wrong at ({f}, {g})")
            if entry is not None:
                if c.src[entry] != c.src[f] or c.tgt[entry] != c.tgt[g]:
                    raise NonComposable(f"composite of ({f}, {g}) has wrong endpoints")
    for f in range(m):
        if c.table[c.identities[c.src[f]]][f] != f:
            raise NonComposable(f"left identity law fails at {f}")
        if c.table[f][c.identities[c.tgt[f]]] != f:
            raise NonComposable(f"right identity law fails at {f}")
    for f in range(m):
        for g in range(m):
            if c.tgt[f] != c.src[g]:
                continue
            fg = c.table[f][g]
            for h in range(m):
                if c.tgt[g] != c.src[h]:
                    continue
                if c.table[fg][h] != c.table[f][c.table[g][h]]:
                    raise NonComposable(f"associativity fails at ({f}, {g}, {h})")


def terminal_category() -> FinCategory:
    return FinCategory(1, (0,), (0,), (0,), ((0,),))


def discrete_category(n: int) -> FinCategory:
    table = tuple(tuple(f if f == g else None for g in range(n)) for f in range(n))
    return FinCategory(n, tuple(range(n)), tuple(range(n)), tuple(range(n)), table)


def arrow_category() -> FinCategory:
    # morphisms: id0, id1, a: 0 -> 1
    table = (
        (0, None, 2),
        (None, 1, None),
        (None, 2, None),
    )
    return FinCategory(2, (0, 1, 0), (0, 1, 1), (0, 1), table)


@dataclass(frozen=True)
class FunctorData:
    """A functor as object and morphism assignments, validated on
    construction."""

    dom: FinCategory
    cod: FinCategory
    obj_map: tuple[int, ...]
    mor_map: tuple[int, ...]

    def __post_init__(self):
        if len(self.obj_map) != self.dom.n_objects or len(self.mor_map) != self.dom.n_morphisms:
            raise TypeMismatch("assignment lengths do not match the domain")
        cod = self.cod
        if min(self.obj_map, default=0) < 0 or max(self.obj_map, default=-1) >= cod.n_objects:
            raise TypeMismatch("object index out of range")
        if min(self.mor_map, default=0) < 0 or max(self.mor_map, default=-1) >= cod.n_morphisms:
            raise TypeMismatch("morphism index out of range")
        if not _is_functorial(self.dom, self.cod, self.obj_map, self.mor_map):
            raise TypeMismatch("assignments do not form a functor")


def _is_functorial(dom: FinCategory, cod: FinCategory,
                   obj_map: tuple[int, ...], mor_map: tuple[int, ...]) -> bool:
    for f in range(dom.n_morphisms):
        img = mor_map[f]
        if cod.src[img] != obj_map[dom.src[f]] or cod.tgt[img] != obj_map[dom.tgt[f]]:
            return False
    for x in range(dom.n_objects):
        if mor_map[dom.identities[x]] != cod.identities[obj_map[x]]:
            return False
    for f in range(dom.n_morphisms):
        for g in range(dom.n_morphisms):
            if dom.tgt[f] != dom.src[g]:
                continue
            if cod.table[mor_map[f]][mor_map[g]] != mor_map[dom.table[f][g]]:
                return False
    return True


def functor_compose(f: FunctorData, g: FunctorData) -> FunctorData:
    """f followed by g."""
    if f.cod != g.dom:
        raise TypeMismatch("compose: cod(f) != dom(g)")
    return FunctorData(f.dom, g.cod,
                       tuple(g.obj_map[x] for x in f.obj_map),
                       tuple(g.mor_map[m] for m in f.mor_map))


def functor_identity(c: FinCategory) -> FunctorData:
    return FunctorData(c, c, tuple(range(c.n_objects)), tuple(range(c.n_morphisms)))


def enumerate_functors(dom: FinCategory, cod: FinCategory) -> list[FunctorData]:
    """All functors dom -> cod by filtered brute force, in lexicographic
    order of their assignments."""
    return [functor
            for obj_map in itertools.product(range(cod.n_objects), repeat=dom.n_objects)
            for functor in _functors_over(dom, cod, obj_map)]


def _functors_over(dom: FinCategory, cod: FinCategory,
                   obj_map: tuple[int, ...]) -> Iterator[FunctorData]:
    """The functors dom -> cod with the given object map, in
    lexicographic order of their morphism assignments."""
    non_ids = dom.non_identities()
    candidates = [[m for m in range(cod.n_morphisms)
                   if cod.src[m] == obj_map[dom.src[f]] and cod.tgt[m] == obj_map[dom.tgt[f]]]
                  for f in non_ids]
    for choice in itertools.product(*candidates):
        mor_map = [0] * dom.n_morphisms
        for x in range(dom.n_objects):
            mor_map[dom.identities[x]] = cod.identities[obj_map[x]]
        for f, m in zip(non_ids, choice):
            mor_map[f] = m
        try:
            yield FunctorData(dom, cod, obj_map, tuple(mor_map))
        except TypeMismatch:
            continue


# ---------------------------------------------------------------------------
# Pushouts along discrete spans


def _reduce_word(word, cats) -> tuple:
    """Compose away adjacent same-side composable factors; identity
    composites vanish, possibly cascading."""
    out: list[tuple[int, int]] = []
    for gen in word:
        out.append(gen)
        while len(out) >= 2:
            s1, m1 = out[-2]
            s2, m2 = out[-1]
            if s1 == s2 and cats[s1].tgt[m1] == cats[s1].src[m2]:
                h = cats[s1].table[m1][m2]
                out.pop()
                out.pop()
                if not cats[s1].is_identity(h):
                    out.append((s1, h))
            else:
                break
    return tuple(out)


def _is_discrete(c: FinCategory) -> bool:
    return c.n_morphisms == c.n_objects


def pushout_cats(f: FunctorData, g: FunctorData) -> PushoutWitness:
    """Glue cod(f) and cod(g) along a discrete span.

    Objects are glued by the finite-set pushout of the object maps;
    morphisms are reduced alternating words in the two sides'
    non-identity morphisms.  Raises :class:`ClosureExceeded` when a
    word would exceed ``WORD_CAP`` (the closure is then infinite, e.g.
    a freshly created loop).
    """
    if f.dom != g.dom:
        raise TypeMismatch("pushout: span legs must share a domain")
    if not _is_discrete(f.dom):
        raise UnsupportedCapability("category pushouts are only supported over discrete spans")
    a, b = f.cod, g.cod
    cats = (a, b)
    span = fs.FinSetObj(f.dom.n_objects)
    objects = fs.pushout(fs.FinMap(span, fs.FinSetObj(a.n_objects), f.obj_map),
                         fs.FinMap(span, fs.FinSetObj(b.n_objects), g.obj_map))
    n_objects = objects.apex.size
    obj_tables = tuple(inj.table for inj in objects.injections)

    def word_src(w) -> int:
        side, m = w[0]
        return obj_tables[side][cats[side].src[m]]

    def word_tgt(w) -> int:
        side, m = w[-1]
        return obj_tables[side][cats[side].tgt[m]]

    gens = [((side, m),) for side in (0, 1) for m in cats[side].non_identities()]
    words: set[tuple] = set(gens)
    queue = deque(gens)
    while queue:
        w = queue.popleft()
        for h in gens:
            if word_tgt(w) != word_src(h):
                continue
            nw = _reduce_word(w + h, cats)
            if not nw:
                continue
            if len(nw) > WORD_CAP:
                raise ClosureExceeded(f"word closure exceeds cap {WORD_CAP}")
            if nw not in words:
                words.add(nw)
                queue.append(nw)

    word_list = sorted(words, key=lambda w: (len(w), w))
    # identities first, one per glued object
    src = list(range(n_objects)) + [word_src(w) for w in word_list]
    tgt = list(range(n_objects)) + [word_tgt(w) for w in word_list]
    identities = tuple(range(n_objects))
    word_index = {w: n_objects + k for k, w in enumerate(word_list)}
    all_words: list[Optional[tuple]] = [None] * n_objects + list(word_list)

    n_mor = len(src)
    table: list[list[Optional[int]]] = [[None] * n_mor for _ in range(n_mor)]
    for m1 in range(n_mor):
        for m2 in range(n_mor):
            if tgt[m1] != src[m2]:
                continue
            w1 = all_words[m1] or ()
            w2 = all_words[m2] or ()
            w = _reduce_word(w1 + w2, cats)
            table[m1][m2] = identities[src[m1]] if not w else word_index[w]
    apex = FinCategory(n_objects, tuple(src), tuple(tgt), identities,
                       tuple(tuple(row) for row in table))

    def injection(side: int, c: FinCategory) -> FunctorData:
        obj_map = obj_tables[side]
        mor_map = []
        for m in range(c.n_morphisms):
            if c.is_identity(m):
                mor_map.append(identities[obj_map[c.src[m]]])
            else:
                mor_map.append(word_index[((side, m),)])
        return FunctorData(c, apex, obj_map, tuple(mor_map))

    return PushoutWitness(
        apex=apex,
        injections=(injection(0, a), injection(1, b)),
        legs=(f, g),
        payload={"words": tuple(all_words), "objects": objects},
    )


def copair_cats(witness: PushoutWitness, u: FunctorData, v: FunctorData) -> FunctorData:
    i1, i2 = witness.injections
    if u.dom != i1.dom or v.dom != i2.dom:
        raise TypeMismatch("copair: cocone legs do not match the span")
    if u.cod != v.cod:
        raise TypeMismatch("copair: cocone legs must share a codomain")
    f, g = witness.legs
    if functor_compose(f, u) != functor_compose(g, v):
        raise CoconeMismatch("cocone condition u.f = v.g fails")
    apex: FinCategory = witness.apex
    x = u.cod
    words = witness.payload["words"]
    objects = witness.payload["objects"]
    target = fs.FinSetObj(x.n_objects)
    obj_map = fs.copair(objects,
                        fs.FinMap(objects.injections[0].dom, target, u.obj_map),
                        fs.FinMap(objects.injections[1].dom, target, v.obj_map)).table

    mor_map = []
    for m in range(apex.n_morphisms):
        w = words[m]
        if w is None:
            mor_map.append(x.identities[obj_map[apex.src[m]]])
            continue
        imgs = [u.mor_map[idx] if side == 0 else v.mor_map[idx] for side, idx in w]
        acc = imgs[0]
        for nxt in imgs[1:]:
            acc = x.table[acc][nxt]
        mor_map.append(acc)
    return FunctorData(apex, x, obj_map, tuple(mor_map))


# ---------------------------------------------------------------------------
# Capabilities instance


class Cat(CategoryCapabilities):
    name = "cat"

    def equal(self, f, g):
        return f == g

    def compose(self, f, g):
        return functor_compose(f, g)

    def identity(self, obj):
        return functor_identity(obj)

    def pushout(self, f, g):
        return pushout_cats(f, g)

    def copair(self, witness, u, v):
        return copair_cats(witness, u, v)

    def morphisms(self, x, y):
        return enumerate_functors(x, y)

    def solve_coinverse(self, data):
        """The first co-inverse in functor order, or None when none exists.

        Taking objects keeps pushouts, so on a co-category l and r cover
        ob Q1, and s.l = r, s.r = l force the object map of s as in
        ``FinSet.solve_coinverse``; only the functors over it are tried.
        Legs that miss ob Q1 raise :class:`UnsupportedCapability`."""
        q1 = data.q1
        if data.l.cod != q1 or data.r.cod != q1:
            raise TypeMismatch("co-inverse: l and r must land in Q1")
        l, r = data.l.obj_map, data.r.obj_map
        obj_map = fs._fill_copair_table(q1.n_objects, l, r, r, l)
        if obj_map is None:
            return None
        if None in obj_map:
            raise UnsupportedCapability("cat: l and r miss objects of Q1, so s is not forced")
        for s in _functors_over(q1, q1, tuple(obj_map)):
            if coinverse_violation(self, data, s) is None:
                return s
        return None

    def joint_epi_status(self, maps):
        """True when the images generate the codomain; otherwise
        disprove joint epimorphy by counterexample search, or report
        None (unknown): a decision procedure is out of reach here."""
        maps = list(maps)
        if _images_generate(maps):
            return True, None
        found = joint_epi_counterexample_for_maps(maps)
        if found is not None:
            c, pair = found
            return False, {"category": c, "functors": pair}
        return None, {"searched_morphisms_up_to": JOINT_EPI_BOUND}


CAT = Cat()


# ---------------------------------------------------------------------------
# The interval


def interval_cocategory() -> CoCategoryData:
    """The interval: Q0 the point, Q1 the arrow category, q sending the
    arrow to the composite across two glued intervals."""
    i0 = terminal_category()
    i1 = arrow_category()
    l = FunctorData(i0, i1, (0,), (0,))
    r = FunctorData(i0, i1, (1,), (1,))
    i = FunctorData(i1, i0, (0, 0), (0, 0, 0))
    double = CAT.pushout(r, l)
    n1, n2 = double.injections
    glued = double.apex
    arrow = 2  # the non-identity of i1
    composite = glued.table[n1.mor_map[arrow]][n2.mor_map[arrow]]
    q = FunctorData(i1, glued,
                    (n1.obj_map[0], n2.obj_map[1]),
                    (glued.identities[n1.obj_map[0]],
                     glued.identities[n2.obj_map[1]],
                     composite))
    return CoCategoryData(q0=i0, q1=i1, l=l, r=r, i=i, q=q, double=double)


# ---------------------------------------------------------------------------
# Small-category enumeration and joint-epi counterexample search


def _enumerate_categories(max_morphisms: int) -> Iterator[FinCategory]:
    """All finite categories with at most the given number of morphisms,
    by backtracking over composition tables with incremental
    associativity pruning.  Ordered by total morphism count."""
    for m in range(1, max_morphisms + 1):
        for n_obj in range(1, m + 1):
            k = m - n_obj
            for src_t in itertools.product(range(n_obj), repeat=k):
                for tgt_t in itertools.product(range(n_obj), repeat=k):
                    src = tuple(range(n_obj)) + src_t
                    tgt = tuple(range(n_obj)) + tgt_t
                    yield from _complete_tables(n_obj, src, tgt)


def _complete_tables(n_obj: int, src: tuple[int, ...], tgt: tuple[int, ...]
                     ) -> Iterator[FinCategory]:
    m = len(src)
    identities = tuple(range(n_obj))
    table: list[list[Optional[int]]] = [[None] * m for _ in range(m)]
    for f in range(m):
        table[identities[src[f]]][f] = f
        table[f][identities[tgt[f]]] = f
    free_pairs = [(f, g) for f in range(n_obj, m) for g in range(n_obj, m)
                  if tgt[f] == src[g]]
    candidates = {
        (f, g): [h for h in range(m) if src[h] == src[f] and tgt[h] == tgt[g]]
        for f, g in free_pairs
    }

    def assoc_ok(f: int, g: int) -> bool:
        """Associativity on the triples (a, b, c) one of whose four
        lookups ab, bc, (ab)c, a(bc) is the new entry (f, g); every other
        triple was already consistent before it was written."""
        triples = [(f, g, c) for c in range(m)] + [(a, f, g) for a in range(m)]
        for x in range(m):
            for y in range(m):
                if table[x][y] == f:
                    triples.append((x, y, g))
                if table[x][y] == g:
                    triples.append((f, x, y))
        for a, b, c in triples:
            ab, bc = table[a][b], table[b][c]
            if ab is None or bc is None:
                continue
            left, right = table[ab][c], table[a][bc]
            if left is not None and right is not None and left != right:
                return False
        return True

    def rec(idx: int) -> Iterator[FinCategory]:
        if idx == len(free_pairs):
            yield FinCategory(n_obj, src, tgt, identities,
                              tuple(tuple(row) for row in table))
            return
        f, g = free_pairs[idx]
        for h in candidates[(f, g)]:
            table[f][g] = h
            if assoc_ok(f, g):
                yield from rec(idx + 1)
            table[f][g] = None

    if not free_pairs:
        yield FinCategory(n_obj, src, tgt, identities,
                          tuple(tuple(row) for row in table))
    else:
        yield from rec(0)


def _common_codomain(maps) -> FinCategory:
    if not maps:
        raise TypeMismatch("need at least one map")
    cod = maps[0].cod
    if any(m.cod != cod for m in maps):
        raise TypeMismatch("joint-epi search needs a common codomain")
    return cod


def _images_generate(maps) -> bool:
    """Is every morphism of the common codomain a composite of morphisms
    in the images of the maps?"""
    cod = _common_codomain(maps)
    reached = {f for m in maps for f in m.mor_map}
    frontier = list(reached)
    while frontier:
        f = frontier.pop()
        for g in list(reached):
            for h in (cod.table[f][g], cod.table[g][f]):
                if h is not None and h not in reached:
                    reached.add(h)
                    frontier.append(h)
    return len(reached) == cod.n_morphisms


def joint_epi_counterexample_for_maps(
        maps) -> Optional[tuple[FinCategory, tuple[FunctorData, FunctorData]]]:
    """Search test categories up to ``JOINT_EPI_BOUND`` morphisms for F != G
    out of the common codomain agreeing after precomposition with every map."""
    cod = _common_codomain(maps)
    for c in _enumerate_categories(JOINT_EPI_BOUND):
        seen: dict[tuple, FunctorData] = {}
        for cand in enumerate_functors(cod, c):
            composites = [functor_compose(m, cand) for m in maps]
            sig = tuple((f.obj_map, f.mor_map) for f in composites)
            if sig in seen:
                return c, (seen[sig], cand)
            seen[sig] = cand
    return None
