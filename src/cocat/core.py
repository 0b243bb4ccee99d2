"""Host-independent co-category machinery.

A co-category in a host category consists of two objects ``Q0``, ``Q1``
and four maps

    l, r : Q0 -> Q1        (co-source / co-target)
    i    : Q1 -> Q0        (co-unit)
    q    : Q1 -> Q1 +_Q0 Q1  (co-composition, into the pushout of r, l)

subject to duals of the internal-category axioms.  A structure carries
the double pushout q lands in and no other witness: the triple pushout
appears only in co-associativity, and the axiom checker builds it unless
l and r are proved jointly epi.  This module owns the data containers,
the axiom checker, the classification cascade (co-preorder / co-groupoid
/ co-equivalence relation) and the generic constructions that only need
the :class:`CategoryCapabilities` interface, which each host engine
(finite sets, abelian groups, chain complexes, finite categories)
implements.  An internal category is a
co-category in the opposite host, :class:`Op`, whose pushouts and
copairings are the base's pullbacks and pairings, so the one checker
serves both directions of the duality.

Conventions used throughout the package:

* composition is diagrammatic: ``compose(f, g)`` is "f followed by g",
  i.e. the classical g after f;
* every morphism value carries ``.dom`` and ``.cod`` attributes;
* all values are immutable after construction and every operation is a
  pure function of its inputs, so everything here is safe to call from
  multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional


# ---------------------------------------------------------------------------
# Errors


class CocatError(Exception):
    """Base class for all errors raised by this package."""


class TypeMismatch(CocatError):
    """Domains/codomains of the supplied morphisms do not line up."""


class UnsupportedCapability(CocatError):
    """The host category cannot perform the requested operation."""


class IllFormedPushout(CocatError):
    """A supplied pushout witness fails a testable pushout property."""


class CoconeMismatch(CocatError):
    """The two legs of a candidate cocone disagree, so no copairing exists."""


class NotMono(CocatError):
    """An operation requiring a monomorphism received a non-mono."""


class NotFree(CocatError):
    """An operation requiring free abelian groups received torsion."""


class SizeLimit(CocatError):
    """A brute-force search space exceeds the configured cap."""


class ClosureExceeded(CocatError):
    """A word closure did not stabilise within the configured cap."""


class NonComposable(CocatError):
    """A finite category's composition table is invalid."""


class InvariantViolation(CocatError):
    """An internally checked invariant failed; indicates a bug."""


# ---------------------------------------------------------------------------
# Data containers


@dataclass(frozen=True)
class PushoutWitness:
    """A pushout apex with its injections and the span that produced it.

    ``payload`` is host-specific bookkeeping (e.g. which presentation
    columns survived simplification) consumed only by that host's
    ``copair``.
    """

    apex: Any
    injections: tuple
    legs: tuple
    payload: Any = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class CoCategoryData:
    """The six-fold co-category structure plus the pushout q lands in.

    ``double`` is the pushout of the span ``Q1 <-r- Q0 -l-> Q1``, with
    injections written nu1, nu2.  The triple pushout appears only in
    the co-associativity law, so :func:`check_cocategory` builds it.
    """

    q0: Any
    q1: Any
    l: Any
    r: Any
    i: Any
    q: Any
    double: PushoutWitness


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: Optional[str] = None


@dataclass(frozen=True)
class Report:
    """Named pass/fail results, e.g. the axioms checked by
    :func:`check_cocategory` or the squares of a co-category morphism."""

    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.ok)

    def __getitem__(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class Classification:
    """Flags produced by the :func:`classify` cascade.

    ``None`` means the host could not decide (e.g. joint epimorphy in
    finite categories is only ever disproved, never decided).
    """

    is_cocategory: bool
    is_copreorder: Optional[bool]
    is_cogroupoid: Optional[bool]
    is_coequivalence: Optional[bool]
    coinverse: Any = None
    witnesses: dict = field(default_factory=dict, compare=False)


# ---------------------------------------------------------------------------
# Host capability interface


class CategoryCapabilities:
    """Operations each host category supplies to the generic layer.

    Required: ``equal``, ``compose``, ``identity``, ``pushout`` and
    ``copair``.  Everything else (``joint_epi_status``, ``morphisms``,
    ``solve_coinverse``, ``inverse``, ``is_pushout``, and ``pullback``,
    ``pair`` and ``joint_mono_status``, which :class:`Op` reads as its
    pushouts, copairings and joint-epi test) is optional; the defaults
    raise :class:`UnsupportedCapability` (``is_pushout`` returns
    ``None``, "untestable"), and generic code degrades accordingly.
    """

    name = "abstract"

    # -- required -----------------------------------------------------

    def equal(self, f, g) -> bool:
        raise NotImplementedError

    def compose(self, f, g):
        """Diagrammatic composite: ``f`` followed by ``g``."""
        raise NotImplementedError

    def identity(self, obj):
        raise NotImplementedError

    def pushout(self, f, g) -> PushoutWitness:
        """Pushout of the span ``cod(f) <-f- dom -g-> cod(g)``."""
        raise NotImplementedError

    def copair(self, witness: PushoutWitness, u, v):
        """Factor the cocone (u, v) through the pushout apex.

        Raises :class:`CoconeMismatch` when the legs disagree on glued
        elements (equivalently, when ``u . f != v . g``).
        """
        raise NotImplementedError

    # -- optional structure -------------------------------------------

    def joint_epi_status(self, maps) -> tuple[Optional[bool], Any]:
        """(True/False/None, witness) for "the family is jointly epi"."""
        raise UnsupportedCapability(f"{self.name}: joint epimorphy test")

    def morphisms(self, x, y) -> Iterable:
        """Enumerate all morphisms x -> y (finite hosts only)."""
        raise UnsupportedCapability(f"{self.name}: morphism enumeration")

    def solve_coinverse(self, data: CoCategoryData):
        """The co-inverse, the one strategy :func:`find_coinverse` asks;
        None means provably none.  A returned s has passed
        :func:`coinverse_violation`, which :func:`find_coinverse`
        therefore does not repeat.
        """
        raise UnsupportedCapability(f"{self.name}: co-inverse solving")

    def inverse(self, f):
        """The inverse of f, or None when f is not an isomorphism."""
        raise UnsupportedCapability(f"{self.name}: inverting morphisms")

    def is_pushout(self, witness: PushoutWitness) -> Optional[bool]:
        """Whether the witness really is a pushout; None = untestable."""
        return None

    def pullback(self, f, g):
        """(apex, p1, p2): the pullback of ``dom(f) -f-> cod <-g- dom(g)``."""
        raise UnsupportedCapability(f"{self.name}: pullbacks")

    def pair(self, projections, u, v):
        """Factor the cone (u, v) through the pullback with these two
        projections; None when it does not factor."""
        raise UnsupportedCapability(f"{self.name}: pairing")

    def joint_mono_status(self, maps) -> tuple[Optional[bool], Any]:
        """(True/False/None, witness) for "the family is jointly mono"."""
        raise UnsupportedCapability(f"{self.name}: joint monomorphy test")


@dataclass(frozen=True)
class OpMap:
    """A base morphism read in the opposite category: dom and cod swap."""

    base: Any

    @property
    def dom(self):
        return self.base.cod

    @property
    def cod(self):
        return self.base.dom


class Op(CategoryCapabilities):
    """The opposite of a host.  A co-category here is an internal
    category in the base, so :func:`check_cocategory` checks both."""

    def __init__(self, base: CategoryCapabilities):
        self.base = base
        self.name = f"{base.name}^op"

    def equal(self, f, g):
        return self.base.equal(f.base, g.base)

    def compose(self, f, g):
        return OpMap(self.base.compose(g.base, f.base))

    def identity(self, obj):
        return OpMap(self.base.identity(obj))

    def pushout(self, f, g) -> PushoutWitness:
        apex, p1, p2 = self.base.pullback(f.base, g.base)
        return PushoutWitness(apex=apex, injections=(OpMap(p1), OpMap(p2)), legs=(f, g))

    def copair(self, witness: PushoutWitness, u, v):
        projections = tuple(p.base for p in witness.injections)
        w = self.base.pair(projections, u.base, v.base)
        if w is None:
            raise CoconeMismatch("the cone does not factor through the pullback")
        return OpMap(w)

    def joint_epi_status(self, maps):
        return self.base.joint_mono_status(tuple(f.base for f in maps))


# ---------------------------------------------------------------------------
# Generic constructions


def triple_pushout(cat: CategoryCapabilities, double: PushoutWitness) -> PushoutWitness:
    """The triple pushout over a double pushout of ``Q1 <-r- Q0 -l-> Q1``,
    read off its legs: glued as (copy1 + copy2) + copy3, with the three
    composite injections nu1, nu2, nu3."""
    r, l = double.legs
    n1, n2 = double.injections
    second = cat.pushout(cat.compose(r, n2), l)
    j1, j2 = second.injections
    return PushoutWitness(
        apex=second.apex,
        injections=(cat.compose(n1, j1), cat.compose(n2, j1), j2),
        legs=second.legs,
        payload=second.payload,
    )


def cokernel_pair(cat: CategoryCapabilities, m) -> CoCategoryData:
    """The co-category on ``cod(m)`` obtained by pushing ``m`` out along
    itself: Q1 = A +_S A, l and r the two injections, i the fold, and q
    the copairing [nu1, nu3] into the triple amalgamation."""
    w = cat.pushout(m, m)
    l, r = w.injections
    a = m.cod
    ia = cat.identity(a)
    i = cat.copair(w, ia, ia)
    double = cat.pushout(r, l)
    n1, n2 = double.injections
    q = cat.copair(w, cat.compose(l, n1), cat.compose(r, n2))
    return CoCategoryData(q0=a, q1=w.apex, l=l, r=r, i=i, q=q, double=double)


def reassemble(cat: CategoryCapabilities, l, r, i, q, glued) -> CoCategoryData:
    """The co-category (l, r, i, q) over freshly built pushouts, where q
    lands in another pushout of ``Q1 <-r- Q0 -l-> Q1`` with injections
    ``glued``: q is read through the inverse of the comparison [glued],
    and :class:`InvariantViolation` is raised when there is none."""
    double = cat.pushout(r, l)
    back = cat.inverse(cat.copair(double, *glued))
    if back is None:
        raise InvariantViolation("pushout comparison is not invertible")
    return CoCategoryData(q0=l.dom, q1=l.cod, l=l, r=r, i=i, q=cat.compose(q, back),
                          double=double)


# ---------------------------------------------------------------------------
# Axiom checking


def _typecheck(cat: CategoryCapabilities, data: CoCategoryData) -> None:
    expect = [
        ("l", data.l, data.q0, data.q1),
        ("r", data.r, data.q0, data.q1),
        ("i", data.i, data.q1, data.q0),
        ("q", data.q, data.q1, data.double.apex),
    ]
    for k, inj in enumerate(data.double.injections, start=1):
        expect.append((f"nu{k}", inj, data.q1, data.double.apex))
    for name, f, dom, cod in expect:
        if f.dom != dom:
            raise TypeMismatch(f"{name}: domain {f.dom} != expected {dom}")
        if f.cod != cod:
            raise TypeMismatch(f"{name}: codomain {f.cod} != expected {cod}")
    if len(data.double.injections) != 2:
        raise TypeMismatch("double witness must have exactly two injections")


def _validate_witnesses(cat: CategoryCapabilities, data: CoCategoryData) -> None:
    n1, n2 = data.double.injections
    if not cat.equal(cat.compose(data.r, n1), cat.compose(data.l, n2)):
        raise IllFormedPushout("double witness: nu1.r != nu2.l")
    verdict = cat.is_pushout(data.double)
    if verdict is False:
        raise IllFormedPushout("double witness is not a pushout of (r, l)")
    try:
        covered, _ = cat.joint_epi_status(data.double.injections)
    except UnsupportedCapability:
        return
    if covered is False:
        raise IllFormedPushout("double witness: injections do not cover the apex")


def check_cocategory(cat: CategoryCapabilities, data: CoCategoryData) -> Report:
    """Check the co-category axioms, one named entry per diagram.

    The compat and section laws come first.  When they hold and the host
    proves l and r jointly epi, the counits and co-associativity pass
    unbuilt: both sides of each are maps out of Q1 that those laws make
    agree after l and after r (the lemma ``finset._q_candidates`` uses).
    Otherwise they are checked through copairings, and then only is the
    triple pushout built, from the validated double; a host that cannot
    build it raises its own error.  A copairing whose cocone condition
    fails is reported as a failure of the axiom that needed it.
    """
    _typecheck(cat, data)
    _validate_witnesses(cat, data)

    l, r, i, q = data.l, data.r, data.i, data.q
    n1, n2 = data.double.injections
    id0 = cat.identity(data.q0)
    checks: list[Check] = [
        Check("left-compat", cat.equal(cat.compose(l, q), cat.compose(l, n1))),
        Check("right-compat", cat.equal(cat.compose(r, q), cat.compose(r, n2))),
        Check("left-section", cat.equal(cat.compose(l, i), id0)),
        Check("right-section", cat.equal(cat.compose(r, i), id0)),
    ]
    if all(c.ok for c in checks):
        try:
            jointly_epi = cat.joint_epi_status((l, r))[0] is True
        except UnsupportedCapability:
            jointly_epi = False
        if jointly_epi:
            checks += [Check(name, True) for name in ("left-counit", "right-counit", "coassoc")]
            return Report(tuple(checks))

    id1 = cat.identity(data.q1)
    li = cat.compose(i, l)
    ri = cat.compose(i, r)
    for name, u, v in (("left-counit", li, id1), ("right-counit", id1, ri)):
        try:
            fold = cat.copair(data.double, u, v)
            checks.append(Check(name, cat.equal(cat.compose(q, fold), id1)))
        except CoconeMismatch as exc:
            checks.append(Check(name, False, f"copairing undefined: {exc}"))

    t1, t2, t3 = triple_pushout(cat, data.double).injections
    try:
        j1 = cat.copair(data.double, t1, t2)
        kappa = cat.copair(data.double, t2, t3)
        lhs = cat.copair(data.double, cat.compose(q, j1), t3)
        rhs = cat.copair(data.double, t1, cat.compose(q, kappa))
        checks.append(Check("coassoc", cat.equal(cat.compose(q, lhs), cat.compose(q, rhs))))
    except CoconeMismatch as exc:
        checks.append(Check("coassoc", False, f"copairing undefined: {exc}"))

    return Report(tuple(checks))


# ---------------------------------------------------------------------------
# Classification


def coinverse_violation(cat: CategoryCapabilities, data: CoCategoryData, s) -> Optional[str]:
    """Name of the first co-inverse identity s violates, or None.

    The four identities: s.l = r, s.r = l, [1,s].q = l.i and
    [s,1].q = r.i.  The copairings exist exactly when the first two
    identities hold, so they are tested in this order.
    """
    if not cat.equal(cat.compose(data.l, s), data.r):
        return "swap-left"
    if not cat.equal(cat.compose(data.r, s), data.l):
        return "swap-right"
    id1 = cat.identity(data.q1)
    li = cat.compose(data.i, data.l)
    ri = cat.compose(data.i, data.r)
    left = cat.copair(data.double, id1, s)
    if not cat.equal(cat.compose(data.q, left), li):
        return "left-cancel"
    right = cat.copair(data.double, s, id1)
    if not cat.equal(cat.compose(data.q, right), ri):
        return "right-cancel"
    return None


def _check_involution(cat: CategoryCapabilities, data: CoCategoryData, s) -> None:
    ss = cat.compose(s, s)
    if not cat.equal(cat.compose(data.l, ss), data.l):
        raise InvariantViolation("co-inverse is not involutive on l")
    if not cat.equal(cat.compose(data.r, ss), data.r):
        raise InvariantViolation("co-inverse is not involutive on r")


def find_coinverse(cat: CategoryCapabilities, data: CoCategoryData):
    """A co-inverse s: Q1 -> Q1, or None when provably none exists.

    The host's ``solve_coinverse`` decides, and the s it returns has
    passed all four identities; the derived involution property
    (s.s.l = l, s.s.r = r) is confirmed here.  A host that cannot
    decide raises :class:`UnsupportedCapability`.
    """
    s = cat.solve_coinverse(data)
    if s is not None:
        _check_involution(cat, data, s)
    return s


def coinverse_candidates(cat: CategoryCapabilities, data: CoCategoryData) -> tuple[list, int]:
    """All co-inverses found by exhaustive enumeration, with the number
    of candidates examined.  Requires an enumerable host."""
    found = []
    searched = 0
    for candidate in cat.morphisms(data.q1, data.q1):
        searched += 1
        if coinverse_violation(cat, data, candidate) is None:
            found.append(candidate)
    return found, searched


def _and3(a: Optional[bool], b: Optional[bool]) -> Optional[bool]:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


def classify(cat: CategoryCapabilities, data: CoCategoryData) -> Classification:
    """Run the full cascade: axioms, joint epimorphy, co-inverse search.

    The co-inverse search runs even when joint epimorphy fails, since
    non-co-preorder co-groupoids exist.  Host limitations surface as
    None flags, never silently.
    """
    report = check_cocategory(cat, data)
    witnesses: dict[str, Any] = {}
    if not report.ok:
        witnesses["axioms"] = report.failures
        return Classification(False, None, None, None, witnesses=witnesses)

    try:
        copre, copre_witness = cat.joint_epi_status((data.l, data.r))
        if copre_witness is not None:
            witnesses["copreorder"] = copre_witness
    except UnsupportedCapability as exc:
        copre, witnesses["copreorder"] = None, str(exc)

    coinverse = None
    try:
        coinverse = find_coinverse(cat, data)
        cogrp: Optional[bool] = coinverse is not None
    except UnsupportedCapability as exc:
        cogrp, witnesses["cogroupoid"] = None, str(exc)

    return Classification(
        is_cocategory=True,
        is_copreorder=copre,
        is_cogroupoid=cogrp,
        is_coequivalence=_and3(copre, cogrp),
        coinverse=coinverse,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# Co-category morphisms


def check_cocat_morphism(cat: CategoryCapabilities, src: CoCategoryData,
                         dst: CoCategoryData, f0, f1) -> Report:
    """Check the four squares making (f0, f1) a morphism of co-categories.

    The q-square compares against the map induced between the double
    pushouts, which only exists once the l- and r-squares commute.
    """
    if f0.dom != src.q0 or f0.cod != dst.q0:
        raise TypeMismatch("f0 must map src.q0 to dst.q0")
    if f1.dom != src.q1 or f1.cod != dst.q1:
        raise TypeMismatch("f1 must map src.q1 to dst.q1")
    checks = [
        Check("left-square", cat.equal(cat.compose(src.l, f1), cat.compose(f0, dst.l))),
        Check("right-square", cat.equal(cat.compose(src.r, f1), cat.compose(f0, dst.r))),
        Check("counit-square", cat.equal(cat.compose(src.i, f0), cat.compose(f1, dst.i))),
    ]
    if checks[0].ok and checks[1].ok:
        m1, m2 = dst.double.injections
        try:
            induced = cat.copair(src.double, cat.compose(f1, m1), cat.compose(f1, m2))
            ok = cat.equal(cat.compose(src.q, induced), cat.compose(f1, dst.q))
            checks.append(Check("q-square", ok))
        except CoconeMismatch as exc:
            checks.append(Check("q-square", False, f"induced map undefined: {exc}"))
    else:
        checks.append(Check("q-square", False, "skipped: l/r squares already fail"))
    return Report(tuple(checks))
