"""Spans and counters around the public functions of each layer.

The traced run wraps functions from the outside; nothing under ``src/``
is edited.  A function is replaced in every ``cocat`` namespace that
holds it, so aliases are caught too: ``cli`` binds ``core.classify`` as
``classify_data``, ``abgp`` and ``chain`` import ``snf``/``solve`` by
name, and ``finset.iso_cocategories`` imports ``check_cocat_morphism``
from ``core`` at call time (which then finds the wrapped one).

A span records its name, start, end, the span open around it and the
request (document or iteration) it belongs to.  Every span is kept in
memory, with totals per name, and written out when the run ends.  Self
time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Optional

LAYERS = ("cli", "core", "finset", "abgp", "chain", "fincat", "intmatrix", "formats")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []    # (span, parent, name, request, start, end)
        self.opened = 0
        self.request = 0
        self.origin = perf_counter()
        self._stack: list[list] = []    # [span, name, start, child time]
        self._patches: list[tuple] = []

    # -- spans ----------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def enter(self, nid: int) -> None:
        self.opened += 1
        self._stack.append([self.opened, nid, perf_counter(), 0.0])

    def exit(self) -> None:
        end = perf_counter()
        sid, nid, start, child = self._stack.pop()
        dur = end - start
        self.calls[nid] += 1
        self.total[nid] += dur
        self.self_time[nid] += dur - child
        parent = 0
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        self.spans.append((sid, parent, nid, self.request, start, end))

    def top(self) -> Optional[str]:
        """Name of the innermost open span."""
        return self.names[self._stack[-1][1]] if self._stack else None

    def span(self, name: str) -> Callable:
        """Wrapper factory: one span per call."""
        nid = self.name_id(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                self.enter(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.exit()
            return wrapper
        return make

    def counter(self, name: str, inside: Optional[str] = None) -> Callable:
        """Wrapper factory: count calls, only those made directly inside
        a span named ``inside`` when given."""
        counts = self.counts

        def make(fn):
            def wrapper(*args, **kwargs):
                if inside is None or self.top() == inside:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    # -- patching -------------------------------------------------------

    def patch_function(self, module, attr: str, make: Callable) -> None:
        """Replace ``module.attr`` in every cocat namespace bound to it."""
        orig = getattr(module, attr)
        new = make(orig)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != "cocat" and not name.startswith("cocat."):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    self._patches.append((mod, key, orig))

    def patch_attr(self, owner, attr: str, make: Callable) -> None:
        """Replace a class or object attribute (methods, click callbacks)."""
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------

    def seconds(self, name: str) -> float:
        return self.total[self._ids[name]] if name in self._ids else 0.0

    def ncalls(self, name: str) -> int:
        return self.calls[self._ids[name]] if name in self._ids else 0

    def layer_self_seconds(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self.self_time[nid]
        return out

    def dump(self) -> dict:
        """The spans, times in microseconds from the tracer's start."""
        def us(t: float) -> int:
            return round((t - self.origin) * 1e6)
        return {
            "fields": ["span", "parent", "name", "request", "start_us", "end_us"],
            "names": self.names,
            "spans_opened": self.opened,
            "spans": [[s, p, n, r, us(a), us(b)] for s, p, n, r, a, b in self.spans],
        }


def instrument(tr: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    from cocat import abgp, chain, cli, core, fincat, finset, formats, intmatrix

    span, counter = tr.span, tr.counter

    # core
    tr.patch_function(core, "check_cocategory", span("core.check_cocategory"))
    tr.patch_function(core, "classify", span("core.classify"))
    tr.patch_function(core, "find_coinverse", _find_coinverse(tr))
    tr.patch_function(core, "check_cocat_morphism",
                      counter("finset.iso.candidates", inside="finset.iso"))
    joint_epi = tr.name_id("core.joint_epi")

    # finset
    tr.patch_function(finset, "pushout", span("finset.pushout"))
    tr.patch_function(finset, "copair", span("finset.copair"))
    tr.patch_function(finset, "verify_proposition", span("finset.verify_proposition"))
    tr.patch_function(finset, "iso_cocategories", span("finset.iso"))
    tr.patch_function(finset, "enumerate_cocategories", _enumerate(tr))

    # abgp and chain: host methods, looked up on the class at call time
    tr.patch_attr(abgp.AbGp, "pushout", span("abgp.pushout"))
    tr.patch_attr(abgp.AbGp, "solve_coinverse", span("abgp.solve_coinverse"))
    tr.patch_attr(abgp.AbGp, "joint_epi_status", span("abgp.joint_epi"))
    tr.patch_attr(chain.Ch, "pushout", span("chain.pushout"))
    tr.patch_attr(chain.Ch, "solve_coinverse", span("chain.solve_coinverse"))

    # fincat
    tr.patch_function(fincat, "pushout_cats", span("fincat.pushout"))
    tr.patch_function(fincat, "joint_epi_counterexample_for_maps", span("fincat.joint_epi_search"))
    tr.patch_attr(fincat.Cat, "morphisms", _morphisms(tr, "fincat.morphisms.candidates"))
    tr.patch_attr(finset.FinSet, "morphisms", _morphisms(tr, None))

    # the joint-epi step of classify, whichever host runs it
    for host in (finset.FinSet, abgp.AbGp, chain.Ch, fincat.Cat):
        tr.patch_attr(host, "joint_epi_status", _when_inside(tr, "core.classify", joint_epi))

    # intmatrix: _hnf is what hnf, rank, kernels and lattices all call
    tr.patch_function(intmatrix, "_hnf", span("intmatrix.hnf"))
    tr.patch_function(intmatrix, "snf", span("intmatrix.snf"))
    tr.patch_function(intmatrix, "solve", span("intmatrix.solve"))
    tr.patch_attr(intmatrix.IntMatrix, "__matmul__", counter("intmatrix.matmul.calls"))

    # formats
    tr.patch_function(formats, "parse_document", _parse(tr, formats.ParseError))
    tr.patch_function(formats, "write_document", span("formats.write"))

    # cli
    tr.patch_attr(cli.enumerate, "callback", span("cli.enumerate"))


def _find_coinverse(tr: Tracer) -> Callable:
    """Span, plus a hit whenever enumeration found a co-inverse."""
    nid = tr.name_id("core.find_coinverse")

    def make(fn):
        def wrapper(cat, data):
            before = tr.counts["core.coinverse.candidates"]
            tr.enter(nid)
            try:
                s = fn(cat, data)
            finally:
                tr.exit()
            if s is not None and tr.counts["core.coinverse.candidates"] > before:
                tr.counts["core.coinverse.hits"] += 1
            return s
        return wrapper
    return make


def _morphisms(tr: Tracer, own: Optional[str]) -> Callable:
    """Count the candidates a consumer pulls from ``host.morphisms``;
    those pulled inside ``find_coinverse`` are co-inverse candidates."""
    def make(fn):
        def wrapper(host, x, y):
            for m in fn(host, x, y):
                if own is not None:
                    tr.counts[own] += 1
                if tr.top() == "core.find_coinverse":
                    tr.counts["core.coinverse.candidates"] += 1
                yield m
        return wrapper
    return make


def _when_inside(tr: Tracer, parent: str, nid: int) -> Callable:
    """Span only for calls made directly inside a ``parent`` span."""
    def make(fn):
        def wrapper(*args, **kwargs):
            if tr.top() != parent:
                return fn(*args, **kwargs)
            tr.enter(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.exit()
        return wrapper
    return make


def _enumerate(tr: Tracer) -> Callable:
    """Time each resumption of the enumeration generator, so that the
    consumer's work between structures is not charged to it, and read
    the per-block counts from its progress callback."""
    nid = tr.name_id("finset.enumerate")

    def make(fn):
        def wrapper(max_q0, max_q1, progress=None):
            def hook(info):
                tr.counts["finset.enumerate.lri_triples"] += info["lri_triples"]
                tr.counts["finset.enumerate.found"] += info["found"]
                if progress is not None:
                    progress(info)
            it = fn(max_q0, max_q1, progress=hook)
            while True:
                tr.enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tr.exit()
                yield item
        return wrapper
    return make


def _parse(tr: Tracer, parse_error: type) -> Callable:
    """Span, plus counts of ParseErrors and of any other exception."""
    nid = tr.name_id("formats.parse")

    def make(fn):
        def wrapper(*args, **kwargs):
            tr.enter(nid)
            try:
                return fn(*args, **kwargs)
            except parse_error:
                tr.counts["formats.parse.errors"] += 1
                raise
            except Exception:
                tr.counts["formats.parse.crashes"] += 1
                raise
            finally:
                tr.exit()
        return wrapper
    return make
