"""Structured-text schemas for co-categories, one document per structure.

Every document is line-oriented.  Blank lines and ``#`` comments are
ignored.  The first entry must be ``category: <finset|abgp|chain|cat>``;
Q0, Q1, l, r, i and q follow.  Each host is one entry of ``_HOSTS``,
whose object and map writers write the fields its readers read.
Pushout witnesses are never stored: the parser recomputes the double
pushout canonically, and the q tables refer to its apex (for finite
sets: quotient classes ordered by smallest member of the disjoint
union, first copy first; for finite categories: identities per glued
object first, then reduced words ordered by length then content).
Omitted blocks are read as zeros, so every declared size is checked
against ``MAX_SIZE`` before anything is built: a finite set's size, a
group's rank, a complex's total rank and degree count, a finite
category's object and morphism counts, and (against twice the cap) a
matrix block's dimensions.

finset::

    category: finset
    q0: 2
    q1: 3
    l: 0 1          # table of length q0, entries into q1
    r: 2 1
    i: 0 1 1        # table of length q1, entries into q0
    q: 0 1 4        # table of length q1, entries into the double apex

abgp -- matrix sections are a ``rows cols`` line followed by that many
row lines (omitted entirely when a dimension is zero); groups are
generator counts with optional relation matrices whose columns are
relators::

    category: abgp
    q0: 1
    q1: 3
    l:
    3 1
    1
    0
    0
    ...
    q:
    5 3
    ...

chain -- per-degree ranks, boundary matrices ``<name>-d<k>`` mapping
degree k to k-1, and structure matrices ``<name>-<degree>``::

    category: chain
    q0-ranks: 1 0
    q1-ranks: 2 1
    q1-d1:
    2 1
    -1
    1
    l-0:
    2 1
    ...

cat -- explicit categories (morphism lines are ``src tgt``, composition
lines are ``f g h`` meaning "f then g equals h", identity composites
may be omitted; a row must agree with the identity laws and with every
other row) and functors as index lists::

    category: cat
    q0-objects: 1
    q0-morphisms:
    0 0
    q0-identities: 0
    q1-objects: 2
    q1-morphisms:
    0 0
    1 1
    0 1
    q1-identities: 0 1
    l-obj: 0
    l-mor: 0
    ...
    q-obj: 0 2
    q-mor: 0 2 5
"""

from __future__ import annotations

import importlib
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .core import (CategoryCapabilities, CoCategoryData, CocatError, TypeMismatch,
                   NonComposable)

# each reader imports its host, and the matrix readers the integer
# layer, when a document of that category is read
if TYPE_CHECKING:
    from . import abgp as ab, chain as ch, fincat as fc, finset as fs
    from .intmatrix import IntMatrix


class ParseError(CocatError):
    """Malformed document; the message names the offending field/line."""


_KEY_RE = re.compile(r"^([a-z0-9-]+):\s*(.*?)\s*$")

# The largest size a document may declare; a short document must not
# make the parser build large matrices out of omitted blocks.
MAX_SIZE = 100


def _check_size(name: str, what: str, size: int, cap: int = MAX_SIZE) -> None:
    if size > cap:
        raise ParseError(f"field '{name}': {what} {size} exceeds the cap {cap}")


@dataclass
class _Section:
    name: str
    lineno: int
    inline: list[str]
    body: list[tuple[int, list[str]]] = field(default_factory=list)


def _tokenize(text: str) -> list[_Section]:
    sections: list[_Section] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _KEY_RE.match(line)
        if m:
            sections.append(_Section(m.group(1), lineno, m.group(2).split()))
        else:
            if not sections:
                raise ParseError(f"line {lineno}: data before any field")
            sections[-1].body.append((lineno, line.split()))
    return sections


class _Doc:
    def __init__(self, text: str):
        self.sections: dict[str, _Section] = {}
        for s in _tokenize(text):
            if s.name in self.sections:
                raise ParseError(f"line {s.lineno}: duplicate field '{s.name}'")
            self.sections[s.name] = s

    def has(self, name: str) -> bool:
        return name in self.sections

    def _get(self, name: str) -> _Section:
        if name not in self.sections:
            raise ParseError(f"missing field '{name}'")
        return self.sections[name]

    def ints(self, name: str, length: Optional[int] = None) -> list[int]:
        s = self._get(name)
        if s.body:
            raise ParseError(f"line {s.body[0][0]}: field '{name}' takes inline values only")
        try:
            values = [int(t) for t in s.inline]
        except ValueError:
            raise ParseError(f"line {s.lineno}: field '{name}': non-integer entry")
        if length is not None and len(values) != length:
            raise ParseError(f"line {s.lineno}: field '{name}': expected {length} entries, "
                             f"got {len(values)}")
        return values

    def int(self, name: str) -> int:
        values = self.ints(name)
        if len(values) != 1:
            raise ParseError(f"field '{name}': expected a single integer")
        return values[0]

    def word(self, name: str) -> str:
        s = self._get(name)
        if len(s.inline) != 1:
            raise ParseError(f"line {s.lineno}: field '{name}': expected a single word")
        return s.inline[0]

    def matrix(self, name: str) -> IntMatrix:
        from . import intmatrix
        s = self._get(name)
        if s.inline:
            raise ParseError(f"line {s.lineno}: field '{name}' is a matrix block; "
                             "dimensions go on the next line")
        if not s.body:
            raise ParseError(f"line {s.lineno}: field '{name}': missing dimensions line")
        dim_line, dims = s.body[0]
        if len(dims) != 2:
            raise ParseError(f"line {dim_line}: field '{name}': dimensions line needs "
                             "'rows cols'")
        try:
            rows, cols = int(dims[0]), int(dims[1])
        except ValueError:
            raise ParseError(f"line {dim_line}: field '{name}': non-integer dimensions")
        # q lands in the double apex, of up to twice the rank of Q1
        _check_size(name, "dimension", max(rows, cols), 2 * MAX_SIZE)
        expected = 0 if (rows == 0 or cols == 0) else rows
        body = s.body[1:]
        if len(body) != expected:
            raise ParseError(f"line {s.lineno}: field '{name}': expected {expected} "
                             f"row lines, got {len(body)}")
        data = []
        for lineno, tokens in body:
            if len(tokens) != cols:
                raise ParseError(f"line {lineno}: field '{name}': expected {cols} entries")
            try:
                data.append([int(t) for t in tokens])
            except ValueError:
                raise ParseError(f"line {lineno}: field '{name}': non-integer entry")
        try:
            return (intmatrix.IntMatrix.from_rows(data, cols=cols) if rows and cols
                    else intmatrix.IntMatrix.zeros(rows, cols))
        except ValueError as exc:
            raise ParseError(f"field '{name}': {exc}")

    def rows(self, name: str, arity: int) -> list[list[int]]:
        s = self._get(name)
        if s.inline:
            raise ParseError(f"line {s.lineno}: field '{name}' takes indented rows only")
        out = []
        for lineno, tokens in s.body:
            if len(tokens) != arity:
                raise ParseError(f"line {lineno}: field '{name}': expected {arity} entries")
            try:
                out.append([int(t) for t in tokens])
            except ValueError:
                raise ParseError(f"line {lineno}: field '{name}': non-integer entry")
        return out


# ---------------------------------------------------------------------------
# finset


def _finmap(doc: _Doc, name: str, dom: fs.FinSetObj, cod: fs.FinSetObj) -> fs.FinMap:
    from . import finset as fs
    table = doc.ints(name, length=dom.size)
    try:
        return fs.FinMap(dom, cod, tuple(table))
    except TypeMismatch as exc:
        raise ParseError(f"field '{name}': {exc}")


def _finset(doc: _Doc, name: str) -> fs.FinSetObj:
    from . import finset as fs
    size = doc.int(name)
    if size < 0:
        raise ParseError(f"field '{name}': size must be non-negative")
    _check_size(name, "size", size)
    return fs.FinSetObj(size)


def _finset_lines(name: str, x: fs.FinSetObj) -> list[str]:
    return [f"{name}: {x.size}"]


def _finmap_lines(name: str, m: fs.FinMap) -> list[str]:
    return [f"{name}: {' '.join(map(str, m.table))}".rstrip()]


# ---------------------------------------------------------------------------
# abgp


def _matrix_block(name: str, m: IntMatrix) -> list[str]:
    lines = [f"{name}:", f"{m.rows} {m.cols}"]
    if m.rows and m.cols:
        lines.extend(" ".join(map(str, row)) for row in m.data)
    return lines


def _abmap(doc: _Doc, name: str, dom: ab.FgAbGroup, cod: ab.FgAbGroup) -> ab.AbMap:
    from . import abgp as ab
    m = doc.matrix(name)
    try:
        return ab.AbMap(dom, cod, m)
    except TypeMismatch as exc:
        raise ParseError(f"field '{name}': {exc}")


def _group(doc: _Doc, name: str) -> ab.FgAbGroup:
    from . import abgp as ab
    rank = doc.int(name)
    if rank < 0:
        raise ParseError(f"field '{name}': rank must be non-negative")
    _check_size(name, "rank", rank)
    rel_name = f"{name}-relations"
    if doc.has(rel_name):
        rel = doc.matrix(rel_name)
        if rel.rows != rank:
            raise ParseError(f"field '{rel_name}': needs {rank} rows")
        return ab.FgAbGroup(rank, rel)
    return ab.FgAbGroup(rank)


def _group_lines(name: str, g: ab.FgAbGroup) -> list[str]:
    lines = [f"{name}: {g.rank}"]
    if not g.is_free:
        lines.extend(_matrix_block(f"{name}-relations", g.relations))
    return lines


def _abmap_lines(name: str, m: ab.AbMap) -> list[str]:
    return _matrix_block(name, m.matrix)


# ---------------------------------------------------------------------------
# chain


def _complex(doc: _Doc, name: str) -> ch.ChainComplex:
    from . import chain as ch, intmatrix
    ranks = doc.ints(f"{name}-ranks")
    if not ranks or any(r < 0 for r in ranks):
        raise ParseError(f"field '{name}-ranks': need non-negative ranks, degree 0 first")
    _check_size(f"{name}-ranks", "total rank", sum(ranks))
    _check_size(f"{name}-ranks", "degree count", len(ranks))
    diffs = []
    for d in range(1, len(ranks)):
        key = f"{name}-d{d}"
        if doc.has(key):
            diffs.append(doc.matrix(key))
        else:
            diffs.append(intmatrix.IntMatrix.zeros(ranks[d - 1], ranks[d]))
    try:
        return ch.ChainComplex(tuple(ranks), tuple(diffs))
    except ValueError as exc:
        raise ParseError(f"field '{name}-ranks': {exc}")


def _chainmap(doc: _Doc, name: str, dom: ch.ChainComplex, cod: ch.ChainComplex) -> ch.ChainMap:
    from . import chain as ch, intmatrix
    mats = []
    for d in range(dom.max_degree + 1):
        key = f"{name}-{d}"
        if doc.has(key):
            mats.append(doc.matrix(key))
        else:
            mats.append(intmatrix.IntMatrix.zeros(cod.rank(d), dom.rank(d)))
    try:
        return ch.ChainMap(dom, cod, tuple(mats))
    except TypeMismatch as exc:
        raise ParseError(f"field '{name}-*': {exc}")


def _complex_lines(name: str, x: ch.ChainComplex) -> list[str]:
    lines = [f"{name}-ranks: {' '.join(map(str, x.ranks))}"]
    for d in range(1, x.max_degree + 1):
        if not x.diff(d).is_zero():
            lines.extend(_matrix_block(f"{name}-d{d}", x.diff(d)))
    return lines


def _chainmap_lines(name: str, m: ch.ChainMap) -> list[str]:
    lines = []
    for d, mat in enumerate(m.mats):
        if mat.rows and mat.cols:
            lines.extend(_matrix_block(f"{name}-{d}", mat))
    return lines


# ---------------------------------------------------------------------------
# cat


def _category(doc: _Doc, name: str) -> fc.FinCategory:
    from . import fincat as fc
    n_obj = doc.int(f"{name}-objects")
    _check_size(f"{name}-objects", "object count", n_obj)
    mor_rows = doc.rows(f"{name}-morphisms", 2)
    _check_size(f"{name}-morphisms", "morphism count", len(mor_rows))
    src = tuple(row[0] for row in mor_rows)
    tgt = tuple(row[1] for row in mor_rows)
    identities = tuple(doc.ints(f"{name}-identities", length=n_obj))
    m = len(src)
    if any(not 0 <= e < m for e in identities):
        raise ParseError(f"field '{name}-identities': morphism index out of range")
    table: list[list[Optional[int]]] = [[None] * m for _ in range(m)]
    for f in range(m):
        if 0 <= src[f] < n_obj and 0 <= tgt[f] < n_obj:
            table[identities[src[f]]][f] = f
            table[f][identities[tgt[f]]] = f
    if doc.has(f"{name}-compose"):
        for f, g, h in doc.rows(f"{name}-compose", 3):
            if not (0 <= f < m and 0 <= g < m and 0 <= h < m):
                raise ParseError(f"field '{name}-compose': morphism index out of range")
            if table[f][g] not in (None, h):
                raise ParseError(f"field '{name}-compose': row '{f} {g} {h}': "
                                 f"{f} then {g} is already {table[f][g]}")
            table[f][g] = h
    try:
        cat = fc.FinCategory(n_obj, src, tgt, identities,
                             tuple(tuple(row) for row in table))
        fc.check_category(cat)
    except NonComposable as exc:
        raise ParseError(f"field '{name}-*': {exc}")
    return cat


def _functor(doc: _Doc, name: str, dom: fc.FinCategory, cod: fc.FinCategory) -> fc.FunctorData:
    from . import fincat as fc
    obj_map = doc.ints(f"{name}-obj", length=dom.n_objects)
    mor_map = doc.ints(f"{name}-mor", length=dom.n_morphisms)
    try:
        return fc.FunctorData(dom, cod, tuple(obj_map), tuple(mor_map))
    except TypeMismatch as exc:
        raise ParseError(f"field '{name}-*': {exc}")


def _category_block(name: str, c: fc.FinCategory) -> list[str]:
    lines = [f"{name}-objects: {c.n_objects}", f"{name}-morphisms:"]
    lines.extend(f"{c.src[f]} {c.tgt[f]}" for f in range(c.n_morphisms))
    lines.append(f"{name}-identities: {' '.join(map(str, c.identities))}")
    comp = [(f, g, c.table[f][g]) for f in range(c.n_morphisms)
            for g in range(c.n_morphisms)
            if c.table[f][g] is not None
            and not c.is_identity(f) and not c.is_identity(g)]
    if comp:
        lines.append(f"{name}-compose:")
        lines.extend(f"{f} {g} {h}" for f, g, h in comp)
    return lines


def _functor_lines(name: str, f: fc.FunctorData) -> list[str]:
    return [f"{name}-obj: {' '.join(map(str, f.obj_map))}",
            f"{name}-mor: {' '.join(map(str, f.mor_map))}"]


# ---------------------------------------------------------------------------
# Dispatch


# host module and its engine, object reader, map reader, object writer,
# map writer; each writer writes the fields its reader reads
_HOSTS = {
    "finset": ("finset", "FINSET", _finset, _finmap, _finset_lines, _finmap_lines),
    "abgp": ("abgp", "ABGP", _group, _abmap, _group_lines, _abmap_lines),
    "chain": ("chain", "CH", _complex, _chainmap, _complex_lines, _chainmap_lines),
    "cat": ("fincat", "CAT", _category, _functor, _category_block, _functor_lines),
}

CATEGORIES = tuple(_HOSTS)


def engine(category: str) -> CategoryCapabilities:
    """The host engine that documents of ``category`` are read into,
    importing its module on first use."""
    module, name, *_ = _HOSTS[category]
    return getattr(importlib.import_module(f".{module}", __package__), name)


def _parse(doc: _Doc, category: str) -> CoCategoryData:
    host = engine(category)
    _, _, read_object, read_map, _, _ = _HOSTS[category]
    q0 = read_object(doc, "q0")
    q1 = read_object(doc, "q1")
    l = read_map(doc, "l", q0, q1)
    r = read_map(doc, "r", q0, q1)
    i = read_map(doc, "i", q1, q0)
    try:
        double = host.pushout(r, l)
    except CocatError as exc:
        raise ParseError(f"fields 'l'/'r': cannot recompute the pushout: {exc}")
    q = read_map(doc, "q", q1, double.apex)
    return CoCategoryData(q0, q1, l, r, i, q, double)


def parse_document(text: str, expected_category: Optional[str] = None
                   ) -> tuple[str, CoCategoryData]:
    doc = _Doc(text)
    category = doc.word("category")
    if category not in _HOSTS:
        raise ParseError(f"field 'category': unknown host '{category}', "
                         f"expected one of {', '.join(CATEGORIES)}")
    if expected_category is not None and category != expected_category:
        raise ParseError(f"field 'category': document says '{category}', "
                         f"command asked for '{expected_category}'")
    return category, _parse(doc, category)


def write_document(category: str, data: CoCategoryData) -> str:
    if category not in _HOSTS:
        raise ParseError(f"unknown host category '{category}'")
    _, _, _, _, object_lines, map_lines = _HOSTS[category]
    lines = [f"category: {category}", *object_lines("q0", data.q0),
             *object_lines("q1", data.q1)]
    for name in ("l", "r", "i", "q"):
        lines.extend(map_lines(name, getattr(data, name)))
    return "\n".join(lines) + "\n"
