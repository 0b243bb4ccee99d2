"""The three workloads.  Each prepares its inputs untimed, then runs
whole iterations; an iteration times every item (a structure or a
document) and checks every answer against :mod:`oracle`.

An item's verdict time is the interval that ends when the consumer
finishes with it.  For the two finite-set workloads that is the gap
between consecutive structures as the consumer sees them, taken with
one clock read per structure; for ``hosts-docs`` it is one document's
parse, check, classify and write.
"""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from cocat import abgp, chain, cli, core, fincat, finset, formats

import docs
import oracle


@dataclass
class Iteration:
    wall: float
    verdicts: list[float]           # seconds per item, in item order
    attempted: int
    failed: int = 0                 # items that raised an unexpected exception
    classified: int = 0
    decided: int = 0                # classified items with all four flags decided
    problems: list[str] = field(default_factory=list)   # wrong answers
    errors: Counter = field(default_factory=Counter)    # unexpected exception types


class TheoremQ3x5:
    """The paper's headline check through the CLI, in process."""

    name = "theorem-q3x5"
    Q0, Q1 = 3, 5
    ARGS = ["enumerate", "--q0-max", str(Q0), "--q1-max", str(Q1),
            "--verify-theorem", "--count-iso", "--format", "json"]

    def __init__(self, seed: int):
        self.seed = seed    # the inputs are fixed; the seed is only recorded

    def iterate(self, tracer=None) -> Iteration:
        gaps: list[float] = []
        orig = finset.enumerate_cocategories

        def stamped(*args, **kwargs):
            prev = perf_counter()
            for data in orig(*args, **kwargs):
                yield data
                now = perf_counter()
                gaps.append(now - prev)
                prev = now

        flags: list[tuple] = []
        classify = cli.classify_data

        def judged(host, data):
            cls = classify(host, data)
            flags.append((cls.is_cocategory, cls.is_copreorder,
                          cls.is_cogroupoid, cls.is_coequivalence))
            return cls

        out = io.StringIO()
        finset.enumerate_cocategories = stamped   # cli looks it up on the module
        cli.classify_data = judged
        code: object = None
        crash: Optional[BaseException] = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                cli.main.main(args=self.ARGS, prog_name="cocat", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # counted and reported; the run is then incorrect
            crash = exc
        finally:
            wall = perf_counter() - start
            finset.enumerate_cocategories = orig
            cli.classify_data = classify

        it = Iteration(wall=wall, verdicts=gaps, attempted=max(len(gaps), 1))
        if crash is not None:
            it.failed = 1
            it.errors[type(crash).__name__] += 1
            it.problems.append(f"enumerate crashed: {crash!r}")
            return it
        try:
            summary = json.loads(out.getvalue())["summary"]
        except (ValueError, KeyError):
            it.problems.append(f"unreadable report (exit {code})")
            return it
        structures = summary.get("structures")
        violations = summary.get("violations")
        it.classified = len(flags)
        for got in flags:
            wrong, decided = oracle.judge(oracle.COEQUIVALENCE, got)
            it.decided += decided
            if wrong:
                it.problems.append(f"flags {got}: wrong {', '.join(wrong)}")
        want = {
            "exit code": (code, 0),
            "structures": (structures, oracle.total_structures(self.Q0, self.Q1)),
            "violations": (violations, 0),
            "iso classes": (summary.get("iso-classes"), oracle.iso_classes(self.Q0, self.Q1)),
            "structures timed": (len(gaps), structures),
            "structures classified": (len(flags), structures),
        }
        it.problems.extend(f"{key}: got {got}, expected {exp}"
                           for key, (got, exp) in want.items() if got != exp)
        return it


class EnumerateQ3x6:
    """Enumeration alone, through the library: MAX_Q1 caps the CLI at 5."""

    name = "enumerate-q3x6"
    Q0, Q1 = 3, 6

    def __init__(self, seed: int):
        self.seed = seed    # the inputs are fixed; the seed is only recorded

    def iterate(self, tracer=None) -> Iteration:
        per_size: Counter = Counter()
        blocks: dict[tuple[int, int], int] = {}
        gaps: list[float] = []
        bad_shape = 0

        def progress(info: dict) -> None:
            blocks[(info["q0"], info["q1"])] = info["found"]

        crash: Optional[Exception] = None
        start = prev = perf_counter()
        try:
            for data in finset.enumerate_cocategories(self.Q0, self.Q1, progress=progress):
                per_size[(data.q0.size, data.q1.size)] += 1
                if not oracle.is_cokernel_pair_shape(data.q1.size, data.l.table, data.r.table):
                    bad_shape += 1
                now = perf_counter()
                gaps.append(now - prev)
                prev = now
        except Exception as exc:  # counted and reported; the run is then incorrect
            crash = exc
        wall = perf_counter() - start

        it = Iteration(wall=wall, verdicts=gaps, attempted=max(len(gaps), 1))
        if crash is not None:
            it.failed = 1
            it.errors[type(crash).__name__] += 1
            it.problems.append(f"enumeration crashed: {crash!r}")
            return it
        it.classified = it.decided = len(gaps)
        if bad_shape:
            it.problems.append(f"{bad_shape} structures are not cokernel-pair shaped")
        for n0 in range(1, self.Q0 + 1):
            for n1 in range(1, self.Q1 + 1):
                want = oracle.structure_count(n0, n1)
                got = (per_size[(n0, n1)], blocks.get((n0, n1)))
                if got != (want, want):
                    it.problems.append(f"size ({n0}, {n1}): yielded {got[0]}, "
                                       f"progress said {got[1]}, expected {want}")
        return it


HOSTS = {"finset": finset.FINSET, "abgp": abgp.ABGP, "chain": chain.CH, "cat": fincat.CAT}


class HostsDocs:
    """A seeded batch of documents in all four hosts, through the path of
    ``cocat classify`` plus a write-back."""

    name = "hosts-docs"

    def __init__(self, seed: int):
        self.seed = seed
        self.docs = docs.generate(seed)
        self.mix = docs.describe(self.docs)

    def iterate(self, tracer=None) -> Iteration:
        it = Iteration(wall=0.0, verdicts=[], attempted=len(self.docs))
        start = perf_counter()
        for idx, doc in enumerate(self.docs):
            if tracer is not None:
                tracer.request = idx
            t = perf_counter()
            outcome, detail = self._one(doc)
            it.verdicts.append(perf_counter() - t)
            if outcome == "failed":
                it.failed += 1
                it.errors[f"{doc.kind}: {detail}"] += 1
            elif outcome == "wrong":
                it.problems.append(f"document {idx} ({doc.kind}): {detail}")
            elif outcome == "classified":
                it.classified += 1
                it.decided += detail
        it.wall = perf_counter() - start
        return it

    @staticmethod
    def _one(doc: docs.Doc):
        try:
            _, data = formats.parse_document(doc.text, expected_category=doc.host)
        except formats.ParseError:
            if doc.expected is None:
                return "rejected", None
            return "wrong", "valid document rejected"
        except Exception as exc:  # an item failure, counted; the batch goes on
            return "failed", type(exc).__name__
        if doc.expected is None:
            return "wrong", "malformed document accepted"
        host = HOSTS[doc.host]
        try:
            axioms = core.check_cocategory(host, data)
            cls = core.classify(host, data)
            text = formats.write_document(doc.host, data)
        except Exception as exc:  # an item failure, counted; the batch goes on
            return "failed", type(exc).__name__
        flags = (cls.is_cocategory, cls.is_copreorder, cls.is_cogroupoid, cls.is_coequivalence)
        wrong, decided = oracle.judge(doc.expected, flags)
        if not axioms.ok:
            wrong.append("axioms")
        if text != doc.text:
            wrong.append("write-back differs from the document")
        if wrong:
            return "wrong", ", ".join(wrong)
        return "classified", decided


WORKLOADS = {w.name: w for w in (TheoremQ3x5, EnumerateQ3x6, HostsDocs)}
