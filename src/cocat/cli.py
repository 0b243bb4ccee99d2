"""Command-line surface.

Four subcommands:

* ``verify NAME`` -- build one of the named example structures and
  check everything known about it, including the expected *failures*
  (the group example must fail joint epimorphy, the interval must fail
  the co-inverse search); an expected failure that fails is a pass.
* ``enumerate`` -- exhaust all small co-categories in finite sets, with
  optional per-structure theorem verification and iso-class counting.
* ``classify`` -- parse a structure document (see :mod:`cocat.formats`)
  and run the classification cascade on it.
* ``pipeline`` -- push the interval through nerve/chains/truncation and
  compare with the chain-complex example.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
parse error.  ``--format json`` renders the same report the human
output is generated from.

``import cocat.cli`` loads click and :mod:`cocat.core` only; each
command imports the hosts it runs when it runs, so ``enumerate``, the
finite-set examples and ``classify --category finset`` never load the
integer layer.  ``classify`` loads the host of its document alone,
while ``pipeline`` and ``verify chain-example`` load every host.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Optional

import click

from . import core
from .core import classify as classify_data
from .core import check_cocategory, coinverse_candidates

MAX_Q0 = 3
MAX_Q1 = 6

# formats.CATEGORIES, spelled out so that importing cli loads no formats
CATEGORIES = ("finset", "abgp", "chain", "cat")


@dataclass
class Report:
    command: str
    checks: list[core.Check] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add(self, name: str, ok: bool, detail: Optional[str] = None) -> None:
        self.checks.append(core.Check(name, ok, detail))

    def expect_flag(self, name: str, actual: Optional[bool], expected: bool) -> None:
        shown = "unknown" if actual is None else str(actual).lower()
        self.add(f"{name}-expected-{str(expected).lower()}", actual is expected,
                 f"got {shown}")

    @property
    def exit_code(self) -> int:
        return 0 if all(c.ok for c in self.checks) else 1


def _status(check: core.Check) -> str:
    return "pass" if check.ok else "fail"


def _emit(report: Report, fmt: str) -> None:
    if fmt == "json":
        payload = {
            "command": report.command,
            "checks": [{"name": c.name, "status": _status(c), "detail": c.detail}
                       for c in report.checks],
            "summary": report.summary,
            "exit_code": report.exit_code,
        }
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for c in report.checks:
            line = f"{_status(c).upper():4}  {c.name}"
            if c.detail:
                line += f"  ({c.detail})"
            click.echo(line)
        for key in sorted(report.summary):
            click.echo(f"      {key}: {report.summary[key]}")
        passed = sum(1 for c in report.checks if c.ok)
        click.echo(f"{len(report.checks)} checks: {passed} passed, "
                   f"{len(report.checks) - passed} failed")
    raise SystemExit(report.exit_code)


_format_option = click.option("--format", "fmt", type=click.Choice(["human", "json"]),
                              default="human", show_default=True,
                              help="report rendering")


@click.group()
def main() -> None:
    """Verification and enumeration for internal co-categories."""


# ---------------------------------------------------------------------------
# verify


def _classification_flags(report: Report, cls: core.Classification,
                          expected: dict[str, bool]) -> None:
    report.expect_flag("cocategory", cls.is_cocategory, expected["cocategory"])
    report.expect_flag("copreorder", cls.is_copreorder, expected["copreorder"])
    report.expect_flag("cogroupoid", cls.is_cogroupoid, expected["cogroupoid"])
    report.expect_flag("coequivalence", cls.is_coequivalence, expected["coequivalence"])


def _verify_finset_cokernel(report: Report) -> None:
    from . import finset
    m = finset.subset_mono([0], finset.FinSetObj(2))
    data = finset.cokernel_pair_cocategory(m)
    cls = classify_data(finset.FINSET, data)
    _classification_flags(report, cls, {"cocategory": True, "copreorder": True,
                                        "cogroupoid": True, "coequivalence": True})
    proof = finset.verify_proposition(data)
    report.add("proof-walkthrough", proof.ok,
               "; ".join(c.detail for c in proof.checks if c.detail) or None)
    eq = finset.equalizer(data.l, data.r)
    report.add("equalizer-recovers-subobject",
               finset.Subobject.from_mono(eq) == finset.Subobject.from_mono(m))
    report.summary["q1-size"] = data.q1.size


def _verify_abgp(report: Report) -> None:
    from . import abgp
    data = abgp.group_example_cocategory()
    cls = classify_data(abgp.ABGP, data)
    _classification_flags(report, cls, {"cocategory": True, "copreorder": False,
                                        "cogroupoid": True, "coequivalence": False})
    witness = cls.witnesses.get("copreorder", {})
    report.add("joint-epi-cokernel-is-Z",
               witness.get("cokernel_invariant_factors") == (0,),
               f"invariant factors {witness.get('cokernel_invariant_factors')}")
    report.add("coinverse-matches", cls.coinverse is not None
               and cls.coinverse.matrix == abgp.EXAMPLE_S)
    icat = abgp.transpose_dualize(data)
    irep = check_cocategory(core.Op(abgp.ABGP), icat)
    report.add("transposed-internal-category", irep.ok,
               ", ".join(irep.failures) or None)
    back = abgp.transpose_internal(icat)
    report.add("transpose-involution",
               back.q.matrix == data.q.matrix and back.l.matrix == data.l.matrix
               and back.r.matrix == data.r.matrix and back.i.matrix == data.i.matrix)
    report.summary["double-apex-rank"] = data.double.apex.rank


def _verify_chain(report: Report) -> None:
    from . import abgp, chain
    data = chain.chain_example_cocategory()
    cls = classify_data(chain.CH, data)
    _classification_flags(report, cls, {"cocategory": True, "copreorder": False,
                                        "cogroupoid": True, "coequivalence": False})
    total = chain.total_space(data)
    expected = abgp.group_example_cocategory()
    report.add("total-space-entrywise",
               total.q.matrix == expected.q.matrix and total.l.matrix == expected.l.matrix
               and total.r.matrix == expected.r.matrix and total.i.matrix == expected.i.matrix)
    report.add("coinverse-degree-1", cls.coinverse is not None
               and cls.coinverse.mats[1].data == ((-1,),),
               "degree-1 part should negate the edge")
    report.summary["q1-ranks"] = list(data.q1.ranks)


def _verify_cat_interval(report: Report) -> None:
    from . import fincat
    data = fincat.interval_cocategory()
    cls = classify_data(fincat.CAT, data)
    _classification_flags(report, cls, {"cocategory": True, "copreorder": False,
                                        "cogroupoid": False, "coequivalence": False})
    solutions, searched = coinverse_candidates(fincat.CAT, data)
    report.add("coinverse-search-exhausted", searched == 3 and not solutions,
               f"{searched} endofunctors examined, {len(solutions)} co-inverses")
    witness = cls.witnesses.get("copreorder") if cls.is_copreorder is False else None
    report.add("joint-epi-refuted", witness is not None,
               None if witness is None else
               f"test category with {witness['category'].n_morphisms} morphisms")
    report.summary["glued-morphisms"] = data.double.apex.n_morphisms


def _verify_universal(report: Report) -> None:
    from . import finset
    data = finset.universal_cocategory()
    cls = classify_data(finset.FINSET, data)
    _classification_flags(report, cls, {"cocategory": True, "copreorder": True,
                                        "cogroupoid": True, "coequivalence": True})
    report.add("q1-has-three-elements", data.q1.size == 3, f"size {data.q1.size}")
    monos = [
        finset.subset_mono([], finset.FinSetObj(1)),
        finset.subset_mono([0], finset.FinSetObj(1)),
        finset.subset_mono([0], finset.FinSetObj(2)),
        finset.subset_mono([0, 1], finset.FinSetObj(2)),
        finset.subset_mono([], finset.FinSetObj(2)),
    ]
    ok = True
    for m in monos:
        pulled = finset.pullback_cocategory(finset.classifying_map(m))
        direct = finset.cokernel_pair_cocategory(m)
        if finset.iso_cocategories(pulled, direct, fix_q0=True) is None:
            ok = False
            break
    report.add("pullback-roundtrip-on-builtin-monos", ok,
               f"{len(monos)} subobjects checked")


_VERIFIERS: dict[str, Callable[[Report], None]] = {
    "finset-cokernel": _verify_finset_cokernel,
    "abgp-example": _verify_abgp,
    "chain-example": _verify_chain,
    "cat-interval": _verify_cat_interval,
    "universal": _verify_universal,
}


@main.command()
@click.argument("example", type=click.Choice(tuple(_VERIFIERS)))
@_format_option
def verify(example: str, fmt: str) -> None:
    """Build a named example and check all its expected properties."""
    report = Report(command=f"verify {example}")
    _VERIFIERS[example](report)
    _emit(report, fmt)


# ---------------------------------------------------------------------------
# enumerate


@main.command()
@click.option("--q0-max", required=True, type=int, help="bound on |Q0|")
@click.option("--q1-max", required=True, type=int, help="bound on |Q1|")
@click.option("--verify-theorem", is_flag=True,
              help="run the full proof walkthrough on every structure")
@click.option("--count-iso", is_flag=True, help="also count isomorphism classes")
@_format_option
def enumerate(q0_max: int, q1_max: int, verify_theorem: bool, count_iso: bool,
              fmt: str) -> None:
    """Exhaust all co-categories in finite sets within the bounds."""
    from . import finset
    if q0_max < 0 or q1_max < 0:
        raise click.UsageError("bounds must be non-negative")
    if q0_max > MAX_Q0 or q1_max > MAX_Q1:
        raise click.UsageError(
            f"CapExceeded: bounds limited to q0 <= {MAX_Q0}, q1 <= {MAX_Q1}")
    report = Report(command=f"enumerate --q0-max {q0_max} --q1-max {q1_max}")

    def progress(info: dict) -> None:
        if fmt == "human":
            click.echo(f"      sizes ({info['q0']}, {info['q1']}): {info['found']} structures "
                       f"from {info['lri_triples']} representative (l, r, i) candidates")

    structures = []
    violations = []
    for data in finset.enumerate_cocategories(q0_max, q1_max, progress=progress):
        structures.append(data)
        # classify checks the axioms the walkthrough assumes
        if verify_theorem and not (classify_data(finset.FINSET, data).is_coequivalence
                                   and finset.verify_proposition(data).ok):
            violations.append(data)

    report.summary["structures"] = len(structures)
    nontrivial = sum(1 for d in structures if d.q1.size > d.q0.size)
    report.summary["nontrivial-structures"] = nontrivial
    report.add("found-structures", len(structures) > 0)
    if verify_theorem:
        detail = None
        if violations:
            bad = violations[0]
            detail = (f"first violation at l={bad.l.table} r={bad.r.table} "
                      f"i={bad.i.table} q={bad.q.table}")
        report.add("every-structure-is-a-coequivalence", not violations, detail)
        report.summary["violations"] = len(violations)
    if count_iso:
        # iso_cocategories is None across sizes, so compare within a size
        classes: dict[tuple[int, int], list[core.CoCategoryData]] = {}
        for data in structures:
            reps = classes.setdefault((data.q0.size, data.q1.size), [])
            if not any(finset.iso_cocategories(data, rep) is not None for rep in reps):
                reps.append(data)
        report.summary["iso-classes"] = sum(map(len, classes.values()))
    _emit(report, fmt)


# ---------------------------------------------------------------------------
# classify


@main.command(name="classify")
@click.option("--category", "category", type=click.Choice(CATEGORIES), required=True,
              help="host category the document lives in")
@click.option("--file", "path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@_format_option
def classify_cmd(category: str, path: str, fmt: str) -> None:
    """Parse a structure document and classify it."""
    from . import formats
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        _, data = formats.parse_document(text, expected_category=category)
    except (UnicodeDecodeError, formats.ParseError) as exc:
        raise click.UsageError(f"ParseError: {exc}")
    report = Report(command=f"classify --category {category}")
    try:
        cls = classify_data(formats.engine(category), data)
    except core.InvariantViolation:
        raise
    except core.CocatError as exc:
        # on a parsed document only the triple pushout, which the axiom
        # check builds, can fail: refused as the parser refuses the double
        raise click.UsageError(f"ParseError: fields 'l'/'r': cannot recompute the pushout: {exc}")
    report.add("cocategory-axioms", cls.is_cocategory,
               None if cls.is_cocategory else f"failed: {', '.join(cls.witnesses['axioms'])}")
    for flag in ("is_cocategory", "is_copreorder", "is_cogroupoid", "is_coequivalence"):
        value = getattr(cls, flag)
        report.summary[flag.replace("_", "-")] = "unknown" if value is None else value
    for key, witness in sorted(cls.witnesses.items()):
        report.summary[f"witness-{key}"] = _show_witness(witness, category, fmt)
    _emit(report, fmt)


def _show_witness(witness, category: str, fmt: str):
    """A witness as a JSON value (json writes a tuple as a list and a
    dict as an object), or on one line for human output; test categories
    and functor pairs, which only the cat host builds, are shown by
    their size."""
    if isinstance(witness, dict) and category == "cat":
        from . import fincat
        witness = dict(witness)
        for key, value in witness.items():
            if isinstance(value, fincat.FinCategory):
                witness[key] = f"<category with {value.n_morphisms} morphisms>"
            elif isinstance(value, tuple) and value and isinstance(value[0], fincat.FunctorData):
                witness[key] = "<functor pair>"
    if fmt == "json":
        return witness
    if isinstance(witness, dict):
        return ", ".join(f"{key}={value}" for key, value in witness.items())
    return str(witness)


# ---------------------------------------------------------------------------
# pipeline


@main.command()
@_format_option
def pipeline(fmt: str) -> None:
    """Nerve pipeline: interval in finite categories to chain complexes."""
    from . import chain, fincat
    report = Report(command="pipeline")
    interval = fincat.interval_cocategory()
    out = chain.pipeline_cocategory(interval)
    example = chain.chain_example_cocategory()
    report.add("pipeline-output-is-cocategory", check_cocategory(chain.CH, out).ok)
    report.add("matches-chain-example", out == example,
               "equal on the nose; identity exhibits the isomorphism")

    glued = interval.double.apex
    complex_ = chain.free_normalized_chains(chain.nerve(glued))
    report.summary["glued-nerve-ranks"] = list(complex_.ranks)
    _, proj, _ = chain._truncation_data(complex_)
    # 1-simplices of the glued interval: the two generators then the composite
    pa, pb, pba = proj.col(0), proj.col(1), proj.col(2)
    report.add("degree1-composite-is-sum",
               tuple(x + y for x, y in zip(pa, pb)) == pba,
               "image of the composite equals the sum of the generator images")
    _emit(report, fmt)


if __name__ == "__main__":
    main()
