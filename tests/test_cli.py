"""Command-line behaviour: exit codes, report agreement between the
two renderings, and the documented error paths."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import cocat
from cocat import abgp, chain, core, fincat, finset, formats
from cocat.cli import main

# host name -> (engine, built-in example), written out as documents
EXAMPLE_DOCUMENTS = {
    "finset": (finset.FINSET, lambda: finset.cokernel_pair_cocategory(
        finset.subset_mono([0], finset.FinSetObj(2)))),
    "abgp": (abgp.ABGP, abgp.group_example_cocategory),
    "chain": (chain.CH, chain.chain_example_cocategory),
    "cat": (fincat.CAT, fincat.interval_cocategory),
}

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CAT = (GOLDEN / "cat.txt").read_text(encoding="utf-8")
GOLDEN_COMPOSITE = (GOLDEN / "cat-composite.txt").read_text(encoding="utf-8")


@pytest.fixture
def runner():
    return CliRunner()


class TestVerify:
    @pytest.mark.parametrize("example", ["finset-cokernel", "abgp-example",
                                         "chain-example", "cat-interval", "universal"])
    def test_examples_pass(self, runner, example):
        result = runner.invoke(main, ["verify", example])
        assert result.exit_code == 0, result.output
        assert "FAIL" not in result.output

    def test_unknown_example_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "nonesuch"])
        assert result.exit_code == 2

    def test_json_and_human_agree(self, runner):
        human = runner.invoke(main, ["verify", "abgp-example"])
        machine = runner.invoke(main, ["verify", "abgp-example", "--format", "json"])
        assert machine.exit_code == 0
        payload = json.loads(machine.output)
        assert payload["exit_code"] == 0
        for check in payload["checks"]:
            assert check["status"] == "pass"
            assert check["name"] in human.output

    def test_expected_failure_encoded_as_pass(self, runner):
        result = runner.invoke(main, ["verify", "abgp-example", "--format", "json"])
        payload = json.loads(result.output)
        names = [c["name"] for c in payload["checks"]]
        assert "copreorder-expected-false" in names


class TestEnumerate:
    def test_tiny_bounds(self, runner):
        result = runner.invoke(main, ["enumerate", "--q0-max", "1", "--q1-max", "1",
                                      "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["summary"]["structures"] == 1

    def test_regression_counts(self, runner):
        result = runner.invoke(main, ["enumerate", "--q0-max", "1", "--q1-max", "2",
                                      "--count-iso", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["summary"]["structures"] == 3
        assert payload["summary"]["iso-classes"] == 2

    def test_theorem_harness(self, runner):
        result = runner.invoke(main, ["enumerate", "--q0-max", "2", "--q1-max", "4",
                                      "--verify-theorem", "--count-iso",
                                      "--format", "json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["summary"]["structures"] == 41
        assert payload["summary"]["violations"] == 0
        assert payload["summary"]["iso-classes"] == 5
        assert payload["summary"]["nontrivial-structures"] >= 1

    def test_theorem_harness_checks_axioms_once(self, runner, monkeypatch):
        calls = []
        check = core.check_cocategory

        def counted(*args, **kwargs):
            calls.append(1)
            return check(*args, **kwargs)

        monkeypatch.setattr(core, "check_cocategory", counted)
        monkeypatch.setattr(finset, "check_cocategory", counted, raising=False)
        result = runner.invoke(main, ["enumerate", "--q0-max", "2", "--q1-max", "3",
                                      "--verify-theorem", "--format", "json"])
        assert result.exit_code == 0, result.output
        assert len(calls) == json.loads(result.output)["summary"]["structures"]

    def test_progress_stream_in_human_mode(self, runner):
        result = runner.invoke(main, ["enumerate", "--q0-max", "1", "--q1-max", "2"])
        assert "sizes (1, 2)" in result.output

    def test_vacuous_bounds_report_their_size(self, runner):
        human = runner.invoke(main, ["enumerate", "--q0-max", "0", "--q1-max", "0"])
        assert human.exit_code == 0, human.output
        assert ("sizes (0, 0): 1 structures from 1 representative (l, r, i) candidates"
                in human.output)
        as_json = runner.invoke(main, ["enumerate", "--q0-max", "0", "--q1-max", "0",
                                       "--format", "json"])
        assert as_json.exit_code == 0, as_json.output
        assert json.loads(as_json.output)["summary"]["structures"] == 1

    def test_cap_exceeded(self, runner):
        result = runner.invoke(main, ["enumerate", "--q0-max", "9", "--q1-max", "1"])
        assert result.exit_code == 2
        assert "CapExceeded" in result.output

    def test_q1_cap_is_six(self, runner):
        accepted = runner.invoke(main, ["enumerate", "--q0-max", "1", "--q1-max", "6"])
        assert accepted.exit_code == 0, accepted.output
        refused = runner.invoke(main, ["enumerate", "--q0-max", "1", "--q1-max", "7"])
        assert refused.exit_code == 2
        assert "CapExceeded" in refused.output

    def test_negative_bound(self, runner):
        result = runner.invoke(main, ["enumerate", "--q0-max", "-1", "--q1-max", "1"])
        assert result.exit_code == 2


class TestClassify:
    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize("host", list(EXAMPLE_DOCUMENTS))
    def test_examples_match_core(self, runner, tmp_path, host, fmt):
        engine, build = EXAMPLE_DOCUMENTS[host]
        data = build()
        path = tmp_path / f"{host}.txt"
        path.write_text(formats.write_document(host, data))
        result = runner.invoke(main, ["classify", "--category", host,
                                      "--file", str(path), "--format", fmt])
        assert result.exit_code == 0, result.output
        cls = core.classify(engine, data)
        flags = {}
        for name in ("cocategory", "copreorder", "cogroupoid", "coequivalence"):
            value = getattr(cls, f"is_{name}")
            flags[f"is-{name}"] = "unknown" if value is None else value
        if fmt == "json":
            summary = json.loads(result.output)["summary"]
            assert {key: summary[key] for key in flags} == flags
        else:
            for key, value in flags.items():
                assert f"      {key}: {value}\n" in result.output

    def test_category_choices_are_the_document_hosts(self):
        option = next(p for p in main.commands["classify"].params if p.name == "category")
        assert tuple(option.type.choices) == formats.CATEGORIES

    def test_abgp_file_matches_verify(self, runner, tmp_path):
        text = formats.write_document("abgp", abgp.group_example_cocategory())
        path = tmp_path / "example.txt"
        path.write_text(text)
        result = runner.invoke(main, ["classify", "--category", "abgp",
                                      "--file", str(path), "--format", "json"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["summary"]["is-cocategory"] is True
        assert payload["summary"]["is-copreorder"] is False
        assert payload["summary"]["is-cogroupoid"] is True
        assert payload["summary"]["is-coequivalence"] is False
        assert "(0,)" in payload["summary"]["witness-copreorder"]

    @pytest.mark.parametrize("c", [4, 5, 6])
    def test_large_cat_cokernel_pair_is_decided(self, runner, tmp_path, c):
        # the cokernel pair of the empty category into discrete(c): Q1 has
        # 2c objects, so the object maps of its endofunctors number
        # (2c)^(2c), but s.l = r and s.r = l force the one co-inverse
        big = fincat.discrete_category(c)
        empty = fincat.FunctorData(fincat.discrete_category(0), big, (), ())
        path = tmp_path / f"cat-{c}.txt"
        path.write_text(formats.write_document("cat", core.cokernel_pair(fincat.CAT, empty)))
        start = time.perf_counter()
        result = runner.invoke(main, ["classify", "--category", "cat",
                                      "--file", str(path), "--format", "json"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["summary"]["is-coequivalence"] is True

    def test_corrupted_table_is_parse_error(self, runner, tmp_path):
        data = finset.cokernel_pair_cocategory(
            finset.subset_mono([0], finset.FinSetObj(2)))
        text = formats.write_document("finset", data)
        path = tmp_path / "bad.txt"
        path.write_text(text.replace("q: ", "q: 99 "))
        result = runner.invoke(main, ["classify", "--category", "finset",
                                      "--file", str(path)])
        assert result.exit_code == 2
        assert "ParseError" in result.output

    def test_non_utf8_document_is_parse_error(self, runner, tmp_path):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"category: finset\n\xff\n")
        result = runner.invoke(main, ["classify", "--category", "finset",
                                      "--file", str(path)])
        assert result.exit_code == 2
        assert "ParseError" in result.output

    def test_in_range_corruption_fails_axioms(self, runner, tmp_path):
        data = finset.cokernel_pair_cocategory(
            finset.subset_mono([0], finset.FinSetObj(2)))
        text = formats.write_document("finset", data)
        lines = [ln if not ln.startswith("q: ") else "q: 0 0 0"
                 for ln in text.splitlines()]
        path = tmp_path / "broken.txt"
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["classify", "--category", "finset",
                                      "--file", str(path)])
        assert result.exit_code == 1
        assert "failed" in result.output

    def test_unsupported_pushout_is_parse_error(self, runner, tmp_path):
        # l, r leave the (non-discrete) arrow category, along which this
        # host has no pushouts, so the document cannot be read
        arrow = "objects: 2\n{0}-morphisms:\n0 0\n1 1\n0 1\n{0}-identities: 0 1\n"
        text = ("category: cat\n"
                "q0-" + arrow.format("q0") + "q1-" + arrow.format("q1")
                + "".join(f"{f}-obj: 0 1\n{f}-mor: 0 1 2\n" for f in "lriq"))
        path = tmp_path / "nondiscrete.txt"
        path.write_text(text)
        result = runner.invoke(main, ["classify", "--category", "cat",
                                      "--file", str(path)])
        assert result.exit_code == 2
        assert "ParseError" in result.output

    def test_unbuildable_triple_pushout_is_parse_error(self, runner, tmp_path, monkeypatch):
        # a host that builds the double pushout but not the triple one,
        # whose first leg r.nu2 lands in the double apex, not in Q1
        path = tmp_path / "interval.txt"
        path.write_text(formats.write_document("cat", fincat.interval_cocategory()))
        real = fincat.pushout_cats

        def no_triple(f, g, *args, **kwargs):
            if f.cod != g.cod:
                raise core.ClosureExceeded("word closure exceeds cap 16")
            return real(f, g, *args, **kwargs)

        monkeypatch.setattr(fincat, "pushout_cats", no_triple)
        result = runner.invoke(main, ["classify", "--category", "cat", "--file", str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert ("ParseError: fields 'l'/'r': cannot recompute the pushout: "
                "word closure exceeds cap 16") in result.output

    @pytest.mark.parametrize("category, text, field", [
        # omitted chain blocks would be read as zero matrices
        ("chain", "category: chain\nq0-ranks: 3000 3000\nq1-ranks: 3000 3000\n", "q0-ranks"),
        ("chain", "category: chain\nq0-ranks: " + "0 " * 101 + "\n", "q0-ranks"),
        # zero-width maps need no row lines, so the ranks alone would
        # make the parser build the pushout of Z^800 + Z^800
        ("abgp", "category: abgp\nq0: 0\nq1: 800\nl:\n800 0\nr:\n800 0\n", "q1"),
        ("abgp", "category: abgp\nq0: 1\nq1: 1\nl:\n1000000 0\n", "l"),
        ("finset", "category: finset\nq0: 1\nq1: 1000000\n", "q1"),
        ("cat", "category: cat\nq0-objects: 1000\n", "q0-objects"),
        ("cat", "category: cat\nq0-objects: 1\nq0-morphisms:\n" + "0 0\n" * 101,
         "q0-morphisms"),
    ], ids=["chain-ranks", "chain-degrees", "abgp-rank", "abgp-dimension", "finset-size",
            "cat-objects", "cat-morphisms"])
    def test_oversized_document_is_parse_error(self, runner, tmp_path, category, text, field):
        path = tmp_path / "oversized.txt"
        path.write_text(text)
        start = time.perf_counter()
        result = runner.invoke(main, ["classify", "--category", category, "--file", str(path)])
        assert time.perf_counter() - start < 0.5
        assert result.exit_code == 2
        assert f"ParseError: field '{field}'" in result.output
        assert "exceeds the cap" in result.output

    @pytest.mark.parametrize("text, message", [
        # the interval with "a then id1 = id0", against the right identity law
        (GOLDEN_CAT.replace("q1-identities: 0 1\n", "q1-identities: 0 1\nq1-compose:\n2 1 0\n"),
         "field 'q1-compose': row '2 1 0': 2 then 1 is already 2"),
        # two rows for a then b; the later one alone would be right
        (GOLDEN_COMPOSITE.replace("q1-compose:\n3 4 5\n", "q1-compose:\n3 4 0\n3 4 5\n"),
         "field 'q1-compose': row '3 4 5': 3 then 4 is already 0"),
        # one object, morphisms id, a, b, and every product of a and b is id
        ("category: cat\nq0-objects: 1\nq0-morphisms:\n0 0\nq0-identities: 0\n"
         "q1-objects: 1\nq1-morphisms:\n0 0\n0 0\n0 0\nq1-identities: 0\n"
         "q1-compose:\n1 1 0\n1 2 0\n2 1 0\n2 2 0\n",
         "field 'q1-*': associativity fails at (1, 1, 2)"),
    ], ids=["identity-law", "second-row", "non-associative"])
    def test_inconsistent_composition_is_parse_error(self, runner, tmp_path, text, message):
        path = tmp_path / "category.txt"
        path.write_text(text)
        result = runner.invoke(main, ["classify", "--category", "cat", "--file", str(path)])
        assert result.exit_code == 2
        assert f"ParseError: {message}" in result.output

    def test_wrong_category_flag(self, runner, tmp_path):
        text = formats.write_document("abgp", abgp.group_example_cocategory())
        path = tmp_path / "example.txt"
        path.write_text(text)
        result = runner.invoke(main, ["classify", "--category", "finset",
                                      "--file", str(path)])
        assert result.exit_code == 2

    def test_missing_file(self, runner):
        result = runner.invoke(main, ["classify", "--category", "finset",
                                      "--file", "/nonexistent"])
        assert result.exit_code == 2


class TestPipeline:
    def test_passes(self, runner):
        result = runner.invoke(main, ["pipeline"])
        assert result.exit_code == 0, result.output
        assert "matches-chain-example" in result.output

    def test_json(self, runner):
        result = runner.invoke(main, ["pipeline", "--format", "json"])
        payload = json.loads(result.output)
        assert payload["exit_code"] == 0
        assert payload["summary"]["glued-nerve-ranks"] == [3, 3, 1, 0]


# runs in a fresh interpreter: import cocat.cli, optionally run one
# command with its output swallowed, then print the exit code and the
# cocat modules loaded
IMPORT_PROBE = """
import contextlib, io, json, sys
from cocat.cli import main
code = None
if sys.argv[1:]:
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            main.main(args=sys.argv[1:], prog_name="cocat", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "cocat")]))
"""

HOST_MODULES = {"cocat.abgp", "cocat.chain", "cocat.fincat", "cocat.formats",
                "cocat.intmatrix"}


def _fresh_process(*args):
    src = str(Path(cocat.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


class TestImports:
    """In-process tests cannot see a stray top-level import, because
    other tests have already loaded every module; these start afresh."""

    def test_cli_loads_core_only(self):
        _, modules = _fresh_process()
        assert modules == ["cocat", "cocat.cli", "cocat.core"]

    @pytest.mark.parametrize("args", [["verify", "finset-cokernel"],
                                      ["enumerate", "--q0-max", "2", "--q1-max", "4"]])
    def test_finset_commands_load_no_other_host(self, args):
        code, modules = _fresh_process(*args)
        assert code == 0
        assert "cocat.finset" in modules
        assert not HOST_MODULES & set(modules)

    @pytest.mark.parametrize("host, loaded", [("finset", {"cocat.finset"}),
                                              ("abgp", {"cocat.abgp", "cocat.intmatrix"})])
    def test_classify_loads_the_document_host_alone(self, tmp_path, host, loaded):
        _, build = EXAMPLE_DOCUMENTS[host]
        path = tmp_path / f"{host}.txt"
        path.write_text(formats.write_document(host, build()))
        code, modules = _fresh_process("classify", "--category", host, "--file", str(path))
        assert code == 0
        assert (HOST_MODULES | {"cocat.finset"}) & set(modules) == loaded | {"cocat.formats"}


class TestDeterminism:
    def test_repeated_runs_identical(self, runner):
        first = runner.invoke(main, ["enumerate", "--q0-max", "2", "--q1-max", "3",
                                     "--format", "json"])
        second = runner.invoke(main, ["enumerate", "--q0-max", "2", "--q1-max", "3",
                                      "--format", "json"])
        assert first.output == second.output
