"""Round trips through the text schemas, diagnostics on bad input, and
a fuzz over mutated documents."""

import string
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocat import abgp, chain, fincat, finset
from cocat.core import CoCategoryData, check_cocategory, classify
from cocat.formats import MAX_SIZE, ParseError, parse_document, write_document


EXAMPLES = {
    "finset": lambda: finset.cokernel_pair_cocategory(
        finset.subset_mono([0], finset.FinSetObj(2))),
    "abgp": abgp.group_example_cocategory,
    "chain": chain.chain_example_cocategory,
    "cat": fincat.interval_cocategory,
}

HOSTS = {
    "finset": finset.FINSET,
    "abgp": abgp.ABGP,
    "chain": chain.CH,
    "cat": fincat.CAT,
}


class TestRoundTrips:
    @pytest.mark.parametrize("category", sorted(EXAMPLES))
    def test_write_then_parse(self, category):
        data = EXAMPLES[category]()
        text = write_document(category, data)
        parsed_category, parsed = parse_document(text)
        assert parsed_category == category
        assert parsed == data

    @pytest.mark.parametrize("category", sorted(EXAMPLES))
    def test_parsed_structure_is_valid(self, category):
        text = write_document(category, EXAMPLES[category]())
        _, parsed = parse_document(text)
        assert check_cocategory(HOSTS[category], parsed).ok

    def test_comments_and_blanks_ignored(self):
        text = write_document("finset", EXAMPLES["finset"]())
        noisy = "# a comment\n\n" + text.replace("\nq1:", "\n# noise\nq1:")
        _, parsed = parse_document(noisy)
        assert parsed == EXAMPLES["finset"]()

    def test_presented_group_round_trip(self):
        from cocat.core import cokernel_pair
        from cocat.intmatrix import IntMatrix

        z_mod_2 = abgp.FgAbGroup(1, IntMatrix.from_rows([[2]]))
        data = cokernel_pair(abgp.ABGP, abgp.ab_identity(z_mod_2))
        text = write_document("abgp", data)
        assert "q0-relations" in text
        _, parsed = parse_document(text)
        assert parsed == data


    def test_empty_q0_round_trip(self):
        # l = r: 0 -> Z^2 are 2x0 matrices, which have rows but no columns
        from cocat.intmatrix import IntMatrix

        q0, q1 = abgp.free_group(0), abgp.free_group(2)
        zero_l = abgp.AbMap(q0, q1, IntMatrix.zeros(2, 0))
        double = abgp.ABGP.pushout(zero_l, zero_l)
        stacked = IntMatrix.from_rows([[1, 0], [0, 1], [1, 0], [0, 1]])
        data = CoCategoryData(q0, q1, zero_l, zero_l,
                              abgp.AbMap(q1, q0, IntMatrix.zeros(0, 2)),
                              abgp.AbMap(q1, double.apex, stacked), double)
        _, parsed = parse_document(write_document("abgp", data))
        assert parsed == data
        verdict = classify(abgp.ABGP, parsed)
        assert verdict.is_cocategory and verdict.is_cogroupoid
        assert verdict.is_copreorder is False


class TestDiagnostics:
    def test_unknown_category(self):
        with pytest.raises(ParseError, match="unknown host"):
            parse_document("category: sheaves\n")

    def test_category_mismatch(self):
        text = write_document("finset", EXAMPLES["finset"]())
        with pytest.raises(ParseError, match="asked for"):
            parse_document(text, expected_category="abgp")

    def test_missing_field_named(self):
        with pytest.raises(ParseError, match="'l'"):
            parse_document("category: finset\nq0: 1\nq1: 1\n")

    def test_wrong_arity_named_with_line(self):
        text = "category: finset\nq0: 2\nq1: 2\nl: 0\nr: 0 1\ni: 0 1\nq: 0 1\n"
        with pytest.raises(ParseError, match="'l'"):
            parse_document(text)

    def test_out_of_range_entry(self):
        text = "category: finset\nq0: 1\nq1: 2\nl: 0\nr: 1\ni: 0 0\nq: 9 9\n"
        with pytest.raises(ParseError, match="'q'"):
            parse_document(text)

    def test_non_integer(self):
        text = "category: finset\nq0: x\n"
        with pytest.raises(ParseError, match="non-integer"):
            parse_document(text)

    def test_duplicate_field(self):
        text = "category: finset\nq0: 1\nq0: 2\n"
        with pytest.raises(ParseError, match="duplicate"):
            parse_document(text)

    def test_matrix_dimension_mismatch(self):
        text = ("category: abgp\nq0: 1\nq1: 3\n"
                "l:\n3 1\n1\n0\n"  # promises 3 rows, gives 2
                "r:\n3 1\n0\n0\n1\ni:\n1 3\n1 0 1\nq:\n5 3\n")
        with pytest.raises(ParseError, match="'l'"):
            parse_document(text)

    def test_ill_defined_group_map(self):
        # a matrix that does not respect the domain relations
        text = ("category: abgp\n"
                "q0: 1\nq0-relations:\n1 1\n2\n"
                "q1: 1\n"
                "l:\n1 1\n1\n"
                "r:\n1 1\n1\ni:\n1 1\n1\nq:\n1 1\n1\n")
        with pytest.raises(ParseError, match="'l'"):
            parse_document(text)

    @pytest.mark.parametrize("text, field", [
        # identity index past the morphism list
        ("category: cat\nq0-objects: 1\nq0-morphisms:\n0 0\nq0-identities: 2\n",
         "q0-identities"),
        ("category: finset\nq0: -1\nq1: 1\nl:\nr:\ni: 0\nq: 0\n", "q0"),
        # complexes over different degrees cannot carry a chain map
        ("category: chain\nq0-ranks: 1\nq1-ranks: 1 0\n", "l-\\*"),
        # functor morphism index past the morphism list
        ("category: cat\nq0-objects: 1\nq0-morphisms:\n0 0\nq0-identities: 0\n"
         "q1-objects: 1\nq1-morphisms:\n0 0\nq1-identities: 0\nl-obj: 0\nl-mor: 1\n",
         "l-\\*"),
        # composition row past the morphism list
        ("category: cat\nq0-objects: 1\nq0-morphisms:\n0 0\nq0-identities: 0\n"
         "q0-compose:\n0 0 1\n", "q0-compose"),
    ], ids=["cat-identity-index", "finset-negative-size", "chain-degree-mismatch",
            "cat-functor-index", "cat-compose-index"])
    def test_malformed_is_parse_error(self, text, field):
        with pytest.raises(ParseError, match=f"'{field}'"):
            parse_document(text)

    def test_sizes_up_to_the_cap(self):
        # the cokernel pair of the identity on a set at the cap has
        # |Q0| = |Q1| = MAX_SIZE; one more element is refused
        data = finset.cokernel_pair_cocategory(finset.identity(finset.FinSetObj(MAX_SIZE)))
        text = write_document("finset", data)
        assert parse_document(text)[1] == data
        bigger = text.replace(f"q1: {MAX_SIZE}", f"q1: {MAX_SIZE + 1}")
        with pytest.raises(ParseError, match=f"'q1': size {MAX_SIZE + 1} exceeds the cap"):
            parse_document(bigger)

    def test_invalid_category_laws(self):
        text = ("category: cat\n"
                "q0-objects: 1\nq0-morphisms:\n0 0\nq0-identities: 0\n"
                "q1-objects: 2\nq1-morphisms:\n0 0\n1 1\n0 1\n1 0\n"
                "q1-identities: 0 1\n"
                # composition of the two non-identities is missing
                "l-obj: 0\nl-mor: 0\nr-obj: 1\nr-mor: 1\n"
                "i-obj: 0 0\ni-mor: 0 0 0 0\n"
                "q-obj: 0 0\nq-mor: 0 0 0 0\n")
        with pytest.raises(ParseError, match="q1"):
            parse_document(text)

    def test_compose_row_restating_an_identity_law(self):
        # "a then id1 = a" is what the parser fills in anyway
        text = _written("cat").replace("q1-identities: 0 1\n",
                                       "q1-identities: 0 1\nq1-compose:\n2 1 2\n2 1 2\n")
        assert "q1-compose" in text
        assert parse_document(text)[1] == EXAMPLES["cat"]()

    def test_corrupted_q_still_parses_but_fails_axioms(self):
        # in-range corruption is not a parse error; the checker
        # reports the failed diagram instead
        data = EXAMPLES["finset"]()
        text = write_document("finset", data)
        corrupted = text.replace(f"q: {' '.join(map(str, data.q.table))}",
                                 "q: 0 0 0")
        _, parsed = parse_document(corrupted)
        report = check_cocategory(finset.FINSET, parsed)
        assert not report.ok
        assert report.failures


@lru_cache(maxsize=None)
def _written(category):
    return write_document(category, EXAMPLES[category]())


class TestFuzz:
    """Mutants of the written examples: a digit changed, a line dropped
    or duplicated, or any character replaced.  Only ParseError may
    escape the parser, and every mutant that parses classifies."""

    @pytest.mark.parametrize("category", sorted(EXAMPLES))
    @given(st.sampled_from(("digit", "drop", "duplicate", "replace")), st.data())
    @settings(max_examples=150, deadline=None)
    def test_only_parse_errors_escape(self, category, mutation, data):
        text = _written(category)
        lines = text.splitlines(keepends=True)
        if mutation == "digit":
            pos = data.draw(st.sampled_from([p for p, ch in enumerate(text) if ch.isdigit()]))
            text = text[:pos] + data.draw(st.sampled_from(string.digits)) + text[pos + 1:]
        elif mutation == "replace":
            pos = data.draw(st.integers(0, len(text) - 1))
            text = text[:pos] + data.draw(st.sampled_from(string.printable)) + text[pos + 1:]
        else:
            k = data.draw(st.integers(0, len(lines) - 1))
            kept = lines[:k] + lines[k + 1:] if mutation == "drop" else lines[:k + 1] + lines[k:]
            text = "".join(kept)
        try:
            _, parsed = parse_document(text)
        except ParseError:
            return
        classify(HOSTS[category], parsed)
