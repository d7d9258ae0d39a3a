"""Unit tests for the wrapper (repro.wrapping.wrapper).

Covers Examples 12-13: matching the Figure 7(a) row pattern against
Figure 1 rows, msi repair of "bgnning cesh", multi-row-cell value
propagation, and hierarchy-constrained binding.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.acquisition.conversion import to_html
from repro.acquisition.documents import Cell, Document, Row, Table
from repro.core.scenarios import (
    balance_sheet_scenario,
    cash_budget_document,
    cash_budget_metadata,
)
from repro.datasets import generate_balance_sheet, paper_rows
from repro.wrapping import matching
from repro.wrapping.matching import TNorm, most_similar_item
from repro.wrapping.metadata import DomainDescription, MetadataError
from repro.wrapping.patterns import LexicalCell
from repro.wrapping.wrapper import Wrapper


@pytest.fixture
def metadata():
    return cash_budget_metadata()


@pytest.fixture
def wrapper(metadata):
    return Wrapper(metadata)


def figure1_html():
    return to_html(cash_budget_document(paper_rows()))


class TestCleanExtraction:
    def test_all_twenty_rows_extracted(self, wrapper):
        report = wrapper.wrap_html(figure1_html())
        assert len(report.instances) == 20
        assert report.unmatched == []

    def test_multi_row_year_propagates(self, wrapper):
        report = wrapper.wrap_html(figure1_html())
        years = [instance.value("Year") for instance in report.instances]
        assert years == ["2003"] * 10 + ["2004"] * 10

    def test_section_spans_propagate(self, wrapper):
        report = wrapper.wrap_html(figure1_html())
        sections_2003 = [i.value("Section") for i in report.instances[:10]]
        assert sections_2003 == (
            ["Receipts"] * 4 + ["Disbursements"] * 4 + ["Balance"] * 2
        )

    def test_clean_rows_score_one(self, wrapper):
        report = wrapper.wrap_html(figure1_html())
        assert all(i.score == pytest.approx(1.0) for i in report.instances)

    def test_values_bound(self, wrapper):
        report = wrapper.wrap_html(figure1_html())
        first = report.instances[0]
        assert first.values() == {
            "Year": "2003",
            "Section": "Receipts",
            "Subsection": "beginning cash",
            "Value": "20",
        }


class TestExample13:
    def row_with_typo(self):
        table = Table(
            [Row([Cell("2003"), Cell("Receipts"), Cell("bgnning cesh"), Cell("20")])]
        )
        return to_html(Document("d", [table]))

    def test_msi_repairs_misspelling(self, wrapper):
        report = wrapper.wrap_html(self.row_with_typo())
        instance = report.instances[0]
        assert instance.value("Subsection") == "beginning cash"

    def test_cell_score_about_ninety_percent(self, wrapper):
        report = wrapper.wrap_html(self.row_with_typo())
        instance = report.instances[0]
        subsection_cell = instance.cells[2]
        assert subsection_cell.was_repaired
        assert subsection_cell.score == pytest.approx(1 - 3 / 26)
        # The other three cells match exactly.
        for cell in (instance.cells[0], instance.cells[1], instance.cells[3]):
            assert cell.score == pytest.approx(1.0)

    def test_row_score_reflects_typo(self, wrapper):
        report = wrapper.wrap_html(self.row_with_typo())
        assert report.instances[0].score == pytest.approx(1 - 3 / 26)

    def test_repaired_string_counted(self, wrapper):
        report = wrapper.wrap_html(self.row_with_typo())
        assert report.n_repaired_strings == 1


class TestHierarchyEnforcement:
    def test_binding_respects_section(self, metadata):
        # "cash" alone is closest to "cash sales" globally; under the
        # Disbursements section the hierarchy restricts candidates, so
        # the bound item must be a Disbursements specialisation.
        wrapper = Wrapper(metadata)
        table = Table(
            [Row([Cell("2003"), Cell("Disbursements"), Cell("paymet of acounts"), Cell("5")])]
        )
        report = wrapper.wrap_html(to_html(Document("d", [table])))
        instance = report.instances[0]
        assert instance.value("Subsection") == "payment of accounts"

    def test_wrong_section_item_rebound(self, metadata):
        wrapper = Wrapper(metadata)
        # 'cash sales' is a Receipts item; under Balance the constrained
        # msi must choose a Balance item instead.
        table = Table(
            [Row([Cell("2003"), Cell("Balance"), Cell("cash sales"), Cell("5")])]
        )
        report = wrapper.wrap_html(to_html(Document("d", [table])))
        instance = report.instances[0]
        bound = instance.value("Subsection")
        assert bound in ("net cash inflow", "ending cash balance")
        assert instance.score < 1.0


class TestUnmatchedRows:
    def test_header_rows_unmatched(self, wrapper):
        table = Table(
            [
                Row([Cell("Year"), Cell("Sec"), Cell("Item"), Cell("Val")]),
                Row([Cell("2003"), Cell("Receipts"), Cell("cash sales"), Cell("100")]),
            ]
        )
        report = wrapper.wrap_html(to_html(Document("d", [table])))
        assert len(report.instances) == 1
        assert len(report.unmatched) == 1
        assert report.unmatched[0].row_index == 0

    def test_wrong_arity_rows_unmatched(self, wrapper):
        table = Table([Row([Cell("just two"), Cell("cells")])])
        report = wrapper.wrap_html(to_html(Document("d", [table])))
        assert report.instances == []
        assert len(report.unmatched) == 1


class TestStandardCellScoring:
    def test_integer_with_ocr_letter_gets_partial_score(self, wrapper):
        table = Table(
            [Row([Cell("2003"), Cell("Receipts"), Cell("cash sales"), Cell("1O0")])]
        )
        report = wrapper.wrap_html(to_html(Document("d", [table])))
        instance = report.instances[0]
        value_cell = instance.cells[3]
        assert value_cell.score == 0.5
        assert value_cell.bound_value == "10"  # digits extracted

    def test_tnorm_choice_changes_row_score(self, metadata):
        table = Table(
            [Row([Cell("2003"), Cell("Receipts"), Cell("bgnning cesh"), Cell("1O0")])]
        )
        html = to_html(Document("d", [table]))
        product = Wrapper(metadata, t_norm=TNorm.PRODUCT).wrap_html(html)
        minimum = Wrapper(metadata, t_norm=TNorm.MINIMUM).wrap_html(html)
        p_score = product.instances[0].score if product.instances else 0.0
        m_rows = minimum.instances or minimum.unmatched
        assert p_score <= 0.5


def misspell(data, text):
    """*text* with one character deleted, substituted or inserted."""
    position = data.draw(st.integers(min_value=0, max_value=len(text)))
    edit = data.draw(st.sampled_from(["delete", "substitute", "insert"]))
    char = data.draw(st.sampled_from("abxyZ "))
    if edit == "delete" and position < len(text):
        return text[:position] + text[position + 1 :]
    if edit == "substitute" and position < len(text):
        return text[:position] + char + text[position + 1 :]
    return text[:position] + char + text[position:]


class TestExactHitPath:
    """The lexical match answers exact hits from a lower-case index;
    :func:`most_similar_item` stays the reference it must agree with."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_most_similar_item(self, data):
        base = data.draw(
            st.lists(st.text(alphabet="abcAB ", max_size=6), min_size=1, max_size=6)
        )
        variants = [
            variant
            for item in base
            for variant in (item.swapcase(), item.upper())
            if data.draw(st.booleans())
        ]
        items = set(base) | set(variants)
        if data.draw(st.booleans()):
            items.add("")
        metadata = cash_budget_metadata()
        metadata.domains["Subsection"] = DomainDescription("Subsection", items)
        wrapper = Wrapper(metadata)
        cell = LexicalCell("Subsection")
        ordered = sorted(items)
        texts = []
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            item = data.draw(st.sampled_from(ordered))
            kind = data.draw(
                st.sampled_from(["exact", "swapcase", "title", "misspelled", "free"])
            )
            if kind == "exact":
                texts.append(item)
            elif kind == "swapcase":
                texts.append(item.swapcase())
            elif kind == "title":
                texts.append(item.title())
            elif kind == "misspelled":
                texts.append(misspell(data, item))
            else:
                texts.append(data.draw(st.text(alphabet="abcxAB ", max_size=6)))
        for text in texts:
            match = wrapper._match_cell(cell, text)
            assert (match.bound_value, match.score) == most_similar_item(
                text, ordered
            ), text

    def test_case_variants_bind_to_the_first_sorted_item(self, metadata):
        metadata.domains["Subsection"] = DomainDescription(
            "Subsection", ["cash", "Cash", "CASH", "cash sales"]
        )
        match = Wrapper(metadata)._match_cell(LexicalCell("Subsection"), "cAsH")
        assert (match.bound_value, match.score) == ("CASH", 1.0)
        assert most_similar_item("cAsH", ["cash", "Cash", "CASH"]) == ("CASH", 1.0)

    def test_replaced_domain_is_reindexed(self, metadata):
        wrapper = Wrapper(metadata)
        cell = LexicalCell("Subsection")
        assert wrapper._match_cell(cell, "cash sales").score == 1.0
        metadata.domains["Subsection"] = DomainDescription("Subsection", ["loans"])
        assert wrapper._match_cell(cell, "cash sales").bound_value == "loans"

    def test_unknown_domain_still_raises(self, wrapper):
        with pytest.raises(MetadataError, match="unknown lexical domain"):
            wrapper._match_cell(LexicalCell("Nowhere"), "cash")

    def test_noise_free_sheet_computes_no_edit_distance(self, monkeypatch):
        calls = []
        original = matching.levenshtein

        def counting_levenshtein(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(matching, "levenshtein", counting_levenshtein)
        scenario = balance_sheet_scenario(
            generate_balance_sheet(depth=3, branching=3, seed=1)
        )
        wrapper = Wrapper(scenario.metadata)
        report = wrapper.wrap_html(to_html(scenario.document))
        assert report.instances and not report.unmatched
        assert report.n_repaired_strings == 0
        assert calls == []
        # A misspelled label ("assets" -> "ssets") still takes the scan.
        texts = [cell.raw_text for cell in report.instances[0].cells]
        texts[2] = texts[2][1:]
        wrapper.wrap_tables([Table([Row([Cell(text) for text in texts])])])
        assert calls
