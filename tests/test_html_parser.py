"""Unit tests for HTML rendering + parsing (conversion and wrapping.html).

The load-bearing property: ``parse_html_tables(to_html(doc))`` must
preserve every table's *logical grid*, including documents whose cells
span rows and columns.  Checked both on crafted cases and with a
hypothesis generator of random span layouts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.acquisition.conversion import AcquisitionModule, to_html
from repro.acquisition.documents import Cell, Document, Row, SourceFormat, Table
from repro.acquisition.ocr import OcrChannel
from repro.wrapping.html import parse_html_tables


class TestRendering:
    def test_span_attributes_emitted(self):
        table = Table([Row([Cell("y", rowspan=2, colspan=3)])])
        html = to_html(Document("d", [table]))
        assert 'rowspan="2"' in html
        assert 'colspan="3"' in html

    def test_text_escaped(self):
        table = Table([Row([Cell("a < b & c")])])
        html = to_html(Document("d", [table]))
        assert "a &lt; b &amp; c" in html

    def test_caption_rendered(self):
        table = Table([Row([Cell("x")])], caption="Cash budget 2003")
        assert "<caption>Cash budget 2003</caption>" in to_html(Document("d", [table]))


class TestParsing:
    def test_simple_table(self):
        html = "<table><tr><td>a</td><td>b</td></tr><tr><td>c</td><td>d</td></tr></table>"
        tables = parse_html_tables(html)
        assert len(tables) == 1
        assert tables[0].logical_grid() == [["a", "b"], ["c", "d"]]

    def test_spans_parsed(self):
        html = (
            '<table><tr><td rowspan="2">y</td><td>a</td></tr>'
            "<tr><td>b</td></tr></table>"
        )
        grid = parse_html_tables(html)[0].logical_grid()
        assert grid == [["y", "a"], ["y", "b"]]

    def test_th_cells_accepted(self):
        html = "<table><tr><th>H</th></tr><tr><td>v</td></tr></table>"
        grid = parse_html_tables(html)[0].logical_grid()
        assert grid == [["H"], ["v"]]

    def test_unclosed_td_and_tr(self):
        html = "<table><tr><td>a<td>b<tr><td>c<td>d</table>"
        grid = parse_html_tables(html)[0].logical_grid()
        assert grid == [["a", "b"], ["c", "d"]]

    def test_markup_inside_cells_flattened(self):
        html = "<table><tr><td><b>total</b> <i>cash</i></td></tr></table>"
        assert parse_html_tables(html)[0].logical_grid() == [["total cash"]]

    def test_whitespace_normalised(self):
        html = "<table><tr><td>  a \n  b  </td></tr></table>"
        assert parse_html_tables(html)[0].logical_grid() == [["a b"]]

    def test_multiple_tables_in_order(self):
        html = (
            "<table><tr><td>1</td></tr></table>"
            "<p>noise</p>"
            "<table><tr><td>2</td></tr></table>"
        )
        tables = parse_html_tables(html)
        assert [t.logical_grid()[0][0] for t in tables] == ["1", "2"]

    def test_caption_parsed(self):
        html = "<table><caption>C</caption><tr><td>x</td></tr></table>"
        assert parse_html_tables(html)[0].caption == "C"

    def test_entities_decoded(self):
        html = "<table><tr><td>a &amp; b</td></tr></table>"
        assert parse_html_tables(html)[0].logical_grid() == [["a & b"]]

    def test_invalid_span_attribute_defaults_to_one(self):
        html = '<table><tr><td rowspan="x">a</td></tr></table>'
        assert parse_html_tables(html)[0].rows[0].cells[0].rowspan == 1

    def test_huge_colspan_clamped_to_html_limit(self):
        html = '<table><tr><td colspan="1000000000">a</td></tr></table>'
        table = parse_html_tables(html)[0]
        assert table.rows[0].cells[0].colspan == 1000
        grid = table.logical_grid()
        assert len(grid) == 1
        assert len(grid[0]) == 1000
        assert set(grid[0]) == {"a"}

    def test_huge_rowspan_clamped_to_html_limit(self):
        html = '<table><tr><td rowspan="99999999">a</td></tr></table>'
        assert parse_html_tables(html)[0].rows[0].cells[0].rowspan == 65534

    def test_spans_within_limits_kept(self):
        html = '<table><tr><td rowspan="65534" colspan="1000">a</td></tr></table>'
        cell = parse_html_tables(html)[0].rows[0].cells[0]
        assert (cell.rowspan, cell.colspan) == (65534, 1000)

    def test_no_tables(self):
        assert parse_html_tables("<p>hello</p>") == []


class TestRoundTrip:
    def test_figure1_layout_roundtrip(self):
        from repro.core.scenarios import cash_budget_document
        from repro.datasets import paper_rows

        document = cash_budget_document(paper_rows())
        parsed = parse_html_tables(to_html(document))
        assert len(parsed) == len(document.tables)
        for original, reparsed in zip(document.tables, parsed):
            assert original.logical_grid() == reparsed.logical_grid()

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_span_layout_roundtrip(self, data):
        n_rows = data.draw(st.integers(min_value=1, max_value=4))
        rows = []
        for r in range(n_rows):
            n_cells = data.draw(st.integers(min_value=1, max_value=4))
            cells = []
            for c in range(n_cells):
                text = data.draw(
                    st.text(
                        alphabet="abc123 ",
                        min_size=1,
                        max_size=6,
                    )
                ).strip() or "x"
                rowspan = data.draw(st.integers(min_value=1, max_value=2))
                colspan = data.draw(st.integers(min_value=1, max_value=2))
                cells.append(Cell(text, rowspan=rowspan, colspan=colspan))
            rows.append(Row(cells))
        table = Table(rows)
        try:
            original_grid = table.logical_grid()
        except Exception:
            return  # structurally impossible layout: nothing to round-trip
        reparsed = parse_html_tables(to_html(Document("d", [table])))
        assert len(reparsed) == 1
        # Whitespace inside cell text is normalised by the parser.
        normalised = [
            [" ".join(cell.split()) if cell is not None else None for cell in row]
            for row in original_grid
        ]
        assert reparsed[0].logical_grid() == normalised


class TestAcquisitionModule:
    def test_html_source_is_lossless(self):
        table = Table([Row([Cell("a"), Cell("1")])])
        document = Document("d", [table], source_format=SourceFormat.HTML)
        module = AcquisitionModule(OcrChannel(numeric_error_rate=1.0, string_error_rate=1.0))
        result = module.acquire(document)
        assert result.injected_errors == []
        assert "a" in result.html

    def test_paper_source_goes_through_ocr(self):
        table = Table([Row([Cell("total"), Cell("220")])])
        document = Document("d", [table], source_format=SourceFormat.PAPER)
        module = AcquisitionModule(
            OcrChannel(numeric_error_rate=1.0, string_error_rate=1.0, seed=3)
        )
        result = module.acquire(document)
        assert len(result.injected_errors) == 2
        assert result.acquired_document is not document
