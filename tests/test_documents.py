"""Unit tests for the document model (repro.acquisition.documents)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.acquisition.documents import (
    Cell,
    Document,
    Row,
    SourceFormat,
    Table,
    TableStructureError,
)


class TestCell:
    def test_spans_validated(self):
        with pytest.raises(ValueError):
            Cell("x", rowspan=0)
        with pytest.raises(ValueError):
            Cell("x", colspan=0)

    def test_with_text(self):
        cell = Cell("a", rowspan=2)
        updated = cell.with_text("b")
        assert updated.text == "b"
        assert updated.rowspan == 2


class TestLogicalGrid:
    def test_plain_rectangle(self):
        table = Table([Row([Cell("a"), Cell("b")]), Row([Cell("c"), Cell("d")])])
        assert table.logical_grid() == [["a", "b"], ["c", "d"]]
        assert table.logical_width() == 2

    def test_rowspan_propagates_down(self):
        # The Figure 1 layout: a year cell spanning both rows.
        table = Table(
            [
                Row([Cell("2003", rowspan=2), Cell("x"), Cell("1")]),
                Row([Cell("y"), Cell("2")]),
            ]
        )
        grid = table.logical_grid()
        assert grid == [["2003", "x", "1"], ["2003", "y", "2"]]

    def test_colspan_propagates_right(self):
        table = Table(
            [
                Row([Cell("header", colspan=3)]),
                Row([Cell("a"), Cell("b"), Cell("c")]),
            ]
        )
        assert table.logical_grid()[0] == ["header", "header", "header"]

    def test_mixed_spans(self):
        table = Table(
            [
                Row([Cell("Y", rowspan=3), Cell("S1", rowspan=2), Cell("a")]),
                Row([Cell("b")]),
                Row([Cell("S2"), Cell("c")]),
            ]
        )
        assert table.logical_grid() == [
            ["Y", "S1", "a"],
            ["Y", "S1", "b"],
            ["Y", "S2", "c"],
        ]

    def test_ragged_rows_padded_with_none(self):
        table = Table([Row([Cell("a"), Cell("b")]), Row([Cell("c")])])
        assert table.logical_grid()[1] == ["c", None]

    def test_overlapping_spans_rejected(self):
        table = Table(
            [
                Row([Cell("a", rowspan=2), Cell("b")]),
                Row([Cell("c", colspan=2), Cell("d")]),
            ]
        )
        # "c" with colspan 2 would need columns 1-2 of row 1, but column 0
        # is taken by "a"; it shifts right, so "d" lands at column 3 --
        # this is legal HTML layout, so no error here.
        grid = table.logical_grid()
        assert grid[1][0] == "a"

    def test_map_cells(self):
        table = Table([Row([Cell("a"), Cell("b", rowspan=2)]), Row([Cell("c")])])
        upper = table.map_cells(lambda r, c, cell: cell.text.upper())
        assert upper.logical_grid() == [["A", "B"], ["C", "B"]]
        # spans preserved
        assert upper.rows[0].cells[1].rowspan == 2

    def test_empty_table(self):
        assert Table([]).logical_grid() == []
        assert Table([]).logical_width() == 0


def reference_logical_grid(table):
    """The quadratic layout :meth:`Table.logical_grid` replaced.

    Kept verbatim as the oracle: it pads every row of the grid on
    every call, so it is slow but plainly the HTML layout algorithm.
    """
    grid = []
    occupied = []

    def ensure_size(n_rows, n_columns):
        while len(grid) < n_rows:
            grid.append([])
            occupied.append([])
        for row_cells, row_flags in zip(grid, occupied):
            while len(row_cells) < n_columns:
                row_cells.append(None)
                row_flags.append(False)

    for row_index, row in enumerate(table.rows):
        ensure_size(row_index + 1, len(grid[0]) if grid else 0)
        column = 0
        for cell in row:
            # Find the first free column in this row.
            while True:
                ensure_size(row_index + 1, column + 1)
                if not occupied[row_index][column]:
                    break
                column += 1
            ensure_size(row_index + cell.rowspan, column + cell.colspan)
            for r in range(row_index, row_index + cell.rowspan):
                for c in range(column, column + cell.colspan):
                    if occupied[r][c]:
                        raise TableStructureError(
                            f"cell spans overlap at grid position ({r}, {c})"
                        )
                    occupied[r][c] = True
                    grid[r][c] = cell.text
            column += cell.colspan
    # Pad all rows to the final width.
    width = max((len(r) for r in grid), default=0)
    for row_cells, row_flags in zip(grid, occupied):
        while len(row_cells) < width:
            row_cells.append(None)
            row_flags.append(False)
    return grid


span_cells = st.builds(
    Cell,
    st.sampled_from(["a", "b", "c", ""]),
    rowspan=st.integers(min_value=1, max_value=3),
    colspan=st.integers(min_value=1, max_value=2),
)
span_tables = st.builds(
    Table,
    st.lists(st.builds(Row, st.lists(span_cells, max_size=4)), max_size=7),
)


def reference_grid_in_table_rows(table):
    """The reference grid cut to the table's rows.

    The HTML table model clips a rowspan at the last row of its group,
    and so does :meth:`Table.logical_grid`.  The reference does not, so
    it is cut here.  That is exact: a span that overhangs the table
    covers every row from its own to the last, so an overlap in an
    overhang row shows first in a real row, with the same error.
    """
    return reference_logical_grid(table)[: len(table.rows)]


def grid_or_error(table, layout):
    try:
        return layout(table)
    except TableStructureError as exc:
        return type(exc), str(exc)


class TestLogicalGridMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(span_tables)
    def test_same_grid_or_same_overlap_error(self, table):
        assert grid_or_error(table, Table.logical_grid) == grid_or_error(
            table, reference_grid_in_table_rows
        )

    def test_overlap_error_matches_reference(self):
        # "b" covers (0, 1) and (1, 1); the colspan-2 "c" then starts at
        # (1, 0) and collides with it.
        table = Table(
            [
                Row([Cell("a"), Cell("b", rowspan=2)]),
                Row([Cell("c", colspan=2)]),
            ]
        )
        with pytest.raises(TableStructureError, match=r"\(1, 1\)"):
            table.logical_grid()
        assert grid_or_error(table, Table.logical_grid) == grid_or_error(
            table, reference_grid_in_table_rows
        )

    def test_rowspan_past_the_last_row_is_clipped(self):
        table = Table(
            [Row([Cell("y", rowspan=3), Cell("a")]), Row([Cell("b")])]
        )
        assert table.logical_grid() == reference_grid_in_table_rows(table)
        assert table.logical_grid() == [["y", "a"], ["y", "b"]]

    def test_largest_rowspan_on_one_row_gives_one_grid_row(self):
        # The HTML limit: without the clip this one-row table spread
        # over 65,534 grid rows.
        table = Table(
            [Row([Cell("a", rowspan=65534), Cell("b"), Cell("c"), Cell("d")])]
        )
        assert table.logical_grid() == [["a", "b", "c", "d"]]


class TestDocument:
    def test_needs_ocr_only_for_paper(self):
        assert SourceFormat.PAPER.needs_ocr
        for fmt in (SourceFormat.PDF, SourceFormat.MSWORD, SourceFormat.RTF, SourceFormat.HTML):
            assert not fmt.needs_ocr

    def test_with_tables_replaces(self):
        document = Document("d", [Table([Row([Cell("a")])])])
        replaced = document.with_tables([])
        assert len(replaced.tables) == 0
        assert len(document.tables) == 1
