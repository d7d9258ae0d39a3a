"""The input-document model.

A document contains tables; a table is a list of rows of cells; a cell
carries text and may span multiple rows and/or columns -- the paper's
Figure 1 uses a year cell spanning ten rows and section cells spanning
several.  Tables therefore have "variable structure": the number of
*physical* cells per row varies even when the *logical* grid is
rectangular.

:meth:`Table.logical_grid` expands spans into the rectangular logical
grid (each grid position holds the text of the covering cell), which is
what both the HTML renderer and tests use to reason about content
irrespective of the span layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence


class SourceFormat(enum.Enum):
    """Where a document came from; drives the acquisition pipeline."""

    PAPER = "paper"
    PDF = "pdf"
    MSWORD = "msword"
    RTF = "rtf"
    HTML = "html"

    @property
    def needs_ocr(self) -> bool:
        """Paper documents are digitised and OCR-processed first."""
        return self is SourceFormat.PAPER


@dataclass(frozen=True)
class Cell:
    """One physical table cell."""

    text: str
    rowspan: int = 1
    colspan: int = 1

    def __post_init__(self) -> None:
        if self.rowspan < 1 or self.colspan < 1:
            raise ValueError("cell spans must be >= 1")

    def with_text(self, text: str) -> "Cell":
        return replace(self, text=text)


@dataclass(frozen=True)
class Row:
    """One physical table row."""

    cells: Sequence[Cell]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)


class TableStructureError(ValueError):
    """Raised when spans overlap or overflow the grid."""


@dataclass(frozen=True)
class Table:
    """A table with possibly multi-row / multi-column cells."""

    rows: Sequence[Row]
    caption: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def logical_grid(self) -> List[List[Optional[str]]]:
        """Expand spans into the rectangular logical grid.

        Grid position (r, c) holds the text of the physical cell that
        covers it, or ``None`` if nothing covers it (ragged input).
        Mirrors the HTML table layout algorithm: each physical cell is
        placed at the first free column of its row, then its span block
        is marked occupied.
        """
        grid: List[List[Optional[str]]] = []
        occupied: List[List[bool]] = []
        for row_index, row in enumerate(self.rows):
            if len(grid) == row_index:
                grid.append([])
                occupied.append([])
            flags = occupied[row_index]
            column = 0
            for cell in row:
                # The first free column in this row; past its end is free.
                while column < len(flags) and flags[column]:
                    column += 1
                end_row = row_index + cell.rowspan
                end_column = column + cell.colspan
                while len(grid) < end_row:
                    grid.append([])
                    occupied.append([])
                # Only the rows this span covers are padded and marked.
                for r in range(row_index, end_row):
                    row_cells, row_flags = grid[r], occupied[r]
                    missing = end_column - len(row_cells)
                    if missing > 0:
                        row_cells.extend([None] * missing)
                        row_flags.extend([False] * missing)
                    for c in range(column, end_column):
                        if row_flags[c]:
                            raise TableStructureError(
                                f"cell spans overlap at grid position ({r}, {c})"
                            )
                        row_flags[c] = True
                        row_cells[c] = cell.text
                column = end_column
        # Pad all rows to the final width.
        width = max((len(r) for r in grid), default=0)
        for row_cells, row_flags in zip(grid, occupied):
            while len(row_cells) < width:
                row_cells.append(None)
                row_flags.append(False)
        return grid

    def logical_width(self) -> int:
        grid = self.logical_grid()
        return len(grid[0]) if grid else 0

    def map_cells(self, transform) -> "Table":
        """A copy with every cell's text mapped through *transform*.

        *transform* receives ``(row_index, cell_index, cell)`` and
        returns the new text.
        """
        new_rows = []
        for row_index, row in enumerate(self.rows):
            new_cells = [
                cell.with_text(transform(row_index, cell_index, cell))
                for cell_index, cell in enumerate(row)
            ]
            new_rows.append(Row(new_cells))
        return Table(new_rows, caption=self.caption)


@dataclass(frozen=True)
class Document:
    """An input document: a titled collection of tables."""

    title: str
    tables: Sequence[Table]
    source_format: SourceFormat = SourceFormat.HTML

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))

    def with_tables(self, tables: Sequence[Table]) -> "Document":
        return replace(self, tables=tuple(tables))
