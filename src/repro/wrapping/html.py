"""HTML table parsing (no third-party dependencies).

The wrapper consumes the HTML produced by the acquisition module, but
it must also cope with HTML from the wild (the paper points out the
extraction module doubles as a web-data extractor).  This parser is
therefore deliberately tolerant: unclosed ``<td>``/``<tr>`` tags,
mixed-case tags and attributes, whitespace noise and markup *inside*
cells (``<b>``, ``<span>``, ...) are all handled; only table structure
tags are interpreted, everything else inside a cell contributes its
text content.

The output is the same :class:`~repro.acquisition.documents.Table`
model the acquisition side uses, so round-tripping
``parse_html_tables(to_html(doc))`` preserves the logical grid -- a
property the test suite checks with hypothesis.
"""

from __future__ import annotations

from html.parser import HTMLParser
from typing import List, Optional, Tuple as PyTuple

from repro.acquisition.documents import Cell, Row, Table


class HtmlTableParseError(ValueError):
    """Raised on irrecoverably malformed table markup."""


class _TableHtmlParser(HTMLParser):
    """Streaming parser collecting tables, rows and cells."""

    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.tables: List[Table] = []
        self._rows: Optional[List[Row]] = None
        self._cells: Optional[List[Cell]] = None
        self._cell_text: Optional[List[str]] = None
        self._cell_spans: PyTuple[int, int] = (1, 1)
        self._caption: Optional[str] = None
        self._in_caption = False
        self._caption_text: List[str] = []

    # Tag handling -----------------------------------------------------

    def handle_starttag(self, tag: str, attrs) -> None:
        tag = tag.lower()
        if tag == "table":
            self._flush_table()  # nested/unclosed table: close previous
            self._rows = []
            self._caption = None
        elif tag == "caption" and self._rows is not None:
            self._in_caption = True
            self._caption_text = []
        elif tag == "tr" and self._rows is not None:
            self._flush_cell()
            self._flush_row()
            self._cells = []
        elif tag in ("td", "th") and self._rows is not None:
            if self._cells is None:
                self._cells = []  # tolerate a missing <tr>
            self._flush_cell()
            rowspan = _span_attr(attrs, "rowspan")
            colspan = _span_attr(attrs, "colspan")
            self._cell_spans = (rowspan, colspan)
            self._cell_text = []

    def handle_endtag(self, tag: str) -> None:
        tag = tag.lower()
        if tag in ("td", "th"):
            self._flush_cell()
        elif tag == "tr":
            self._flush_cell()
            self._flush_row()
        elif tag == "caption":
            if self._in_caption:
                self._caption = "".join(self._caption_text).strip()
                self._in_caption = False
        elif tag == "table":
            self._flush_table()

    def handle_data(self, data: str) -> None:
        if self._in_caption:
            self._caption_text.append(data)
        elif self._cell_text is not None:
            self._cell_text.append(data)

    # Flush helpers -----------------------------------------------------

    def _flush_cell(self) -> None:
        if self._cell_text is None or self._cells is None:
            self._cell_text = None
            return
        text = " ".join("".join(self._cell_text).split())
        rowspan, colspan = self._cell_spans
        self._cells.append(Cell(text, rowspan=rowspan, colspan=colspan))
        self._cell_text = None
        self._cell_spans = (1, 1)

    def _flush_row(self) -> None:
        if self._cells is None or self._rows is None:
            self._cells = None
            return
        if self._cells:
            self._rows.append(Row(self._cells))
        self._cells = None

    def _flush_table(self) -> None:
        self._flush_cell()
        self._flush_row()
        if self._rows is not None and self._rows:
            self.tables.append(Table(self._rows, caption=self._caption))
        self._rows = None
        self._caption = None

    def close(self) -> None:
        super().close()
        self._flush_table()


#: The HTML table processing model's caps on span attributes: a larger
#: value from the page counts as the cap, so one ``colspan="1000000000"``
#: cannot make the logical grid allocate a billion slots.
_SPAN_LIMITS = {"rowspan": 65534, "colspan": 1000}


def _span_attr(attrs, name: str) -> int:
    for attr_name, attr_value in attrs:
        if attr_name.lower() == name and attr_value:
            try:
                value = int(attr_value.strip())
            except ValueError:
                return 1
            return min(max(1, value), _SPAN_LIMITS[name])
    return 1


def parse_html_tables(html_text: str) -> List[Table]:
    """All tables found in *html_text*, in document order."""
    parser = _TableHtmlParser()
    try:
        parser.feed(html_text)
        parser.close()
    except Exception as exc:  # html.parser raises rarely; normalise
        raise HtmlTableParseError(f"cannot parse HTML: {exc}") from exc
    return parser.tables
