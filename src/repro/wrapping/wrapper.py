"""The wrapper: table rows -> scored row-pattern instances.

For each logical row of each input table the wrapper (Section 6.2):

1. considers every row pattern with matching structure (same number of
   logical cells);
2. scores each candidate: every cell gets a *cell matching score*
   (standard-domain parse check, or best dictionary similarity for
   lexical cells, with hierarchy requirements enforced), combined by a
   t-norm into the row score;
3. picks the best-scoring pattern and builds its *row-pattern
   instance*, binding each lexical cell to its most similar valid item
   ``msi(r(i), rt(i))`` -- the wrapper-level repair of misspelled
   strings -- and each standard cell to the cell text;
4. rows that score below the metadata threshold against every pattern
   are reported as unmatched (headers, separator rows, noise).

Multi-row cells need no special pass: the logical grid replicates a
spanning cell's text into every grid position it covers, which is
exactly the paper's treatment of the year cell of Figure 1 ("the
wrapper considers this value associated to all the document rows which
are adjacent to the multi-row cell").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple as PyTuple

from repro.acquisition.documents import Table
from repro.wrapping.html import parse_html_tables
from repro.wrapping.matching import TNorm, most_similar_item
from repro.wrapping.metadata import DomainDescription, ExtractionMetadata
from repro.wrapping.patterns import LexicalCell, RowPattern, StandardCell, StandardDomain


@dataclass(frozen=True)
class CellMatch:
    """The match of one table cell against one pattern cell."""

    raw_text: str
    bound_value: str
    score: float
    headline: Optional[str]

    @property
    def was_repaired(self) -> bool:
        """Did msi binding change the text (a wrapper-level repair)?"""
        return self.raw_text != self.bound_value


@dataclass
class RowPatternInstance:
    """The result of matching one table row with its best pattern."""

    pattern: RowPattern
    cells: List[CellMatch]
    score: float
    table_index: int
    row_index: int

    def value(self, headline: str) -> str:
        for cell in self.cells:
            if cell.headline == headline:
                return cell.bound_value
        raise KeyError(
            f"pattern {self.pattern.name!r} has no headline {headline!r}"
        )

    def values(self) -> Dict[str, str]:
        return {c.headline: c.bound_value for c in self.cells if c.headline}


@dataclass
class UnmatchedRow:
    """A row no pattern matched above threshold."""

    table_index: int
    row_index: int
    texts: List[str]
    best_score: float


@dataclass
class WrapperReport:
    """Everything the wrapper produced for one document."""

    instances: List[RowPatternInstance]
    unmatched: List[UnmatchedRow]

    @property
    def n_repaired_strings(self) -> int:
        return sum(
            1
            for instance in self.instances
            for cell in instance.cells
            if cell.was_repaired
        )


class Wrapper:
    """Matches document tables against the metadata's row patterns."""

    def __init__(
        self, metadata: ExtractionMetadata, *, t_norm: TNorm = TNorm.PRODUCT
    ) -> None:
        self.metadata = metadata
        self.t_norm = t_norm
        # Per lexical domain name: the domain it was built from, its
        # sorted items, and each item's lower case -> the first item
        # in sorted order with that lower case.  Built on first use.
        self._lexical_index: Dict[
            str, PyTuple[DomainDescription, List[str], Dict[str, str]]
        ] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def wrap_html(self, html_text: str) -> WrapperReport:
        """Parse *html_text* and wrap every table found in it."""
        return self.wrap_tables(parse_html_tables(html_text))

    def wrap_document(self, document) -> WrapperReport:
        """Wrap an in-memory document model directly (no HTML round
        trip); equivalent to ``wrap_html(to_html(document))`` because
        the parser preserves logical grids."""
        return self.wrap_tables(document.tables)

    def wrap_tables(self, tables: Sequence[Table]) -> WrapperReport:
        instances: List[RowPatternInstance] = []
        unmatched: List[UnmatchedRow] = []
        selector = self.metadata.table_selector
        for table_index, table in enumerate(tables):
            if selector is not None and not selector.selects(
                table_index, table.caption
            ):
                continue
            grid = table.logical_grid()
            for row_index, grid_row in enumerate(grid):
                texts = [text if text is not None else "" for text in grid_row]
                best: Optional[RowPatternInstance] = None
                best_score = 0.0
                for pattern in self.metadata.row_patterns:
                    if pattern.arity != len(texts):
                        continue
                    candidate = self._match_row(pattern, texts, table_index, row_index)
                    if candidate.score > best_score or best is None:
                        if best is None or candidate.score > best_score:
                            best = candidate
                            best_score = candidate.score
                if best is None or best_score < self.metadata.match_threshold:
                    unmatched.append(
                        UnmatchedRow(table_index, row_index, texts, best_score)
                    )
                    continue
                instances.append(best)
        return WrapperReport(instances=instances, unmatched=unmatched)

    # ------------------------------------------------------------------
    # Row matching
    # ------------------------------------------------------------------

    def _match_row(
        self,
        pattern: RowPattern,
        texts: Sequence[str],
        table_index: int,
        row_index: int,
    ) -> RowPatternInstance:
        # First pass: independent cell matches.
        matches: List[CellMatch] = []
        for cell_pattern, text in zip(pattern.cells, texts):
            matches.append(self._match_cell(cell_pattern, text))
        # Second pass: enforce hierarchy requirements (footnote 4: the
        # bound item must also satisfy the pattern's hierarchy edges).
        for index, cell_pattern in enumerate(pattern.cells):
            if not isinstance(cell_pattern, LexicalCell):
                continue
            target_index = cell_pattern.specialization_of
            if target_index is None:
                continue
            target_value = matches[target_index].bound_value
            bound = matches[index].bound_value
            if self.metadata.hierarchy.is_specialization(bound, target_value):
                continue
            matches[index] = self._constrained_lexical_match(
                cell_pattern, texts[index], target_value
            )
        score = self.t_norm.combine(m.score for m in matches)
        return RowPatternInstance(
            pattern=pattern,
            cells=matches,
            score=score,
            table_index=table_index,
            row_index=row_index,
        )

    def _match_cell(self, cell_pattern: object, text: str) -> CellMatch:
        if isinstance(cell_pattern, StandardCell):
            score, bound = self._match_standard(cell_pattern.domain, text)
            return CellMatch(text, bound, score, cell_pattern.headline)
        assert isinstance(cell_pattern, LexicalCell)
        item, score = self._lexical_match(cell_pattern.domain_name, text)
        bound = item if item is not None else text
        return CellMatch(text, bound, score, cell_pattern.headline)

    def _lexical_match(
        self, domain_name: str, text: str
    ) -> PyTuple[Optional[str], float]:
        """``most_similar_item(text, domain items)``, exact hits first.

        Only an item equal to *text* up to case scores 1.0 (distance 0,
        or two empty strings), nothing scores more, and the scan keeps
        the first item in sorted order among equal scores -- so a
        lower-case lookup returns the scan's answer without computing
        any distance.  Misspelled cells fall through to the scan.
        """
        domain = self.metadata.domain(domain_name)
        entry = self._lexical_index.get(domain_name)
        if entry is None or entry[0] is not domain:
            items = domain.sorted_items()
            exact: Dict[str, str] = {}
            for item in items:
                exact.setdefault(item.lower(), item)
            entry = (domain, items, exact)
            self._lexical_index[domain_name] = entry
        _, items, exact = entry
        hit = exact.get(text.lower())
        if hit is not None:
            return hit, 1.0
        return most_similar_item(text, items)

    def _constrained_lexical_match(
        self, cell_pattern: LexicalCell, text: str, ancestor: str
    ) -> CellMatch:
        """msi restricted to items that specialise *ancestor*."""
        domain = self.metadata.domain(cell_pattern.domain_name)
        valid = [
            item
            for item in domain.sorted_items()
            if self.metadata.hierarchy.is_specialization(item, ancestor)
        ]
        if not valid:
            return CellMatch(text, text, 0.0, cell_pattern.headline)
        item, score = most_similar_item(text, valid)
        assert item is not None
        return CellMatch(text, item, score, cell_pattern.headline)

    @staticmethod
    def _match_standard(domain: StandardDomain, text: str) -> PyTuple[float, str]:
        stripped = text.strip()
        if domain is StandardDomain.STRING:
            return (1.0 if stripped else 0.0), stripped
        if domain is StandardDomain.INTEGER:
            candidate = stripped.lstrip("-")
            if candidate.isdigit():
                return 1.0, stripped
            digits = "".join(ch for ch in stripped if ch.isdigit())
            if digits:
                # Partially numeric (an OCR artefact like "2O3"): keep
                # the digits, flag with a reduced score.
                return 0.5, digits
            return 0.0, stripped
        # REAL
        try:
            float(stripped)
            return 1.0, stripped
        except ValueError:
            digits = "".join(ch for ch in stripped if ch.isdigit() or ch == ".")
            if digits and digits != ".":
                return 0.5, digits
            return 0.0, stripped
