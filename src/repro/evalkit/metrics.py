"""Repair-quality and human-intervention metrics.

The paper's implicit quality criterion is "did the suggested repair
match the source document" (the operator's acceptance test) and its
efficiency criterion is "how much human intervention was needed".
These are made precise here:

- **cell precision** -- of the cells a repair changed, how many were
  actually corrupted;
- **cell recall** -- of the corrupted cells, how many the repair
  changed;
- **value accuracy** -- of the corrupted cells, how many the repair
  restored to the exact source value;
- **exact** -- the repaired instance equals the ground truth;
- **intervention cost** -- values a human had to look at, compared
  against the "check everything" baseline (every value of the
  document) and the "check violated constraints" baseline (every value
  involved in a violated ground constraint -- the pre-repair state of
  the art the introduction describes);
- **mis-repair rate** -- of the repair cascade's *closed-form* fixes
  (tier T1, which claims to reconstruct the source value of a
  specific cell), how many silently diverged from the OCR channel's
  injected ground truth.  T3/T4 fixes are excluded by design: they
  promise card-minimality, not source fidelity, and a card-minimal
  repair may legitimately differ from the source document (the paper's
  first-proposal-exact rate is below 1 for the same reason).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple as PyTuple

from repro.constraints.grounding import Cell, Violation
from repro.relational.database import Database, diff_databases
from repro.repair.updates import Repair

#: One injected error, as produced by ``inject_value_errors``.
InjectedError = PyTuple[Cell, float, float]


@dataclass(frozen=True)
class RepairQuality:
    """Quality of one repair against known injected errors."""

    n_injected: int
    n_changed: int
    true_positive_cells: int
    exact_values: int
    exact: bool

    @property
    def cell_precision(self) -> float:
        if self.n_changed == 0:
            return 1.0 if self.n_injected == 0 else 0.0
        return self.true_positive_cells / self.n_changed

    @property
    def cell_recall(self) -> float:
        if self.n_injected == 0:
            return 1.0
        return self.true_positive_cells / self.n_injected

    @property
    def cell_f1(self) -> float:
        precision = self.cell_precision
        recall = self.cell_recall
        if precision + recall == 0.0:
            return 0.0
        return 2 * precision * recall / (precision + recall)

    @property
    def value_accuracy(self) -> float:
        """Fraction of corrupted cells restored to the exact source value."""
        if self.n_injected == 0:
            return 1.0
        return self.exact_values / self.n_injected


def repair_quality(
    repair: Repair,
    injected: Sequence[InjectedError],
    *,
    corrupted: Database,
    ground_truth: Database,
) -> RepairQuality:
    """Score *repair* (computed on *corrupted*) against the truth."""
    truth_of: Dict[Cell, float] = {cell: old for cell, old, _ in injected}
    changed_cells = set(repair.cells())
    true_positives = len(changed_cells & set(truth_of))
    exact_values = 0
    for cell, true_value in truth_of.items():
        update = repair.update_for(cell)
        if update is not None and float(update.new_value) == float(true_value):
            exact_values += 1
    from repro.repair.updates import apply_repair

    repaired = apply_repair(corrupted, repair)
    return RepairQuality(
        n_injected=len(injected),
        n_changed=repair.cardinality,
        true_positive_cells=true_positives,
        exact_values=exact_values,
        exact=repaired == ground_truth,
    )


@dataclass(frozen=True)
class InterventionCost:
    """Human effort of one acquisition, in values-inspected units."""

    #: values the DART validation loop asked the operator to review
    dart_inspections: int
    #: the "verify every acquired value" baseline
    check_everything: int
    #: the "inspect all values involved in violated constraints" baseline
    check_violated: int

    @property
    def saving_vs_everything(self) -> float:
        if self.check_everything == 0:
            return 0.0
        return 1.0 - self.dart_inspections / self.check_everything

    @property
    def saving_vs_violated(self) -> float:
        if self.check_violated == 0:
            return 0.0
        return 1.0 - self.dart_inspections / self.check_violated


def intervention_cost(
    dart_inspections: int,
    database: Database,
    violations: Sequence[Violation],
) -> InterventionCost:
    """Build the cost comparison for one processed document."""
    violated_cells: Set[Cell] = set()
    for violation in violations:
        violated_cells.update(violation.ground.coefficients)
    return InterventionCost(
        dart_inspections=dart_inspections,
        check_everything=len(database.measure_cells()),
        check_violated=len(violated_cells),
    )


# ---------------------------------------------------------------------------
# Mis-repair rate (cascade honesty metric)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MisrepairReport:
    """Closed-form cascade fixes audited against injected ground truth.

    A closed-form fix (tier T1 confusion inversion) claims to have
    reconstructed *the source value* of one specific cell.  That claim
    is falsifiable when the corruption was injected:
    the fix is a **mis-repair** when it touched a cell that was never
    corrupted, or wrote a value different from the cell's source value.

    Higher tiers are deliberately out of scope -- T3/T4 certify
    cardinality-minimality, not source fidelity, so disagreeing with
    the source there is not a lie (see :data:`misrepair_rate`).
    """

    #: closed-form (T1) fixes the cascade emitted
    n_closed_form: int
    #: of those, fixes contradicting the injected ground truth
    n_misrepairs: int
    #: the offending cells, for diagnostics
    misrepaired_cells: PyTuple[Cell, ...] = ()

    @property
    def misrepair_rate(self) -> float:
        """Fraction of closed-form fixes that were wrong (0.0 if none)."""
        if self.n_closed_form == 0:
            return 0.0
        return self.n_misrepairs / self.n_closed_form


def misrepair_report(
    report: "CascadeReport",  # noqa: F821 -- repro.repair.cascade
    injected: Sequence[InjectedError],
) -> MisrepairReport:
    """Audit a cascade's closed-form fixes against *injected* errors.

    *report* is the :class:`~repro.repair.cascade.CascadeReport` from
    ``run_cascade`` (or ``RepairOutcome.cascade``); *injected* is the
    ``(cell, old, new)`` list from
    :func:`~repro.acquisition.ocr.inject_value_errors` -- ``old`` being
    the source value a truthful closed-form fix must restore.
    """
    truth_of: Dict[Cell, float] = {cell: old for cell, old, _ in injected}
    n_closed_form = 0
    offenders: List[Cell] = []
    for fix in report.closed_form_fixes():
        n_closed_form += 1
        truth = truth_of.get(fix.cell)
        if truth is None or float(fix.new_value) != float(truth):
            offenders.append(fix.cell)
    return MisrepairReport(
        n_closed_form=n_closed_form,
        n_misrepairs=len(offenders),
        misrepaired_cells=tuple(offenders),
    )


def misrepair_rate(
    report: "CascadeReport",  # noqa: F821
    injected: Sequence[InjectedError],
) -> float:
    """Shorthand for ``misrepair_report(report, injected).misrepair_rate``."""
    return misrepair_report(report, injected).misrepair_rate
