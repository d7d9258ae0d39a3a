"""Unit tests for the evaluation kit (repro.evalkit)."""

import pytest

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.evalkit.metrics import (
    MisrepairReport,
    intervention_cost,
    misrepair_rate,
    misrepair_report,
    repair_quality,
)
from repro.evalkit.runner import SweepCell, aggregate, sweep
from repro.evalkit.tables import ascii_table, format_float
from repro.repair.engine import RepairEngine
from repro.repair.updates import AtomicUpdate, Repair


class TestRepairQuality:
    def setup_case(self, n_errors=2, seed=3):
        workload = generate_cash_budget(n_years=2, seed=seed)
        corrupted, injected = inject_value_errors(
            workload.ground_truth, n_errors, seed=seed
        )
        return workload, corrupted, injected

    def test_perfect_repair_scores_one(self):
        workload, corrupted, injected = self.setup_case()
        perfect = Repair(
            [
                AtomicUpdate(cell[0], cell[1], cell[2], new, old)
                for cell, old, new in injected
            ]
        )
        quality = repair_quality(
            perfect, injected, corrupted=corrupted, ground_truth=workload.ground_truth
        )
        assert quality.cell_precision == 1.0
        assert quality.cell_recall == 1.0
        assert quality.value_accuracy == 1.0
        assert quality.exact

    def test_wrong_cell_lowers_precision(self):
        workload, corrupted, injected = self.setup_case(n_errors=1)
        (cell, old, new), = injected
        # Change an unrelated cell instead.
        other = ("CashBudget", (cell[1] + 5) % 20, "Value")
        other_value = corrupted.get_value(*other)
        wrong = Repair([AtomicUpdate(other[0], other[1], other[2], other_value, other_value + 1)])
        quality = repair_quality(
            wrong, injected, corrupted=corrupted, ground_truth=workload.ground_truth
        )
        assert quality.cell_precision == 0.0
        assert quality.cell_recall == 0.0
        assert not quality.exact

    def test_right_cell_wrong_value(self):
        workload, corrupted, injected = self.setup_case(n_errors=1)
        (cell, old, new), = injected
        near_miss = Repair([AtomicUpdate(cell[0], cell[1], cell[2], new, old + 1)])
        quality = repair_quality(
            near_miss, injected, corrupted=corrupted, ground_truth=workload.ground_truth
        )
        assert quality.cell_recall == 1.0
        assert quality.value_accuracy == 0.0

    def test_empty_everything(self):
        workload = generate_cash_budget(seed=1)
        quality = repair_quality(
            Repair([]), [], corrupted=workload.ground_truth,
            ground_truth=workload.ground_truth,
        )
        assert quality.cell_precision == 1.0
        assert quality.cell_f1 == 1.0
        assert quality.exact


class TestInterventionCost:
    def test_cost_comparison(self):
        workload = generate_cash_budget(n_years=2, seed=5)
        corrupted, _ = inject_value_errors(workload.ground_truth, 1, seed=5)
        engine = RepairEngine(corrupted, workload.constraints)
        violations = engine.violations()
        cost = intervention_cost(2, corrupted, violations)
        assert cost.check_everything == 20
        assert 0 < cost.check_violated <= 20
        assert cost.dart_inspections == 2
        assert cost.saving_vs_everything == pytest.approx(1 - 2 / 20)


class TestMisrepairRate:
    """Goldens for the cascade honesty metric.

    The hand-built reports pin the arithmetic; the seeded golden pins
    the end-to-end value on a known scenario (a change in the cascade
    or the channel that starts mis-repairing shows up here first).
    """

    @staticmethod
    def fix(tier, cell, new_value):
        from repro.repair.cascade import CascadeFix

        return CascadeFix(
            tier=tier, cell=cell, old_value=0.0, new_value=new_value
        )

    @staticmethod
    def report(fixes):
        from repro.repair.cascade import CascadeReport

        return CascadeReport(budget=0, fixes=list(fixes))

    def test_truthful_fix_scores_zero(self):
        cell = ("CashBudget", 0, "Value")
        report = self.report([self.fix("t1-inversion", cell, 220.0)])
        audit = misrepair_report(report, [(cell, 220.0, 250.0)])
        assert audit == MisrepairReport(n_closed_form=1, n_misrepairs=0)
        assert audit.misrepair_rate == 0.0

    def test_wrong_value_is_a_misrepair(self):
        cell = ("CashBudget", 0, "Value")
        report = self.report([self.fix("t1-inversion", cell, 225.0)])
        audit = misrepair_report(report, [(cell, 220.0, 250.0)])
        assert audit.n_misrepairs == 1
        assert audit.misrepaired_cells == (cell,)
        assert audit.misrepair_rate == 1.0

    def test_uninjected_cell_is_a_misrepair(self):
        injected_cell = ("CashBudget", 0, "Value")
        other_cell = ("CashBudget", 7, "Value")
        report = self.report([self.fix("t1-inversion", other_cell, 42.0)])
        audit = misrepair_report(report, [(injected_cell, 220.0, 250.0)])
        assert audit.n_misrepairs == 1

    def test_higher_tiers_are_not_scored(self):
        cell = ("CashBudget", 0, "Value")
        report = self.report(
            [
                self.fix("t3-greedy", cell, 999.0),
                self.fix("t4-exact", cell, 999.0),
            ]
        )
        audit = misrepair_report(report, [(cell, 220.0, 250.0)])
        assert audit == MisrepairReport(n_closed_form=0, n_misrepairs=0)
        assert audit.misrepair_rate == 0.0

    def test_no_fixes_rate_is_zero(self):
        assert self.report([]).closed_form_fixes() == []
        assert misrepair_rate(self.report([]), []) == 0.0

    def test_seeded_golden_scenario(self):
        """End-to-end: run the real cascade and audit it."""
        from repro.repair.cascade import run_cascade

        workload = generate_cash_budget(n_years=2, seed=7)
        corrupted, injected = inject_value_errors(
            workload.ground_truth, 3, seed=1007
        )
        _, report = run_cascade(corrupted, workload.constraints)
        assert misrepair_rate(report, injected) == 0.0


class TestRunner:
    def test_sweep_runs_grid(self):
        cells = sweep([1, 2], [0, 1, 2], lambda p, s: {"value": p * 10 + s})
        assert len(cells) == 2
        assert cells[0].mean("value") == pytest.approx(11.0)
        assert cells[1].mean("value") == pytest.approx(21.0)

    def test_std(self):
        cells = sweep([0], [0, 1], lambda p, s: {"v": float(s)})
        assert cells[0].std("v") == pytest.approx(0.7071, abs=1e-3)

    def test_rate_of_binary_measurements(self):
        cells = sweep([0], range(4), lambda p, s: {"hit": 1.0 if s % 2 == 0 else 0.0})
        assert cells[0].rate("hit") == pytest.approx(0.5)

    def test_aggregate(self):
        cells = sweep([5], [0, 1], lambda p, s: {"v": float(s)})
        summary = aggregate(cells, ["v"])
        parameter, stats = summary[0]
        assert parameter == 5
        assert stats["v"][0] == pytest.approx(0.5)

    def test_missing_measurement_is_nan(self):
        cell = SweepCell(parameter=1, runs=[{"a": 1.0}])
        assert cell.mean("b") != cell.mean("b")  # NaN


class TestTables:
    def test_format_float(self):
        assert format_float(3.0) == "3"
        assert format_float(3.14159) == "3.142"
        assert format_float(float("nan")) == "nan"

    def test_ascii_table_shape(self):
        rendered = ascii_table(["k", "v"], [[1, 0.5], [2, 0.25]], title="T")
        lines = rendered.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("+")
        assert "| k" in lines[2]
        assert rendered.count("+") >= 8

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            ascii_table(["a"], [[1, 2]])

    def test_boolean_rendering(self):
        rendered = ascii_table(["ok"], [[True], [False]])
        assert "yes" in rendered and "no" in rendered
