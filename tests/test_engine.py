"""Unit tests for the repair engine (repro.repair.engine)."""

import pytest

from repro.constraints.constraint import ConstraintError
from repro.constraints.parser import parse_constraints
from repro.datasets import generate_cash_budget
from repro.acquisition.ocr import inject_value_errors
from repro.repair.engine import RepairEngine, UnrepairableError
from repro.repair.updates import Repair


class TestDetection:
    def test_consistency_answers(self, acquired, ground_truth, constraints):
        engine = RepairEngine(acquired, constraints)
        assert not engine.is_consistent()
        assert engine.is_consistent(ground_truth)

    def test_violations_list(self, acquired, constraints):
        engine = RepairEngine(acquired, constraints)
        assert len(engine.violations()) == 2

    def test_involved_cells(self, acquired, constraints):
        engine = RepairEngine(acquired, constraints)
        assert len(engine.involved_cells()) == 20


class TestRunningExampleRepair:
    def test_card_minimal_repair(self, acquired, ground_truth, constraints):
        engine = RepairEngine(acquired, constraints)
        outcome = engine.find_card_minimal_repair()
        assert outcome.cardinality == 1
        assert outcome.objective == pytest.approx(1.0)
        assert engine.apply(outcome.repair) == ground_truth

    def test_repair_is_verified(self, acquired, constraints):
        engine = RepairEngine(acquired, constraints)
        outcome = engine.find_card_minimal_repair()
        assert engine.is_repair(outcome.repair)

    @pytest.mark.parametrize("backend", ["scipy", "bnb", "bnb-simplex"])
    def test_all_backends_give_cardinality_one(self, acquired, constraints, backend):
        engine = RepairEngine(acquired, constraints, backend=backend)
        assert engine.find_card_minimal_repair().cardinality == 1

    def test_consistent_database_yields_empty_repair(self, ground_truth, constraints):
        engine = RepairEngine(ground_truth, constraints)
        outcome = engine.find_card_minimal_repair()
        assert outcome.cardinality == 0


class TestPins:
    def test_rejecting_the_suggestion_forces_alternatives(
        self, acquired, constraints
    ):
        engine = RepairEngine(acquired, constraints)
        # Operator says: the aggregate really is 250 in the source.
        outcome = engine.find_card_minimal_repair(
            pins={("CashBudget", 3, "Value"): 250.0}
        )
        assert outcome.cardinality >= 2
        assert engine.is_repair(outcome.repair)
        # The pinned cell keeps its value in the repaired database.
        repaired = engine.apply(outcome.repair)
        assert repaired.get_value("CashBudget", 3, "Value") == 250

    def test_pinning_truth_reproduces_example6(self, acquired, constraints):
        engine = RepairEngine(acquired, constraints)
        outcome = engine.find_card_minimal_repair(
            pins={("CashBudget", 3, "Value"): 220.0}
        )
        assert outcome.cardinality == 1


class TestSteadinessGate:
    def test_non_steady_constraints_rejected_at_construction(self, acquired):
        text = """
        function by_value(v) = sum(Value) from CashBudget where Value = $v
        constraint bad: CashBudget(_, _, _, _, v) => by_value(v) <= 1000
        """
        _, bad_constraints = parse_constraints(text)
        with pytest.raises(ConstraintError):
            RepairEngine(acquired, bad_constraints)


class TestUnrepairable:
    def test_contradictory_constraints(self, acquired, schema):
        text = """
        function total(y) = sum(Value) from CashBudget where Year = $y
        constraint lo: CashBudget(y, _, _, _, _) => total(y) <= 10
        constraint hi: CashBudget(y, _, _, _, _) => total(y) >= 20
        """
        _, contradictory = parse_constraints(text)
        engine = RepairEngine(acquired, contradictory)
        with pytest.raises(UnrepairableError):
            engine.find_card_minimal_repair()

    def test_infeasible_pins(self, acquired, constraints):
        engine = RepairEngine(acquired, constraints)
        # Pin detail and aggregate to values that cannot be reconciled
        # by any assignment of the remaining cells... actually any two
        # of the three Receipts cells can be reconciled by the third, so
        # pin all three inconsistently.
        pins = {
            ("CashBudget", 1, "Value"): 100.0,
            ("CashBudget", 2, "Value"): 120.0,
            ("CashBudget", 3, "Value"): 999.0,
        }
        with pytest.raises(UnrepairableError):
            engine.find_card_minimal_repair(pins=pins)


class TestGeneratedWorkloads:
    @pytest.mark.parametrize("n_errors", [1, 2, 3])
    def test_repair_cardinality_never_exceeds_errors(self, n_errors):
        workload = generate_cash_budget(n_years=2, seed=11)
        corrupted, injected = inject_value_errors(
            workload.ground_truth, n_errors, seed=n_errors
        )
        engine = RepairEngine(corrupted, workload.constraints)
        if engine.is_consistent():
            return  # errors may cancel; nothing to repair
        outcome = engine.find_card_minimal_repair()
        # Restoring the injected cells is *a* repair of that cardinality,
        # so the card-minimal repair cannot be larger.
        assert outcome.cardinality <= n_errors
        assert engine.is_repair(outcome.repair)
