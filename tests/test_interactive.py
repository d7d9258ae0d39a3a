"""Unit tests for the supervised validation loop (Section 6.3)."""

import pytest

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.repair.engine import RepairEngine
from repro.repair.interactive import (
    OracleOperator,
    ValidationLoop,
    Verdict,
    involvement_order,
)
from repro.repair.updates import AtomicUpdate


class TestOracleOperator:
    def test_accepts_matching_value(self, ground_truth):
        operator = OracleOperator(ground_truth)
        update = AtomicUpdate("CashBudget", 3, "Value", 250, 220)
        verdict = operator.review(update)
        assert verdict.accepted

    def test_rejects_and_reveals(self, ground_truth):
        operator = OracleOperator(ground_truth)
        update = AtomicUpdate("CashBudget", 3, "Value", 250, 230)
        verdict = operator.review(update)
        assert not verdict.accepted
        assert verdict.actual_value == 220.0

    def test_counts_reviews(self, ground_truth):
        operator = OracleOperator(ground_truth)
        update = AtomicUpdate("CashBudget", 3, "Value", 250, 220)
        operator.review(update)
        operator.review(update)
        assert operator.reviews == 2

    def test_key_based_matching(self, ground_truth, acquired):
        # Remove alignment by pretending tuple 3 in acquired corresponds
        # to a different id in truth: with key matching the lookup goes
        # through (Year, Subsection), which is identical here.
        operator = OracleOperator(ground_truth, acquired=acquired)
        update = AtomicUpdate("CashBudget", 3, "Value", 250, 220)
        assert operator.review(update).accepted

    def test_unknown_key_is_a_key_error(self, ground_truth, acquired):
        from repro.relational.database import Database

        key = acquired.relation("CashBudget").get(3).key_values()
        truth = Database(ground_truth.schema)
        for row in ground_truth.relation("CashBudget"):
            if row.key_values() != key:
                truth.insert("CashBudget", list(row))
        operator = OracleOperator(truth, acquired=acquired)
        with pytest.raises(KeyError, match="ground truth has no CashBudget "
                                           "tuple with key"):
            operator.review(AtomicUpdate("CashBudget", 3, "Value", 250, 220))


class TestInvolvementOrder:
    def test_more_involved_cells_first(self, acquired, constraints):
        engine = RepairEngine(acquired, constraints)
        grounds = engine.ground_system
        # z4 (total cash receipts) occurs in 2 ground constraints;
        # z2 (cash sales) occurs in 1.
        u_z4 = AtomicUpdate("CashBudget", 3, "Value", 250, 220)
        u_z2 = AtomicUpdate("CashBudget", 1, "Value", 100, 130)
        ordered = involvement_order(grounds, [u_z2, u_z4])
        assert ordered[0] is u_z4

    def test_stable_for_ties(self, acquired, constraints):
        engine = RepairEngine(acquired, constraints)
        grounds = engine.ground_system
        u_a = AtomicUpdate("CashBudget", 1, "Value", 100, 130)
        u_b = AtomicUpdate("CashBudget", 2, "Value", 120, 130)
        assert involvement_order(grounds, [u_b, u_a])[0] is u_a


class TestValidationLoop:
    def test_single_error_accepted_first_round(
        self, acquired, ground_truth, constraints
    ):
        engine = RepairEngine(acquired, constraints)
        session = ValidationLoop(engine, OracleOperator(ground_truth)).run()
        assert session.converged
        assert session.iterations == 1
        assert session.values_inspected == 1
        assert session.repaired_database == ground_truth

    def test_rejection_drives_new_iteration(self, constraints):
        # Corrupt a *detail* cell so the card-minimal proposal may pick
        # a different single-change repair; the oracle then rejects and
        # the loop must converge to the truth anyway.
        workload = generate_cash_budget(n_years=2, seed=3)
        corrupted, injected = inject_value_errors(workload.ground_truth, 2, seed=5)
        engine = RepairEngine(corrupted, workload.constraints)
        if engine.is_consistent():
            pytest.skip("errors cancelled for this seed")
        operator = OracleOperator(workload.ground_truth, acquired=corrupted)
        session = ValidationLoop(engine, operator).run()
        assert session.converged
        assert session.repaired_database == workload.ground_truth

    def test_prefix_reviews_still_converge(self):
        workload = generate_cash_budget(n_years=3, seed=9)
        corrupted, injected = inject_value_errors(workload.ground_truth, 3, seed=2)
        engine = RepairEngine(corrupted, workload.constraints)
        if engine.is_consistent():
            pytest.skip("errors cancelled for this seed")
        operator = OracleOperator(workload.ground_truth, acquired=corrupted)
        session = ValidationLoop(
            engine, operator, reviews_per_iteration=1
        ).run()
        assert session.converged
        assert session.repaired_database == workload.ground_truth

    def test_log_records_iterations(self, acquired, ground_truth, constraints):
        engine = RepairEngine(acquired, constraints)
        session = ValidationLoop(engine, OracleOperator(ground_truth)).run()
        assert len(session.log) <= session.iterations
        if session.log:
            proposal, = {len(entry.reviewed) for entry in session.log} or {0}

    def test_validated_cells_never_re_reviewed(self):
        workload = generate_cash_budget(n_years=2, seed=21)
        corrupted, injected = inject_value_errors(workload.ground_truth, 3, seed=7)
        engine = RepairEngine(corrupted, workload.constraints)
        if engine.is_consistent():
            pytest.skip("errors cancelled for this seed")
        operator = OracleOperator(workload.ground_truth, acquired=corrupted)
        session = ValidationLoop(engine, operator).run()
        reviewed_cells = [
            update.cell
            for entry in session.log
            for update, _ in entry.reviewed
        ]
        assert len(reviewed_cells) == len(set(reviewed_cells))

    def test_unordered_mode(self, acquired, ground_truth, constraints):
        engine = RepairEngine(acquired, constraints)
        session = ValidationLoop(
            engine, OracleOperator(ground_truth), order_updates=False
        ).run()
        assert session.converged


class AlwaysRejectOperator:
    """Rejects every suggestion and reveals the source value.

    The worst case for convergence: nothing is ever waved through, so
    every pin the loop accumulates comes from a rejection.  Against
    this operator the loop must still terminate (one fresh pin per
    review, finitely many cells) and must never re-propose a value the
    operator has already rejected.
    """

    def __init__(self, ground_truth, acquired=None):
        self._oracle = OracleOperator(ground_truth, acquired=acquired)

    @property
    def reviews(self):
        return self._oracle.reviews

    def review(self, update):
        verdict = self._oracle.review(update)
        actual = (
            float(update.new_value) if verdict.accepted else verdict.actual_value
        )
        return Verdict(accepted=False, actual_value=actual)


class TestPinningRobustness:
    @pytest.fixture()
    def scenario(self):
        workload = generate_cash_budget(n_years=2, seed=3)
        corrupted, _ = inject_value_errors(workload.ground_truth, 2, seed=5)
        engine = RepairEngine(corrupted, workload.constraints)
        if engine.is_consistent():
            pytest.skip("errors cancelled for this seed")
        return workload, corrupted, engine

    def test_rejected_value_is_never_resurrected(self, scenario):
        """Once the operator rejects a value for a cell, every later
        proposal must carry the revealed value for that cell -- the pin
        is an equality constraint, so the rejected value cannot come
        back -- and the cell is never put in front of the operator
        again."""
        workload, corrupted, engine = scenario
        operator = AlwaysRejectOperator(workload.ground_truth, acquired=corrupted)
        session = ValidationLoop(engine, operator).run()
        assert session.converged

        rejected = {}  # cell -> (rejected suggestion, revealed value)
        for entry in session.log:
            for update in entry.proposal:
                if update.cell in rejected:
                    suggestion, revealed = rejected[update.cell]
                    assert float(update.new_value) == pytest.approx(revealed)
                    if suggestion != revealed:
                        assert float(update.new_value) != suggestion
            for update, verdict in entry.reviewed:
                assert update.cell not in rejected, "rejected cell re-reviewed"
                rejected[update.cell] = (
                    float(update.new_value), float(verdict.actual_value),
                )
        assert rejected, "the scenario must exercise at least one rejection"
        assert session.repaired_database == workload.ground_truth

    def test_all_rejections_still_terminate_at_the_truth(self, scenario):
        """Termination argument made executable: every review adds one
        new pin and there are finitely many cells, so even a purely
        adversarial operator cannot make the loop run forever."""
        workload, corrupted, engine = scenario
        operator = AlwaysRejectOperator(workload.ground_truth, acquired=corrupted)
        session = ValidationLoop(engine, operator).run()
        n_cells = len(corrupted.measure_cells())
        assert session.converged
        assert session.values_inspected <= n_cells
        assert session.iterations <= n_cells + 1
        assert session.repaired_database == workload.ground_truth

    def test_iteration_cap_is_a_hard_stop(self, scenario):
        workload, corrupted, engine = scenario
        operator = AlwaysRejectOperator(workload.ground_truth, acquired=corrupted)
        session = ValidationLoop(engine, operator, max_iterations=1).run()
        assert session.iterations == 1
        assert not session.converged
        # The best-effort repair still honours every pin gathered so far.
        pins = session.log[-1].pins_after
        for update in session.accepted_repair:
            if update.cell in pins:
                assert float(update.new_value) == pytest.approx(pins[update.cell])
