"""Tests for the greedy primal repair heuristic and incumbent seeding."""

from __future__ import annotations

import pytest

import repro.repair.engine as engine_module
from repro.acquisition.ocr import inject_value_errors
from repro.datasets import (
    cash_budget_constraints,
    generate_cash_budget,
    paper_acquired_instance,
)
from repro.repair.engine import RepairEngine
from repro.repair.heuristic import greedy_repair
from repro.repair.translation import translate

from tests._seeds import derived_seeds, describe_seed

SEEDS = derived_seeds(12)


def _corrupted(seed: int):
    workload = generate_cash_budget(n_years=1 + seed % 2, seed=seed)
    corrupted, injected = inject_value_errors(
        workload.ground_truth, 1 + seed % 3, seed=seed + 77
    )
    return workload, corrupted, injected


class TestGreedyRepair:
    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_result_is_verified_feasible(self, seed):
        workload, corrupted, _ = _corrupted(seed)
        translation = translate(corrupted, workload.constraints)
        result = greedy_repair(translation)
        if result is None:
            return  # the heuristic may legitimately stall
        # check_feasible already ran inside; assert the contract anyway.
        assert translation.model.check_feasible(result.assignment), describe_seed(seed)
        assert result.objective >= -1e-9, describe_seed(seed)
        assert result.changes == round(result.objective), describe_seed(seed)

    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_never_beats_the_exact_optimum(self, seed):
        workload, corrupted, _ = _corrupted(seed)
        translation = translate(corrupted, workload.constraints)
        result = greedy_repair(translation)
        if result is None:
            return
        exact = RepairEngine(
            corrupted, workload.constraints, backend="bnb"
        ).find_card_minimal_repair()
        assert result.objective >= exact.objective - 1e-9, describe_seed(seed)

    def test_consistent_instance_needs_no_changes(self):
        workload = generate_cash_budget(n_years=1, seed=3)
        translation = translate(workload.ground_truth, workload.constraints)
        result = greedy_repair(translation)
        assert result is not None
        assert result.changes == 0
        assert result.iterations == 0

    def test_pins_are_honoured(self):
        database = paper_acquired_instance()
        constraints = cash_budget_constraints()
        engine = RepairEngine(database, constraints)
        cell = engine.involved_cells()[0]
        pinned_value = float(
            database.get_value(cell[0], cell[1], cell[2])
        )
        translation = translate(
            database, constraints, pins={cell: pinned_value}
        )
        result = greedy_repair(translation)
        if result is None:
            return
        i = translation.index_of(cell)
        assert result.z_values[i] == pytest.approx(pinned_value)


class TestIncumbentSeeding:
    @pytest.mark.parametrize("backend", ["bnb", "bnb-simplex"])
    def test_seeded_solve_matches_unseeded_objective(self, backend, monkeypatch):
        workload, corrupted, _ = _corrupted(SEEDS[0])
        seeded_engine = RepairEngine(
            corrupted, workload.constraints, backend=backend
        )
        seeded = seeded_engine.find_big_m_repair()
        # Without the greedy repair the search runs unseeded.
        monkeypatch.setattr(engine_module, "greedy_repair", lambda *a, **k: None)
        plain_engine = RepairEngine(
            corrupted, workload.constraints, backend=backend
        )
        plain = plain_engine.find_big_m_repair()
        assert not plain_engine.solve_stats[-1].heuristic_seeded
        assert seeded.objective == pytest.approx(plain.objective, abs=1e-6)
        record = seeded_engine.solve_stats[-1]
        if record.heuristic_seeded:
            assert record.heuristic_gap is not None
            assert record.heuristic_gap >= 0.0
