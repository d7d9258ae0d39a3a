"""Property tests for the MILP presolve pass.

Presolve must be *transparent*: for any grounded model the reduced
problem (or the directly-solved / proven-infeasible outcome) has to
yield exactly the same optimal objective as the unreduced one, and
postsolve must lift reduced points back to feasible full-space points.
The randomized battery reuses the ``S*(AC)``-shaped generator of the
differential suite, which covers infeasible, already-consistent and
violated instances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.milp.branch_and_bound import solve_branch_and_bound
from repro.milp.lowering import lower_model_sparse
from repro.milp.model import MILPModel, SolveStatus, VarType
from repro.milp.presolve import presolve
from repro.repair.engine import RepairEngine

from tests._seeds import derived_seeds, describe_seed
from tests.test_differential_backends import random_grounded_milp

TOL = 1e-6

SEEDS = derived_seeds(30)


class TestPresolveTransparency:
    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    @pytest.mark.parametrize("lp_backend", ["scipy", "simplex"])
    def test_same_status_and_objective(self, seed, lp_backend):
        model = random_grounded_milp(seed)
        plain = solve_branch_and_bound(
            model, lp_backend=lp_backend, presolve=False
        )
        reduced = solve_branch_and_bound(
            model, lp_backend=lp_backend, presolve=True
        )
        assert reduced.status is plain.status, describe_seed(seed)
        if plain.status is SolveStatus.OPTIMAL:
            assert reduced.objective == pytest.approx(
                plain.objective, abs=TOL
            ), describe_seed(seed)

    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_presolve_infeasible_agrees_with_search(self, seed):
        model = random_grounded_milp(seed)
        reduction = presolve(lower_model_sparse(model))
        if reduction.status != "infeasible":
            pytest.skip("presolve did not prove infeasibility for this seed")
        plain = solve_branch_and_bound(model, presolve=False)
        assert plain.status is SolveStatus.INFEASIBLE, describe_seed(seed)

    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_postsolve_point_is_feasible(self, seed):
        """Solve the *reduced* arrays, lift the answer, check the model."""
        from scipy.optimize import milp, LinearConstraint, Bounds

        model = random_grounded_milp(seed)
        reduction = presolve(lower_model_sparse(model))
        if reduction.status == "infeasible":
            return
        if reduction.status == "solved":
            lifted = reduction.restore()
            assert model.check_feasible(lifted), describe_seed(seed)
            return
        arrays = reduction.arrays
        constraints = []
        if arrays.m_ub:
            constraints.append(
                LinearConstraint(arrays.a_ub.to_dense(), -np.inf, arrays.b_ub)
            )
        if arrays.m_eq:
            constraints.append(
                LinearConstraint(arrays.a_eq.to_dense(), arrays.b_eq, arrays.b_eq)
            )
        integrality = np.zeros(arrays.n)
        integrality[arrays.integral] = 1
        result = milp(
            arrays.costs,
            constraints=constraints,
            bounds=Bounds(arrays.lower, arrays.upper),
            integrality=integrality,
        )
        if result.status != 0:
            return
        lifted = reduction.restore(result.x)
        assert model.check_feasible(lifted), describe_seed(seed)

    @pytest.mark.parametrize("seed", SEEDS[:10], ids=[f"seed{s}" for s in SEEDS[:10]])
    def test_reduce_point_roundtrip(self, seed):
        """A feasible full point survives reduce -> restore unchanged."""
        model = random_grounded_milp(seed)
        solution = solve_branch_and_bound(model, presolve=False)
        if solution.status is not SolveStatus.OPTIMAL:
            return
        point = np.array(
            [solution.values[v.name] for v in model.variables]
        )
        reduction = presolve(lower_model_sparse(model))
        assert reduction.status != "infeasible", describe_seed(seed)
        if reduction.status == "solved":
            return
        reduced = reduction.reduce_point(point)
        assert reduced is not None, describe_seed(seed)
        assert np.allclose(reduction.restore(reduced), point), describe_seed(seed)


class TestPresolveEdgeCases:
    def test_fully_fixed_model_is_solved_outright(self):
        model = MILPModel("fixed")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=10)
        y = model.add_variable("y", VarType.REAL, lower=-5, upper=5)
        model.add_constraint(x == 4)
        model.add_constraint(y == -1.5)
        model.set_objective(x + 2 * y)
        reduction = presolve(lower_model_sparse(model))
        assert reduction.status == "solved"
        lifted = reduction.restore()
        assert model.check_feasible(lifted)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0)
        assert solution.stats["presolve_solved"] == 1.0

    def test_integer_gap_infeasibility_detected(self):
        # LP-feasible (x = 0.5) but no integer point: singleton rows
        # tighten the bounds to a fractional fixing, which must be
        # reported infeasible, not silently rounded.
        model = MILPModel("gap")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=1)
        model.add_constraint(2 * x >= 1)
        model.add_constraint(2 * x <= 1)
        model.set_objective(x)
        reduction = presolve(lower_model_sparse(model))
        assert reduction.status == "infeasible"

    def test_contradictory_bounds_detected(self):
        model = MILPModel("contra")
        x = model.add_variable("x", VarType.REAL, lower=0, upper=10)
        model.add_constraint(x >= 7)
        model.add_constraint(x <= 3)
        model.set_objective(x)
        assert presolve(lower_model_sparse(model)).status == "infeasible"

    def test_stats_surface_in_solution(self):
        model = random_grounded_milp(SEEDS[0])
        solution = solve_branch_and_bound(model, presolve=True)
        for key in (
            "presolve_rows_dropped",
            "presolve_vars_fixed",
            "presolve_bounds_tightened",
            "presolve_coeffs_tightened",
        ):
            assert key in solution.stats


class TestPresolvePreservesRepairs:
    @pytest.mark.parametrize("seed", SEEDS[:8], ids=[f"seed{s}" for s in SEEDS[:8]])
    def test_card_minimal_repair_objective_unchanged(self, seed):
        workload = generate_cash_budget(n_years=1, seed=seed)
        corrupted, _ = inject_value_errors(
            workload.ground_truth, 1 + seed % 3, seed=seed + 1
        )
        with_presolve = RepairEngine(
            corrupted, workload.constraints, backend="bnb"
        ).find_card_minimal_repair()
        without = RepairEngine(
            corrupted,
            workload.constraints,
            backend="bnb",
            presolve=False,
            seed_incumbent=False,
        ).find_card_minimal_repair()
        assert with_presolve.objective == pytest.approx(
            without.objective, abs=TOL
        ), describe_seed(seed)
