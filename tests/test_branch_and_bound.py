"""Unit tests specific to the branch-and-bound search."""

import pytest

from repro.milp.branch_and_bound import solve_branch_and_bound
from repro.milp.model import MILPModel, SolveStatus, VarType


class TestSearchBehaviour:
    def test_pure_lp_needs_no_branching(self):
        model = MILPModel("lp")
        x = model.add_variable("x", VarType.REAL, lower=0, upper=4)
        model.set_objective(-x)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.stats["nodes"] == 1.0

    def test_presolve_skips_trivial_search(self):
        model = MILPModel("lp")
        x = model.add_variable("x", VarType.REAL, lower=0, upper=4)
        model.set_objective(-x)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-4.0)
        assert solution.values == {"x": pytest.approx(4.0)}

    def test_branching_explores_children(self):
        model = MILPModel("branch")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=10)
        model.add_constraint(2 * x <= 5)
        model.set_objective(-x)
        solution = solve_branch_and_bound(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.stats["nodes"] > 1.0

    def test_unbounded_root(self):
        model = MILPModel("unb")
        x = model.add_variable("x", VarType.INTEGER)
        model.set_objective(x)
        assert solve_branch_and_bound(model).status is SolveStatus.UNBOUNDED

    def test_infeasible_root(self):
        model = MILPModel("inf")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=1)
        model.add_constraint(x >= 5)
        model.set_objective(x)
        assert solve_branch_and_bound(model).status is SolveStatus.INFEASIBLE

    def test_infeasible_only_in_integers(self):
        # LP relaxation feasible (x = 0.5) but no integer point exists.
        model = MILPModel("gap")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=1)
        model.add_constraint(2 * x >= 1)
        model.add_constraint(2 * x <= 1)
        model.set_objective(x)
        assert solve_branch_and_bound(model).status is SolveStatus.INFEASIBLE

    def test_node_limit_reported(self):
        model = MILPModel("limit")
        xs = [model.add_variable(f"x{i}", VarType.INTEGER, 0, 1) for i in range(6)]
        model.add_constraint(sum((2 * x for x in xs), start=0) <= 5)
        model.set_objective(sum((-x for x in xs), start=0))
        solution = solve_branch_and_bound(model, max_nodes=1)
        assert solution.status in (SolveStatus.OPTIMAL, SolveStatus.ITERATION_LIMIT)

    def test_unknown_lp_backend_rejected(self):
        with pytest.raises(ValueError):
            solve_branch_and_bound(MILPModel("m"), lp_backend="gurobi")

    @pytest.mark.parametrize("lp_backend", ["scipy", "simplex"])
    def test_lp_backends_equivalent(self, lp_backend):
        model = MILPModel("eq")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=7)
        y = model.add_variable("y", VarType.INTEGER, lower=0, upper=7)
        model.add_constraint(3 * x + 5 * y <= 15)
        model.set_objective(-2 * x - 3 * y)
        solution = solve_branch_and_bound(model, lp_backend=lp_backend)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(-10.0)  # x=5,y=0
