"""Validity tests for the cut-free root relaxation and search.

The branch-and-bound adds no cutting planes: the root and every node
solve the lowered LP relaxation as it stands.  The two
guarantees a cut had to keep are guarantees of that relaxation and of
the search built on it, and these tests enforce them by exhaustive
enumeration on small integer boxes:

- no integer-feasible point is cut away: the search returns exactly
  the enumerated optimum on both LP backends, and reports
  infeasibility only when no integer point is feasible;
- the root bound is valid and never worse than the plain relaxation:
  both LP engines agree on it, it never exceeds the objective of any
  integer-feasible point, and the search never ends below it.
"""

import itertools
import random

import numpy as np
import pytest

from repro.milp.branch_and_bound import LP_BACKENDS, solve_branch_and_bound
from repro.milp.lowering import lower_model_sparse
from repro.milp.model import MILPModel, SolveStatus, VarType
from repro.milp.node_lp import solve_lp_linprog
from repro.milp.revised import solve_lp_sparse


def random_integer_model(seed: int) -> MILPModel:
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    model = MILPModel(f"int{seed}")
    xs = [
        model.add_variable(f"x{i}", VarType.INTEGER, lower=0, upper=rng.randint(1, 4))
        for i in range(n)
    ]
    for _ in range(rng.randint(1, 4)):
        expr = sum((rng.randint(-4, 6) * x for x in xs), start=0)
        model.add_constraint(expr <= rng.randint(0, 14))
    model.set_objective(sum((rng.randint(-5, 5) * x for x in xs), start=0))
    return model


def enumerate_feasible_points(model: MILPModel):
    boxes = [range(int(v.lower), int(v.upper) + 1) for v in model.variables]
    for point in itertools.product(*boxes):
        x = np.array(point, dtype=float)
        if model.check_feasible(x):
            yield x


class TestCutValidity:
    @pytest.mark.parametrize("seed", range(40))
    def test_root_cuts_never_exclude_integer_points(self, seed):
        model = random_integer_model(seed)
        objectives = [
            model.evaluate_objective(x) for x in enumerate_feasible_points(model)
        ]
        for lp_backend in LP_BACKENDS:
            solution = solve_branch_and_bound(model, lp_backend=lp_backend)
            if not objectives:
                assert solution.status is SolveStatus.INFEASIBLE, (seed, lp_backend)
                continue
            assert solution.status is SolveStatus.OPTIMAL, (seed, lp_backend)
            assert solution.objective == pytest.approx(min(objectives), abs=1e-7)
            assert solution.values is not None
            x = np.array([solution.values[v.name] for v in model.variables])
            assert model.check_feasible(x), (seed, lp_backend)
            assert model.evaluate_objective(x) == pytest.approx(
                solution.objective, abs=1e-7
            )

    @pytest.mark.parametrize("seed", range(40))
    def test_root_bound_never_worse_with_cuts(self, seed):
        model = random_integer_model(seed)
        arrays = lower_model_sparse(model)
        plain = solve_lp_sparse(arrays)
        if plain.status != "optimal":
            pytest.skip("relaxation not optimal")
        highs = solve_lp_linprog(arrays, arrays.lower, arrays.upper)
        assert highs.status == "optimal"
        assert highs.objective == pytest.approx(plain.objective, abs=1e-7)
        root_bound = plain.objective + arrays.objective_constant
        objectives = [
            model.evaluate_objective(x) for x in enumerate_feasible_points(model)
        ]
        for value in objectives:
            assert root_bound <= value + 1e-7, seed
        solution = solve_branch_and_bound(model)
        if not objectives:
            assert solution.status is SolveStatus.INFEASIBLE, seed
            return
        assert solution.status is SolveStatus.OPTIMAL, seed
        assert solution.objective >= root_bound - 1e-7, seed
