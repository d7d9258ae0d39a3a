"""Tests for the warm-started node LPs of the branch-and-bound tree.

The warm-start tree must be an *invisible* optimisation: every child
LP it solves from the parent basis has to agree exactly (status and
objective) with a cold :func:`repro.milp.simplex.solve_lp` call on the
same bounds.  The dense simplex and the dense lowering are independent
of the revised simplex and the CSR lowering the tree runs on.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.milp.branch_and_bound import solve_branch_and_bound
from repro.milp.lowering import DenseArrays, lower_model, lower_model_sparse
from repro.milp.model import MILPModel, SolveStatus, VarType
from repro.milp.simplex import solve_lp
from repro.milp.warmstart import SparseWarmStartTree

from tests._seeds import derived_seeds, describe_seed
from tests.test_differential_backends import random_grounded_milp

SEEDS = derived_seeds(20)


def _cold(arrays: DenseArrays, lower, upper):
    return solve_lp(
        arrays.costs,
        a_ub=arrays.a_ub,
        b_ub=arrays.b_ub,
        a_eq=arrays.a_eq,
        b_eq=arrays.b_eq,
        lower=lower,
        upper=upper,
    )


class TestWarmStartAgreement:
    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_root_matches_cold_solve(self, seed):
        model = random_grounded_milp(seed)
        arrays = lower_model(model)
        tree = SparseWarmStartTree(lower_model_sparse(model))
        warm, state = tree.solve_root()
        cold = _cold(arrays, arrays.lower, arrays.upper)
        assert warm.status == cold.status, describe_seed(seed)
        if cold.status == "optimal":
            assert state is not None
            assert warm.objective == pytest.approx(
                cold.objective, abs=1e-6
            ), describe_seed(seed)

    @pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
    def test_children_match_cold_solves(self, seed):
        """Random single-bound branchings from the root agree with cold.

        A last branching past the variable's other bound leaves an
        empty box: the basis install refuses it, and the child must
        report infeasible with no state, as the cold solve does.
        """
        model = random_grounded_milp(seed)
        arrays = lower_model(model)
        tree = SparseWarmStartTree(lower_model_sparse(model))
        root, state = tree.solve_root()
        if state is None:
            return
        rng = random.Random(seed)
        branchings = []
        for _ in range(8):
            index = rng.choice(arrays.integral)
            value = root.x[index]
            if rng.random() < 0.5:
                bound = float(math.floor(value))
                if bound >= arrays.lower[index]:
                    branchings.append((index, "upper", bound))
            else:
                bound = float(math.ceil(value))
                if bound <= arrays.upper[index]:
                    branchings.append((index, "lower", bound))
        crossed = next(
            j for j in arrays.integral if math.isfinite(arrays.upper[j])
        )
        branchings.append((crossed, "lower", float(arrays.upper[crossed]) + 1.0))
        for index, side, bound in branchings:
            lower, upper = arrays.lower.copy(), arrays.upper.copy()
            if side == "upper":
                upper[index] = bound
            else:
                lower[index] = bound
            warm, child_state = tree.solve_child(state, index, side, bound)
            cold = _cold(arrays, lower, upper)
            assert warm.status == cold.status, describe_seed(seed)
            if cold.status == "optimal":
                assert child_state is not None
                assert warm.objective == pytest.approx(
                    cold.objective, abs=1e-6
                ), describe_seed(seed)
            else:
                assert child_state is None, describe_seed(seed)
        assert cold.status == "infeasible", describe_seed(seed)

    def test_unbounded_variables_supported(self):
        # The tree handles bounds implicitly, so a variable without an
        # upper bound needs no special structure.
        model = MILPModel("free")
        x = model.add_variable("x", VarType.INTEGER, lower=0)
        y = model.add_variable("y", VarType.REAL, lower=0)
        model.add_constraint(2 * x + y >= 3)
        model.set_objective(3 * x + 2 * y)
        arrays = lower_model(model)
        assert np.isinf(arrays.upper).all()
        tree = SparseWarmStartTree(lower_model_sparse(model))
        root, state = tree.solve_root()
        assert root.status == "optimal" and state is not None
        assert root.objective == pytest.approx(4.5)
        child, _ = tree.solve_child(state, 0, "lower", 2.0)
        cold = _cold(arrays, np.array([2.0, 0.0]), arrays.upper)
        assert child.status == cold.status == "optimal"
        assert child.objective == pytest.approx(cold.objective, abs=1e-6)


class TestWarmStartInTheSearch:
    @pytest.mark.parametrize("seed", SEEDS[:10], ids=[f"seed{s}" for s in SEEDS[:10]])
    def test_warm_and_cold_searches_agree(self, seed):
        model = random_grounded_milp(seed)
        warm = solve_branch_and_bound(
            model, lp_backend="simplex", warm_start=True, presolve=False
        )
        cold = solve_branch_and_bound(
            model, lp_backend="simplex", warm_start=False, presolve=False
        )
        assert warm.status is cold.status, describe_seed(seed)
        if cold.status is SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(
                cold.objective, abs=1e-6
            ), describe_seed(seed)

    def test_warm_start_hits_are_counted(self):
        # A model that needs branching so child solves actually happen.
        for seed in SEEDS:
            model = random_grounded_milp(seed)
            solution = solve_branch_and_bound(
                model, lp_backend="simplex", warm_start=True, presolve=False
            )
            if solution.stats.get("nodes", 0) > 1:
                assert solution.stats["warm_start_hits"] > 0
                return
        pytest.skip("no seed produced a branching search")
