"""Differential tests for the sparse revised simplex (`repro.milp.revised`).

The dense tableau simplex in `repro.milp.simplex` is the trusted
baseline (it is itself differential-tested against HiGHS); every verdict
and objective of the revised engine must agree with it, across pricing
rules, warm restarts, and repeated solves on one engine instance.
"""

import random

import numpy as np
import pytest

from repro.milp.lowering import lower_model_sparse
from repro.milp.revised import (
    PRICING_STEEPEST,
    RevisedSimplex,
    solve_lp_sparse,
)
from repro.milp.simplex import (
    PRICING_BLAND,
    PRICING_DANTZIG,
    solve_lp,
)
from repro.milp.sparse import CSRMatrix, SparseArrays


def random_lp(seed: int) -> SparseArrays:
    """A random bounded-variable LP, occasionally infeasible/unbounded."""
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    m_ub = rng.randint(0, 5)
    m_eq = rng.randint(0, 2)
    costs = np.array([rng.randint(-5, 5) for _ in range(n)], dtype=float)
    lower = np.zeros(n)
    upper = np.full(n, float(rng.randint(2, 12)))
    for j in range(n):
        choice = rng.random()
        if choice < 0.15:
            lower[j] = -float(rng.randint(1, 8))
        elif choice < 0.25:
            lower[j] = -np.inf
        if rng.random() < 0.15:
            upper[j] = np.inf

    def random_row():
        support = rng.sample(range(n), rng.randint(1, n))
        return {j: float(rng.randint(-4, 4)) for j in support}

    ub_rows = [random_row() for _ in range(m_ub)]
    eq_rows = [random_row() for _ in range(m_eq)]
    return SparseArrays(
        costs=costs,
        a_ub=CSRMatrix.from_row_dicts(ub_rows, n),
        b_ub=np.array([float(rng.randint(-6, 12)) for _ in range(m_ub)]),
        a_eq=CSRMatrix.from_row_dicts(eq_rows, n),
        b_eq=np.array([float(rng.randint(-4, 8)) for _ in range(m_eq)]),
        lower=lower,
        upper=upper,
        integral=[],
        objective_constant=0.0,
    )


def dense_reference(arrays, lower=None, upper=None):
    return solve_lp(
        arrays.costs,
        a_ub=arrays.a_ub.to_dense(),
        b_ub=arrays.b_ub,
        a_eq=arrays.a_eq.to_dense(),
        b_eq=arrays.b_eq,
        lower=arrays.lower if lower is None else lower,
        upper=arrays.upper if upper is None else upper,
    )


class TestColdSolves:
    @pytest.mark.parametrize("pricing", [PRICING_DANTZIG, PRICING_STEEPEST, PRICING_BLAND])
    @pytest.mark.parametrize("seed", range(40))
    def test_agrees_with_dense_simplex(self, seed, pricing):
        arrays = random_lp(seed)
        reference = dense_reference(arrays)
        result = solve_lp_sparse(arrays, pricing=pricing)
        assert result.status == reference.status, seed
        if reference.status == "optimal":
            assert result.objective == pytest.approx(
                reference.objective, abs=1e-6
            ), seed
            # The reported point must actually be feasible and achieve
            # the objective.
            x = result.x
            assert np.all(x >= arrays.lower - 1e-7)
            assert np.all(x <= arrays.upper + 1e-7)
            if arrays.m_ub:
                assert np.all(arrays.a_ub.matvec(x) <= arrays.b_ub + 1e-6)
            if arrays.m_eq:
                np.testing.assert_allclose(
                    arrays.a_eq.matvec(x), arrays.b_eq, atol=1e-6
                )

    def test_repeat_solves_on_one_engine(self):
        # A second cold solve must not inherit pinned artificial bounds
        # from the first (regression: stale phase-1 state).
        arrays = random_lp(11)
        engine = RevisedSimplex(arrays)
        first = engine.solve()
        second = engine.solve()
        assert first.status == second.status
        if first.status == "optimal":
            assert second.objective == pytest.approx(first.objective, abs=1e-9)

    def test_fixed_box_infeasible_when_bounds_cross(self):
        arrays = random_lp(3)
        lower = arrays.lower.copy()
        upper = arrays.upper.copy()
        lower[0], upper[0] = 2.0, 1.0
        assert solve_lp_sparse(arrays, lower, upper).status == "infeasible"


class TestWarmRestarts:
    @pytest.mark.parametrize("seed", range(25))
    def test_install_and_dual_resolve_agree_with_cold(self, seed):
        arrays = random_lp(seed + 500)
        engine = RevisedSimplex(arrays)
        root = engine.solve()
        if root.status != "optimal":
            pytest.skip("root not optimal for this seed")
        snapshot = engine.snapshot()
        rng = random.Random(seed)
        n = arrays.n
        for _trial in range(4):
            lower = arrays.lower.copy()
            upper = arrays.upper.copy()
            j = rng.randrange(n)
            pivot_value = root.x[j]
            if rng.random() < 0.5:
                upper[j] = min(upper[j], np.floor(pivot_value))
            else:
                lower[j] = max(lower[j], np.ceil(pivot_value))
            if np.any(lower > upper):
                continue
            reference = dense_reference(arrays, lower, upper)
            if not engine.install(snapshot, lower, upper):
                assert reference.status == "infeasible"
                continue
            warm = engine.resolve_dual(iteration_budget=10_000)
            assert warm.status == reference.status, seed
            if reference.status == "optimal":
                assert warm.objective == pytest.approx(
                    reference.objective, abs=1e-6
                ), seed

