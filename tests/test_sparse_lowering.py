"""Property tests for the CSR sparse lowering (`repro.milp.sparse`).

Two independent lowering implementations exist on purpose:
:func:`repro.milp.lowering.lower_model` (dense, the original) and
:func:`repro.milp.lowering.lower_model_sparse` (CSR, never allocates an
``(m, n)`` array).  These tests pin them element-for-element equal on
randomized models, and add metamorphic checks that row / column
permutations of a model leave solve objectives unchanged.
"""

import random

import numpy as np
import pytest

from repro.milp.branch_and_bound import solve_branch_and_bound
from repro.milp.lowering import lower_model, lower_model_sparse
from repro.milp.model import MILPModel, SolveStatus, VarType
from repro.milp.sparse import CSRMatrix

from tests.test_differential_backends import random_grounded_milp


def random_model(seed: int) -> MILPModel:
    """A randomized model exercising lowering edge shapes."""
    rng = random.Random(seed)
    model = MILPModel(f"rand{seed}")
    n = rng.randint(1, 8)
    variables = []
    for i in range(n):
        var_type = rng.choice([VarType.REAL, VarType.INTEGER, VarType.BINARY])
        if var_type is VarType.BINARY:
            variables.append(model.add_variable(f"x{i}", var_type))
        else:
            lower = rng.choice([-10.0, 0.0, -float("inf")])
            upper = rng.choice([10.0, 25.0, float("inf")])
            variables.append(model.add_variable(f"x{i}", var_type, lower, upper))
    for _ in range(rng.randint(0, 6)):
        support = rng.sample(variables, rng.randint(1, len(variables)))
        expr = sum((rng.randint(-5, 5) * v for v in support), start=0)
        sense = rng.choice(["le", "ge", "eq"])
        rhs = rng.randint(-10, 10)
        if sense == "le":
            model.add_constraint(expr <= rhs)
        elif sense == "ge":
            model.add_constraint(expr >= rhs)
        else:
            model.add_constraint(expr == rhs)
    model.set_objective(sum((rng.randint(-3, 3) * v for v in variables), start=0))
    return model


def assert_lowerings_equal(model: MILPModel) -> None:
    dense = lower_model(model)
    sparse = lower_model_sparse(model)
    np.testing.assert_array_equal(sparse.costs, dense.costs)
    np.testing.assert_array_equal(sparse.a_ub.to_dense(), dense.a_ub)
    np.testing.assert_array_equal(sparse.b_ub, dense.b_ub)
    np.testing.assert_array_equal(sparse.a_eq.to_dense(), dense.a_eq)
    np.testing.assert_array_equal(sparse.b_eq, dense.b_eq)
    np.testing.assert_array_equal(sparse.lower, dense.lower)
    np.testing.assert_array_equal(sparse.upper, dense.upper)
    assert list(sparse.integral) == list(dense.integral)
    assert sparse.objective_constant == dense.objective_constant


class TestLoweringEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_models_lower_identically(self, seed):
        assert_lowerings_equal(random_model(seed))

    @pytest.mark.parametrize("seed", range(10))
    def test_grounded_milps_lower_identically(self, seed):
        assert_lowerings_equal(random_grounded_milp(seed))

    def test_empty_constraint_model(self):
        model = MILPModel("empty")
        model.add_variable("x", VarType.REAL, lower=0, upper=5)
        model.set_objective(0)
        assert_lowerings_equal(model)
        sparse = lower_model_sparse(model)
        assert sparse.a_ub.shape == (0, 1)
        assert sparse.a_eq.shape == (0, 1)

    def test_single_variable_model(self):
        model = MILPModel("single")
        x = model.add_variable("x", VarType.INTEGER, lower=0, upper=9)
        model.add_constraint(3 * x <= 7)
        model.add_constraint(x >= 1)
        model.set_objective(-x)
        assert_lowerings_equal(model)
        sparse = lower_model_sparse(model)
        # The >= row must arrive negated into the <= block.
        np.testing.assert_array_equal(sparse.a_ub.to_dense(), [[3.0], [-1.0]])
        np.testing.assert_array_equal(sparse.b_ub, [7.0, -1.0])

    def test_zero_coefficients_are_dropped_from_storage(self):
        matrix = CSRMatrix.from_row_dicts([{0: 0.0, 1: 2.0}, {2: 0.0}], 3)
        assert matrix.nnz == 1
        np.testing.assert_array_equal(
            matrix.to_dense(), [[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]]
        )


class TestCSRMatrixBehaviour:
    @pytest.mark.parametrize("seed", range(10))
    def test_matvec_rmatvec_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        m, n = rng.integers(1, 9), rng.integers(1, 9)
        dense = np.where(rng.random((m, n)) < 0.4, rng.normal(size=(m, n)), 0.0)
        matrix = CSRMatrix.from_dense(dense)
        x = rng.normal(size=n)
        y = rng.normal(size=m)
        np.testing.assert_allclose(matrix.matvec(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(matrix.rmatvec(y), dense.T @ y, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_csc_view_matches_columns(self, seed):
        rng = np.random.default_rng(seed + 100)
        m, n = rng.integers(1, 9), rng.integers(1, 9)
        dense = np.where(rng.random((m, n)) < 0.4, rng.normal(size=(m, n)), 0.0)
        csc = CSRMatrix.from_dense(dense).csc
        for j in range(n):
            rows, values = csc.column(j)
            expected = np.flatnonzero(dense[:, j])
            np.testing.assert_array_equal(rows, expected)
            np.testing.assert_allclose(values, dense[expected, j])


def permute_rows(model: MILPModel, seed: int) -> MILPModel:
    """The same model with its constraints re-ordered."""
    rng = random.Random(seed)
    order = list(range(len(model.constraints)))
    rng.shuffle(order)
    clone = MILPModel(f"{model.name}-rowperm")
    for v in model.variables:
        clone.add_variable(v.name, v.var_type, v.lower, v.upper)
    for i in order:
        constraint = model.constraints[i]
        clone.add_constraint(constraint)
    clone.set_objective(model.objective)
    return clone


def permute_columns(model: MILPModel, seed: int) -> MILPModel:
    """The same model with its variables re-indexed."""
    rng = random.Random(seed)
    order = list(range(model.n_variables))
    rng.shuffle(order)
    clone = MILPModel(f"{model.name}-colperm")
    mapping = {}
    for new_index, old_index in enumerate(order):
        v = model.variables[old_index]
        mapping[old_index] = clone.add_variable(v.name, v.var_type, v.lower, v.upper)
    from repro.milp.model import LinExpr

    def translate(expr):
        out = LinExpr()
        for index, coefficient in expr.coefficients.items():
            out.add_term(mapping[index], coefficient)
        out.constant = expr.constant
        return out

    for constraint in model.constraints:
        expr = translate(constraint.expr)
        from repro.milp.model import Sense

        if constraint.sense is Sense.LE:
            clone.add_constraint(expr <= constraint.rhs)
        elif constraint.sense is Sense.GE:
            clone.add_constraint(expr >= constraint.rhs)
        else:
            clone.add_constraint(expr == constraint.rhs)
    clone.set_objective(translate(model.objective))
    return clone


class TestPermutationMetamorphic:
    @pytest.mark.parametrize("seed", range(8))
    def test_row_permutation_preserves_objective(self, seed):
        model = random_grounded_milp(seed)
        base = solve_branch_and_bound(model)
        permuted = solve_branch_and_bound(permute_rows(model, seed + 1))
        assert base.status is permuted.status
        if base.status is SolveStatus.OPTIMAL:
            assert permuted.objective == pytest.approx(base.objective, abs=1e-6)

    @pytest.mark.parametrize("seed", range(8))
    def test_column_permutation_preserves_objective(self, seed):
        model = random_grounded_milp(seed)
        base = solve_branch_and_bound(model)
        permuted = solve_branch_and_bound(permute_columns(model, seed + 1))
        assert base.status is permuted.status
        if base.status is SolveStatus.OPTIMAL:
            assert permuted.objective == pytest.approx(base.objective, abs=1e-6)
