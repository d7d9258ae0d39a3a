"""Lowering a :class:`~repro.milp.model.MILPModel` to arrays.

Every solver pass (presolve, cuts, the branch-and-bound search, the
node LPs) works on the CSR form built by :func:`lower_model_sparse`::

    min  costs . x  (+ objective_constant)
    s.t. a_ub x <= b_ub
         a_eq x  = b_eq
         lower <= x <= upper
         x_j integral  for j in integral

``>=`` rows are negated into ``<=`` rows during lowering, so consumers
only ever see the two row families above.  The arrays are lowered
*once* per solve and shared by every node of the search tree; nodes
describe themselves as bound deltas against these shared arrays (see
:mod:`repro.milp.branch_and_bound`).

:func:`lower_model` and :class:`DenseArrays` are the dense reference
implementation of the same contract.  No module under ``src/repro``
calls them; the tests keep them as an independent lowering to compare
the CSR path and the revised simplex against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.milp.model import MILPModel, Sense
from repro.milp.sparse import CSRMatrix, SparseArrays


@dataclass
class DenseArrays:
    """The model lowered to dense arrays (test oracle, see module doc)."""

    costs: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integral: List[int]
    objective_constant: float

    @property
    def n(self) -> int:
        return self.costs.shape[0]


def lower_model(model: MILPModel) -> DenseArrays:
    """Densify *model* into a :class:`DenseArrays` instance.

    The reference lowering the tests compare :func:`lower_model_sparse`
    against; no module under ``src/repro`` calls it.
    """
    n = model.n_variables
    costs = np.zeros(n)
    for index, coefficient in model.objective.coefficients.items():
        costs[index] = coefficient
    ub_rows: List[np.ndarray] = []
    ub_rhs: List[float] = []
    eq_rows: List[np.ndarray] = []
    eq_rhs: List[float] = []
    for constraint in model.constraints:
        row = np.zeros(n)
        for index, coefficient in constraint.expr.coefficients.items():
            row[index] = coefficient
        if constraint.sense is Sense.LE:
            ub_rows.append(row)
            ub_rhs.append(constraint.rhs)
        elif constraint.sense is Sense.GE:
            ub_rows.append(-row)
            ub_rhs.append(-constraint.rhs)
        else:
            eq_rows.append(row)
            eq_rhs.append(constraint.rhs)
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])
    integral = [v.index for v in model.variables if v.var_type.is_integral]
    return DenseArrays(
        costs=costs,
        a_ub=np.array(ub_rows) if ub_rows else np.zeros((0, n)),
        b_ub=np.array(ub_rhs),
        a_eq=np.array(eq_rows) if eq_rows else np.zeros((0, n)),
        b_eq=np.array(eq_rhs),
        lower=lower,
        upper=upper,
        integral=integral,
        objective_constant=model.objective.constant,
    )


def lower_model_sparse(model: MILPModel) -> SparseArrays:
    """Lower *model* to CSR blocks without materialising dense rows.

    Deliberately an independent implementation from :func:`lower_model`
    (it never allocates an ``(m, n)`` array), so the equivalence
    property tests in ``tests/test_sparse_lowering.py`` compare two
    genuinely different code paths.  The contract is identical:
    constraint order is preserved within each block and ``>=`` rows are
    negated into ``<=`` rows.
    """
    n = model.n_variables
    costs = np.zeros(n)
    for index, coefficient in model.objective.coefficients.items():
        costs[index] = coefficient
    ub_rows: List[Dict[int, float]] = []
    ub_rhs: List[float] = []
    eq_rows: List[Dict[int, float]] = []
    eq_rhs: List[float] = []
    for constraint in model.constraints:
        coefficients = constraint.expr.coefficients
        if constraint.sense is Sense.LE:
            ub_rows.append(dict(coefficients))
            ub_rhs.append(constraint.rhs)
        elif constraint.sense is Sense.GE:
            ub_rows.append({j: -c for j, c in coefficients.items()})
            ub_rhs.append(-constraint.rhs)
        else:
            eq_rows.append(dict(coefficients))
            eq_rhs.append(constraint.rhs)
    return SparseArrays(
        costs=costs,
        a_ub=CSRMatrix.from_row_dicts(ub_rows, n),
        b_ub=np.asarray(ub_rhs, dtype=float),
        a_eq=CSRMatrix.from_row_dicts(eq_rows, n),
        b_eq=np.asarray(eq_rhs, dtype=float),
        lower=np.array([v.lower for v in model.variables]),
        upper=np.array([v.upper for v in model.variables]),
        integral=[v.index for v in model.variables if v.var_type.is_integral],
        objective_constant=model.objective.constant,
    )
