"""Persistent HiGHS node relaxations for branch-and-bound.

Profiling the PR 2 solver showed the per-node cost of the ``scipy`` LP
backend is dominated not by HiGHS itself but by ``linprog``'s wrapper:
option validation, input cleaning and matrix conversion ran ~4x the
actual simplex time on e4-scale nodes, and every node paid it again
from scratch.

:class:`PersistentNodeLP` keeps **one** HiGHS instance alive for the
whole search tree, built directly against scipy's private
``_highspy`` bindings (the same binary ``linprog`` drives):

- the model is passed once, column-wise sparse
  (``MatrixFormat.kColwise`` straight from our CSC view -- no dense
  round-trip);
- a node solve is ``changeColsBounds`` + ``run``: HiGHS keeps the
  previous optimal basis, so a one-bound branching change re-solves in
  a handful of dual pivots (measured ~0.02 ms vs ~3 ms through
  ``linprog``).

The private API is version-fragile, so everything is feature-detected:
when ``_highspy`` internals are missing the backend transparently
falls back to sparse ``linprog`` calls (:func:`solve_lp_linprog`),
which is also what the satellite fix to :mod:`repro.milp.scipy_backend`
uses.
"""

from __future__ import annotations

import math

import numpy as np

from repro.milp.revised import vstack_csr
from repro.milp.simplex import LPResult
from repro.milp.sparse import SparseArrays

INF = math.inf

try:  # pragma: no cover - exercised implicitly on import
    from scipy.optimize._highspy import _core as _highs_core

    _PERSISTENT_OK = all(
        hasattr(_highs_core, name)
        for name in ("_Highs", "HighsLp", "MatrixFormat", "HighsModelStatus")
    )
except Exception:  # pragma: no cover - older/newer scipy layouts
    _highs_core = None
    _PERSISTENT_OK = False


def persistent_available() -> bool:
    """Whether the in-process HiGHS bindings are usable."""
    return _PERSISTENT_OK


def solve_lp_linprog(
    arrays: SparseArrays, lower: np.ndarray, upper: np.ndarray
) -> LPResult:
    """One cold LP solve through ``linprog`` with ``scipy.sparse`` blocks."""
    from scipy.optimize import linprog

    result = linprog(
        arrays.costs,
        A_ub=arrays.a_ub.to_scipy() if arrays.m_ub else None,
        b_ub=arrays.b_ub if arrays.m_ub else None,
        A_eq=arrays.a_eq.to_scipy() if arrays.m_eq else None,
        b_eq=arrays.b_eq if arrays.m_eq else None,
        bounds=np.column_stack([lower, upper]),
        method="highs",
    )
    if result.status == 0:
        return LPResult(
            status="optimal",
            x=np.asarray(result.x),
            objective=float(result.fun),
            iterations=int(result.nit or 0),
        )
    if result.status == 2:
        return LPResult(status="infeasible")
    if result.status == 3:
        return LPResult(status="unbounded")
    return LPResult(status="iteration_limit")


class PersistentNodeLP:
    """One HiGHS instance reused for every node of a search tree."""

    def __init__(self, arrays: SparseArrays) -> None:
        if not _PERSISTENT_OK:
            raise RuntimeError("persistent HiGHS bindings unavailable")
        self.arrays = arrays
        n = arrays.n
        self._n = n
        self._all_columns = np.arange(n, dtype=np.int32)
        self.solves = 0

        core = _highs_core
        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        # Node LPs are tiny and re-solved thousands of times: HiGHS
        # presolve would cost more than it saves and would discard the
        # warm basis between runs.
        highs.setOptionValue("presolve", "off")

        combined = vstack_csr(arrays.a_ub, arrays.a_eq)
        csc = combined.csc
        m = combined.shape[0]
        lp = core.HighsLp()
        lp.num_col_ = n
        lp.num_row_ = m
        lp.col_cost_ = np.asarray(arrays.costs, dtype=float)
        lp.offset_ = 0.0
        lp.col_lower_ = np.asarray(arrays.lower, dtype=float)
        lp.col_upper_ = np.asarray(arrays.upper, dtype=float)
        row_lower = np.concatenate(
            [np.full(arrays.m_ub, -INF), np.asarray(arrays.b_eq, dtype=float)]
        )
        row_upper = np.concatenate(
            [np.asarray(arrays.b_ub, dtype=float), np.asarray(arrays.b_eq, dtype=float)]
        )
        lp.row_lower_ = row_lower
        lp.row_upper_ = row_upper
        lp.a_matrix_.format_ = core.MatrixFormat.kColwise
        lp.a_matrix_.start_ = csc.indptr.astype(np.int32)
        lp.a_matrix_.index_ = csc.rows.astype(np.int32)
        lp.a_matrix_.value_ = np.asarray(csc.data, dtype=float)
        status = highs.passModel(lp)
        if status != core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS rejected the model: {status}")
        self._highs = highs
        self._core = core

    def solve(self, lower: np.ndarray, upper: np.ndarray) -> LPResult:
        """Re-solve under a new bound box.

        The previous basis is retained by HiGHS, so a single-bound
        change from the last solve costs a few dual pivots.
        """
        highs = self._highs
        core = self._core
        highs.changeColsBounds(
            self._n,
            self._all_columns,
            np.asarray(lower, dtype=float),
            np.asarray(upper, dtype=float),
        )
        highs.run()
        self.solves += 1
        model_status = highs.getModelStatus()
        if model_status == core.HighsModelStatus.kOptimal:
            solution = highs.getSolution()
            info = highs.getInfo()
            x = np.asarray(solution.col_value, dtype=float)
            return LPResult(
                status="optimal",
                x=x,
                objective=float(info.objective_function_value),
                iterations=int(info.simplex_iteration_count),
            )
        if model_status == core.HighsModelStatus.kInfeasible:
            return LPResult(status="infeasible")
        if model_status in (
            core.HighsModelStatus.kUnbounded,
            core.HighsModelStatus.kUnboundedOrInfeasible,
        ):
            return LPResult(status="unbounded")
        return LPResult(status="iteration_limit")
