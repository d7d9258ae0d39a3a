"""Adapter over ``scipy.optimize.milp`` (the HiGHS solver).

This is the production backend: fast, numerically robust, and entirely
independent from the from-scratch branch-and-bound in
:mod:`repro.milp.branch_and_bound`, which makes it a cross-check oracle
in the test suite.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
from typing import Iterator, List, Optional

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.milp.model import MILPModel, Sense, Solution, SolveStatus, VarType


@functools.cache
def _c_fflush():
    """The C library's ``fflush``, typed (looked up once per process)."""
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes = [ctypes.c_void_p]
    fflush.restype = ctypes.c_int
    return fflush


def _flush_stdout() -> None:
    if sys.stdout is not None:
        sys.stdout.flush()


def _stdout_to_stderr() -> Optional[int]:
    """Point fd 1 at fd 2.  Returns a duplicate of the old fd 1, or
    None when fd 1 or fd 2 is closed and nothing moved."""
    try:
        saved = os.dup(1)
    except OSError:
        return None
    try:
        os.dup2(2, 1)
    except OSError:
        os.close(saved)
        return None
    return saved


@contextlib.contextmanager
def native_output_to_stderr() -> Iterator[None]:
    """Point fd 1 at standard error while native solvers run.

    scipy's HiGHS prints debug lines straight to fd 1 from inside
    ``scipy.optimize.milp`` on some MILP solves, past ``sys.stdout``.
    The CLI commands and :class:`~repro.repair.service.RepairService`
    solve inside this block, so standard output carries only their own
    result lines.  On exit fd 1 points where it pointed on entry, and
    the duplicate that remembered it is closed.  In a process with fd 1
    or fd 2 closed the block moves nothing.  Not thread-safe: fd 1
    belongs to the whole process, so other threads' standard output
    goes to standard error while the block runs.
    """
    fflush = _c_fflush()
    _flush_stdout()
    saved = _stdout_to_stderr()
    if saved is None:
        yield
        return
    try:
        yield
    finally:
        try:
            _flush_stdout()
            fflush(None)  # C stdio buffers, before fd 1 moves back
            os.dup2(saved, 1)
        finally:
            os.close(saved)


def solve_scipy(model: MILPModel, *, time_limit: float = 300.0) -> Solution:
    """Solve *model* with ``scipy.optimize.milp``."""
    n = model.n_variables
    if n == 0:
        # A variable-free model is trivially optimal at its constant.
        return Solution(
            SolveStatus.OPTIMAL, objective=model.objective.constant, values={}
        )
    costs = np.zeros(n)
    for index, coefficient in model.objective.coefficients.items():
        costs[index] = coefficient

    integrality = np.zeros(n)
    for variable in model.variables:
        if variable.var_type.is_integral:
            integrality[variable.index] = 1

    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])

    # The constraint block goes to HiGHS as a scipy.sparse CSR matrix
    # built straight from the model's coefficient dicts: the grounded
    # DART instances are ~3 nonzeros per row, so densifying them both
    # wasted memory and made HiGHS re-sparsify on entry.  An empty
    # (0, n) block is skipped outright instead of being passed as a
    # degenerate dense array.
    constraints: List[LinearConstraint] = []
    if model.constraints:
        from scipy.sparse import csr_matrix

        row_ids: List[int] = []
        col_ids: List[int] = []
        data: List[float] = []
        lo = np.zeros(model.n_constraints)
        hi = np.zeros(model.n_constraints)
        for i, constraint in enumerate(model.constraints):
            for index, coefficient in sorted(constraint.expr.coefficients.items()):
                row_ids.append(i)
                col_ids.append(index)
                data.append(float(coefficient))
            if constraint.sense is Sense.LE:
                lo[i], hi[i] = -np.inf, constraint.rhs
            elif constraint.sense is Sense.GE:
                lo[i], hi[i] = constraint.rhs, np.inf
            else:
                lo[i] = hi[i] = constraint.rhs
        matrix = csr_matrix(
            (data, (row_ids, col_ids)), shape=(model.n_constraints, n)
        )
        constraints.append(LinearConstraint(matrix, lo, hi))

    result = milp(
        c=costs,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lower, upper),
        options={"time_limit": time_limit},
    )
    if result.status in (2, 4):
        # Some HiGHS builds mis-handle presolve (status 4 "solve error",
        # and occasionally a spurious status 2 "infeasible") on models
        # mixing integrality with wide bounds; re-run without presolve
        # to confirm or correct the verdict.
        result = milp(
            c=costs,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lower, upper),
            options={"time_limit": time_limit, "presolve": False},
        )

    stats = {"nodes": float(getattr(result, "mip_node_count", 0) or 0)}
    if result.status == 0 and result.x is not None:
        x = np.asarray(result.x, dtype=float)
        # Snap integral variables: HiGHS returns values within tolerance.
        for variable in model.variables:
            if variable.var_type.is_integral:
                x[variable.index] = round(x[variable.index])
        return Solution(
            SolveStatus.OPTIMAL,
            objective=float(costs @ x) + model.objective.constant,
            values=model.solution_values(x),
            stats=stats,
        )
    if result.status == 2:
        return Solution(SolveStatus.INFEASIBLE, stats=stats)
    if result.status == 3:
        return Solution(SolveStatus.UNBOUNDED, stats=stats)
    if result.status == 1:
        # Time/iteration limit.  When HiGHS hands back an incumbent it
        # is a feasible point with a certified dual bound: return the
        # anytime (feasible_gap) solution rather than a bare failure.
        if result.x is not None:
            x = np.asarray(result.x, dtype=float)
            for variable in model.variables:
                if variable.var_type.is_integral:
                    x[variable.index] = round(x[variable.index])
            if model.check_feasible(x):
                objective = float(costs @ x) + model.objective.constant
                dual_bound = getattr(result, "mip_dual_bound", None)
                if dual_bound is not None and np.isfinite(dual_bound):
                    bound = float(dual_bound) + model.objective.constant
                else:
                    bound = -np.inf
                gap = max(0.0, objective - bound)
                stats["gap_absolute"] = gap
                stats["gap_relative"] = gap / max(1.0, abs(objective))
                stats["best_bound"] = bound
                stats["deadline_expired"] = 1.0
                return Solution(
                    SolveStatus.FEASIBLE_GAP,
                    objective=objective,
                    values=model.solution_values(x),
                    stats=stats,
                )
        stats["deadline_expired"] = 1.0
        return Solution(SolveStatus.ITERATION_LIMIT, stats=stats)
    return Solution(SolveStatus.ERROR, stats=stats)
