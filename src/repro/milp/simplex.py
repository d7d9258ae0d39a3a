"""A dense two-phase primal simplex: the reference LP solver.

No module under ``src/repro`` calls :func:`solve_lp`.  The search runs
on the sparse revised simplex of :mod:`repro.milp.revised`; this solver
is kept as the independent oracle the tests compare it against.  It is
written against numpy only and trades speed for transparency: a full
tableau, two phases (artificial variables first, real objective
second), and Dantzig pricing with a Bland's-rule fallback that engages
when a long degenerate pivot run suggests cycling.

:class:`LPResult` and the tolerance and pricing constants defined here
are shared by the whole LP layer.

The entry point :func:`solve_lp` accepts the problem in the general
bounded form::

    min  c . x
    s.t. A_ub x <= b_ub
         A_eq x  = b_eq
         lower <= x <= upper   (entries may be +/- inf)

and handles the bound transformations internally (shift for finite
lower bounds, reflection for upper-bounded-only variables, splitting
for free variables).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

INF = math.inf

#: Pivot tolerance: entries smaller than this are treated as zero.
PIVOT_TOL = 1e-9
#: Optimality tolerance on reduced costs.
COST_TOL = 1e-9
#: Feasibility tolerance on phase-1 objective.
FEAS_TOL = 1e-7

#: Pricing rules accepted by :func:`solve_lp`.
PRICING_DANTZIG = "dantzig"
PRICING_BLAND = "bland"


@dataclass
class LPResult:
    """Outcome of an LP solve."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None
    iterations: int = 0
    #: Largest RHS infeasibility drift observed during pivoting that
    #: exceeded ``FEAS_TOL`` (0.0 when the solve stayed numerically
    #: clean).  Values within ``FEAS_TOL`` of zero are clamped as
    #: harmless elimination noise; anything larger is surfaced here
    #: instead of being silently masked.
    rhs_violation: float = 0.0

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def numerically_clean(self) -> bool:
        """No infeasibility drift beyond ``FEAS_TOL`` was observed.

        The numerics governor treats an unclean LP as a reason to
        distrust (and re-certify) everything derived from its basis.
        """
        return self.rhs_violation == 0.0


class _Tableau:
    """The working tableau ``[B^-1 A | B^-1 b]`` plus the basis list."""

    def __init__(self, matrix: np.ndarray, rhs: np.ndarray, basis: List[int]) -> None:
        self.matrix = matrix  # m x n
        self.rhs = rhs  # m
        self.basis = basis  # m basis column indices
        self.iterations = 0
        self.rhs_violation = 0.0

    def pivot(self, row: int, column: int) -> None:
        pivot_value = self.matrix[row, column]
        self.matrix[row] /= pivot_value
        self.rhs[row] /= pivot_value
        column_values = self.matrix[:, column].copy()
        column_values[row] = 0.0
        mask = np.abs(column_values) > PIVOT_TOL
        if mask.any():
            self.matrix[mask] -= np.outer(column_values[mask], self.matrix[row])
            self.rhs[mask] -= column_values[mask] * self.rhs[row]
        # Clamp only noise-sized negatives; a larger negative RHS is
        # genuine infeasibility drift and must stay visible (it is
        # surfaced through LPResult.rhs_violation).
        noise = (self.rhs < 0.0) & (self.rhs > -FEAS_TOL)
        if noise.any():
            self.rhs[noise] = 0.0
        worst = float(self.rhs.min()) if self.rhs.size else 0.0
        if worst < -FEAS_TOL:
            self.rhs_violation = max(self.rhs_violation, -worst)
        self.basis[row] = column
        self.iterations += 1


def _run_simplex(
    tableau: _Tableau,
    costs: np.ndarray,
    allowed: np.ndarray,
    max_iterations: int,
    pricing: str = PRICING_DANTZIG,
) -> str:
    """Pivot until optimal / unbounded / iteration limit.

    *allowed* masks columns permitted to enter the basis (phase 2 bars
    the artificial columns).  Dantzig pricing (most negative reduced
    cost) by default; a run of degenerate pivots longer than the cycle
    threshold switches to Bland's rule, which guarantees termination in
    exact arithmetic.  ``pricing="bland"`` uses Bland's rule throughout.
    """
    m, n = tableau.matrix.shape
    use_bland = pricing == PRICING_BLAND
    cycle_threshold = 50 + 2 * (m + n)
    degenerate_run = 0
    while tableau.iterations < max_iterations:
        basis_costs = costs[tableau.basis]
        # Reduced costs r_j = c_j - cB . T[:, j] for all columns at once.
        reduced = costs - basis_costs @ tableau.matrix
        eligible = allowed & (reduced < -COST_TOL)
        if not eligible.any():
            return "optimal"
        if use_bland:
            entering = int(np.argmax(eligible))  # smallest eligible index
        else:
            entering = int(np.argmin(np.where(eligible, reduced, 0.0)))
        pivot_column = tableau.matrix[:, entering]
        positive = pivot_column > PIVOT_TOL
        if not positive.any():
            return "unbounded"
        ratios = np.full(m, INF)
        ratios[positive] = tableau.rhs[positive] / pivot_column[positive]
        best_ratio = float(ratios.min())
        # Break ratio ties on the smallest basis variable (the
        # Bland-style tie-break) so degenerate ties cannot ping-pong.
        tied = np.flatnonzero(ratios <= best_ratio + PIVOT_TOL)
        leaving_row = int(min(tied, key=lambda r: tableau.basis[r]))
        objective_before = float(basis_costs @ tableau.rhs)
        tableau.pivot(leaving_row, entering)
        if not use_bland:
            objective_after = float(costs[tableau.basis] @ tableau.rhs)
            if objective_after >= objective_before - 1e-12:
                degenerate_run += 1
                if degenerate_run > cycle_threshold:
                    use_bland = True  # probable cycling: go anti-cycling
            else:
                degenerate_run = 0
    return "iteration_limit"


@dataclass
class _BoundTransform:
    """How one original variable maps into the standardised variables."""

    kind: str  # "shift" | "reflect" | "split"
    offset: float  # l for shift, u for reflect, 0 for split
    primary: int  # standardised column index
    secondary: int = -1  # second column for "split"


def solve_lp(
    costs: Sequence[float],
    a_ub: Optional[np.ndarray] = None,
    b_ub: Optional[Sequence[float]] = None,
    a_eq: Optional[np.ndarray] = None,
    b_eq: Optional[Sequence[float]] = None,
    lower: Optional[Sequence[float]] = None,
    upper: Optional[Sequence[float]] = None,
    max_iterations: int = 50_000,
    pricing: str = PRICING_DANTZIG,
) -> LPResult:
    """Solve the bounded-form LP described in the module docstring.

    ``pricing`` selects the entering-column rule: ``"dantzig"`` (the
    default; falls back to Bland's rule on suspected cycling) or
    ``"bland"`` (anti-cycling throughout, the pre-overhaul behaviour).
    """
    if pricing not in (PRICING_DANTZIG, PRICING_BLAND):
        raise ValueError(
            f"unknown pricing rule {pricing!r}; choose "
            f"{PRICING_DANTZIG!r} or {PRICING_BLAND!r}"
        )
    c = np.asarray(costs, dtype=float)
    n_original = c.shape[0]
    a_ub = np.zeros((0, n_original)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n_original)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    lo = np.full(n_original, -INF) if lower is None else np.asarray(lower, dtype=float)
    hi = np.full(n_original, INF) if upper is None else np.asarray(upper, dtype=float)

    if a_ub.shape != (b_ub.shape[0], n_original) or a_eq.shape != (
        b_eq.shape[0],
        n_original,
    ):
        raise ValueError("constraint matrix shapes do not match")
    if np.any(lo > hi):
        return LPResult(status="infeasible")

    # ------------------------------------------------------------------
    # Standardise variables to x' >= 0.
    # ------------------------------------------------------------------
    transforms: List[_BoundTransform] = []
    n_standard = 0
    extra_ub_rows: List[Tuple[int, float]] = []  # (std column, bound) rows x' <= B
    for j in range(n_original):
        if lo[j] == -INF and hi[j] == INF:
            transforms.append(_BoundTransform("split", 0.0, n_standard, n_standard + 1))
            n_standard += 2
        elif lo[j] == -INF:
            # x = u - x''  with x'' >= 0
            transforms.append(_BoundTransform("reflect", hi[j], n_standard))
            n_standard += 1
        else:
            # x = l + x'  with x' >= 0 (and x' <= u - l if u finite)
            transforms.append(_BoundTransform("shift", lo[j], n_standard))
            if hi[j] != INF:
                extra_ub_rows.append((n_standard, hi[j] - lo[j]))
            n_standard += 1

    def standardise_matrix(matrix: np.ndarray, rhs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Rewrite rows over original vars into rows over standard vars."""
        rows = matrix.shape[0]
        out = np.zeros((rows, n_standard))
        adjusted = rhs.astype(float).copy()
        for j, transform in enumerate(transforms):
            column = matrix[:, j]
            if transform.kind == "shift":
                out[:, transform.primary] += column
                adjusted -= column * transform.offset
            elif transform.kind == "reflect":
                out[:, transform.primary] -= column
                adjusted -= column * transform.offset
            else:  # split
                out[:, transform.primary] += column
                out[:, transform.secondary] -= column
        return out, adjusted

    std_ub, rhs_ub = standardise_matrix(a_ub, b_ub)
    std_eq, rhs_eq = standardise_matrix(a_eq, b_eq)

    if extra_ub_rows:
        bound_matrix = np.zeros((len(extra_ub_rows), n_standard))
        bound_rhs = np.zeros(len(extra_ub_rows))
        for row, (column, bound) in enumerate(extra_ub_rows):
            bound_matrix[row, column] = 1.0
            bound_rhs[row] = bound
        std_ub = np.vstack([std_ub, bound_matrix])
        rhs_ub = np.concatenate([rhs_ub, bound_rhs])

    # Standardised costs and objective offset.
    std_costs = np.zeros(n_standard)
    objective_offset = 0.0
    for j, transform in enumerate(transforms):
        if transform.kind == "shift":
            std_costs[transform.primary] += c[j]
            objective_offset += c[j] * transform.offset
        elif transform.kind == "reflect":
            std_costs[transform.primary] -= c[j]
            objective_offset += c[j] * transform.offset
        else:
            std_costs[transform.primary] += c[j]
            std_costs[transform.secondary] -= c[j]

    # ------------------------------------------------------------------
    # Assemble the phase-1 tableau: slacks for <=, artificials for = and
    # for <= rows whose RHS had to be negated.
    # ------------------------------------------------------------------
    m_ub = std_ub.shape[0]
    m_eq = std_eq.shape[0]
    m = m_ub + m_eq

    rows: List[np.ndarray] = []
    rhs_values: List[float] = []
    slack_needed: List[int] = []  # sign of slack per row (0 for eq rows)
    for i in range(m_ub):
        row, value = std_ub[i], rhs_ub[i]
        if value < 0:
            # Negate: -row >= -value  ==> surplus slack (coefficient -1)
            rows.append(-row)
            rhs_values.append(-value)
            slack_needed.append(-1)
        else:
            rows.append(row)
            rhs_values.append(value)
            slack_needed.append(+1)
    for i in range(m_eq):
        row, value = std_eq[i], rhs_eq[i]
        if value < 0:
            rows.append(-row)
            rhs_values.append(-value)
        else:
            rows.append(row)
            rhs_values.append(value)
        slack_needed.append(0)

    n_slack = sum(1 for s in slack_needed if s != 0)
    # Rows needing an artificial: eq rows, and >=-like rows (slack -1).
    artificial_rows = [i for i, s in enumerate(slack_needed) if s <= 0]
    n_artificial = len(artificial_rows)
    n_total = n_standard + n_slack + n_artificial

    matrix = np.zeros((m, n_total))
    rhs = np.array(rhs_values, dtype=float)
    slack_column = n_standard
    artificial_column = n_standard + n_slack
    basis: List[int] = [-1] * m
    for i in range(m):
        matrix[i, :n_standard] = rows[i]
        sign = slack_needed[i]
        if sign != 0:
            matrix[i, slack_column] = float(sign)
            if sign > 0:
                basis[i] = slack_column
            slack_column += 1
    for i in artificial_rows:
        matrix[i, artificial_column] = 1.0
        basis[i] = artificial_column
        artificial_column += 1

    tableau = _Tableau(matrix, rhs, basis)

    # Phase 1: drive artificials to zero.
    if n_artificial:
        phase1_costs = np.zeros(n_total)
        phase1_costs[n_standard + n_slack:] = 1.0
        allowed = np.ones(n_total, dtype=bool)
        status = _run_simplex(tableau, phase1_costs, allowed, max_iterations, pricing)
        if status == "iteration_limit":
            return LPResult(
                status="iteration_limit",
                iterations=tableau.iterations,
                rhs_violation=tableau.rhs_violation,
            )
        basis_costs = phase1_costs[tableau.basis]
        phase1_value = float(basis_costs @ tableau.rhs)
        if phase1_value > FEAS_TOL:
            return LPResult(
                status="infeasible",
                iterations=tableau.iterations,
                rhs_violation=tableau.rhs_violation,
            )
        # Pivot any artificial still (degenerately) in the basis out.
        for row in range(m):
            if tableau.basis[row] >= n_standard + n_slack:
                for column in range(n_standard + n_slack):
                    if abs(tableau.matrix[row, column]) > PIVOT_TOL:
                        tableau.pivot(row, column)
                        break

    # Phase 2: the real objective; artificial columns barred.
    phase2_costs = np.zeros(n_total)
    phase2_costs[:n_standard] = std_costs
    allowed = np.ones(n_total, dtype=bool)
    allowed[n_standard + n_slack:] = False
    status = _run_simplex(tableau, phase2_costs, allowed, max_iterations, pricing)
    if status == "unbounded":
        return LPResult(
            status="unbounded",
            iterations=tableau.iterations,
            rhs_violation=tableau.rhs_violation,
        )
    if status == "iteration_limit":
        return LPResult(
            status="iteration_limit",
            iterations=tableau.iterations,
            rhs_violation=tableau.rhs_violation,
        )

    # Recover the standardised solution, then the original variables.
    std_solution = np.zeros(n_total)
    for row, column in enumerate(tableau.basis):
        std_solution[column] = tableau.rhs[row]
    x = np.zeros(n_original)
    for j, transform in enumerate(transforms):
        if transform.kind == "shift":
            x[j] = transform.offset + std_solution[transform.primary]
        elif transform.kind == "reflect":
            x[j] = transform.offset - std_solution[transform.primary]
        else:
            x[j] = std_solution[transform.primary] - std_solution[transform.secondary]
    objective = float(c @ x)
    return LPResult(
        status="optimal",
        x=x,
        objective=objective,
        iterations=tableau.iterations,
        rhs_violation=tableau.rhs_violation,
    )
