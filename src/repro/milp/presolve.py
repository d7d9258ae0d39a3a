"""MILP presolve: the infeasibility oracle of IIS extraction.

:mod:`repro.milp.iis` runs :func:`presolve` on every probe subsystem
first: an ``"infeasible"`` verdict (with its implicated row) or a
``"solved"`` one decides the probe without an LP.  The branch-and-bound
search does not run it: on the repair models ``S*(AC)`` it reduced
nothing.  Each ``y_i`` is free, and in its definition row
``y_i - z_i = -v_i`` it is the only unbounded column, so the rest
activity without it is ``(-inf) - (-inf)``, a nan: ``y_i`` never gets
its implied box, and the Big-M link rows, which hold ``y_i`` too, never
see a finite rest activity.  ``docs/solver.md`` records the numbers.

The classic reductions run in a fixpoint loop:

- **bound propagation** from row activity bounds (and its special case,
  singleton rows, which become bounds and disappear);
- **integral bound rounding** (``ceil``/``floor`` of fractional bounds
  on integer variables);
- **fixing** of variables whose bounds have closed (including binaries
  forced by row activities), with substitution into every row;
- **empty and redundant row elimination** (a ``<=`` row whose maximum
  activity cannot exceed the RHS proves nothing);
- **big-M coefficient tightening** on binary columns: in a row
  ``a x_rest + a_j d <= b`` with ``a_j < 0`` and maximum rest-activity
  ``U``, any ``a_j < b - U <= 0`` can be raised to ``b - U`` without
  cutting a feasible point -- this is exactly what shrinks DART's link
  rows from the Big-M scale to the data scale;
- **cost-based fixing** of variables no surviving row mentions.

Everything here is sound for the *mixed-integer* problem: continuous
relaxation points may be cut (that is the point -- tighter LP bounds),
integer-feasible points never are.

:func:`presolve` takes and returns CSR blocks
(:class:`~repro.milp.sparse.SparseArrays`).  The fixpoint loop itself
works on a private dense copy of the two constraint blocks: presolve is
a one-shot pass whose cost is dwarfed by the search.
:class:`PresolveResult` carries the reduced arrays plus the postsolve
map (kept columns + fixed values) to translate solutions back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.milp.sparse import CSRMatrix, SparseArrays

INF = math.inf

#: Feasibility tolerance (matches the simplex FEAS_TOL scale).
FEAS_TOL = 1e-7
#: Minimum improvement for a bound/coefficient change to count as
#: progress -- avoids fixpoint loops on epsilon-sized improvements.
TIGHTEN_TOL = 1e-6
#: Upper bound on fixpoint sweeps; DART instances settle in 2-4.
MAX_PASSES = 12


@dataclass
class PresolveStats:
    """Reduction counters of one :func:`presolve` run."""

    rows_dropped: int = 0
    vars_fixed: int = 0
    bounds_tightened: int = 0
    coeffs_tightened: int = 0
    passes: int = 0


@dataclass
class PresolveResult:
    """Outcome of :func:`presolve` plus the postsolve map.

    ``status`` is one of:

    - ``"reduced"`` -- ``arrays`` holds the (possibly smaller) problem
      over the ``kept`` original columns;
    - ``"solved"`` -- every variable was fixed; ``restore()`` yields
      the unique surviving point (callers should still verify it);
    - ``"infeasible"`` -- a contradiction was proven; no arrays.
      ``infeasible_row`` then names the lowered row whose reduction
      raised the contradiction, as ``("ub" | "eq", row index)`` into
      the *original* lowered arrays, when a specific row is to blame
      (bound-box contradictions have no single row and leave it
      ``None``).  IIS extraction uses it as an ordering hint.
    """

    status: str
    n_original: int
    kept: List[int] = field(default_factory=list)
    fixed: Dict[int, float] = field(default_factory=dict)
    stats: PresolveStats = field(default_factory=PresolveStats)
    arrays: Optional[SparseArrays] = None
    infeasible_row: Optional[Tuple[str, int]] = None

    def restore(self, x_reduced: Optional[Sequence[float]] = None) -> np.ndarray:
        """Lift a reduced-space point back to the original variables."""
        x = np.zeros(self.n_original)
        for index, value in self.fixed.items():
            x[index] = value
        if x_reduced is not None:
            for position, index in enumerate(self.kept):
                x[index] = float(x_reduced[position])
        return x


class _Infeasible(Exception):
    """Internal signal: a reduction proved the instance infeasible.

    ``row`` carries the implicated lowered row (``("ub"|"eq", index)``)
    when the contradiction surfaced while scanning a specific row.
    """

    def __init__(self, row: Optional[Tuple[str, int]] = None) -> None:
        super().__init__()
        self.row = row


def presolve(arrays: SparseArrays) -> PresolveResult:
    """Run the presolve fixpoint on *arrays* (which is left untouched)."""
    n = arrays.n
    costs = arrays.costs.astype(float).copy()
    a_ub = arrays.a_ub.to_dense()
    b_ub = arrays.b_ub.astype(float).copy()
    a_eq = arrays.a_eq.to_dense()
    b_eq = arrays.b_eq.astype(float).copy()
    lower = arrays.lower.astype(float).copy()
    upper = arrays.upper.astype(float).copy()
    integral = np.zeros(n, dtype=bool)
    integral[list(arrays.integral)] = True

    col_alive = np.ones(n, dtype=bool)
    ub_alive = np.ones(a_ub.shape[0], dtype=bool)
    eq_alive = np.ones(a_eq.shape[0], dtype=bool)
    fixed: Dict[int, float] = {}
    constant = float(arrays.objective_constant)
    stats = PresolveStats()

    def tol_for(value: float) -> float:
        return FEAS_TOL * (1.0 + abs(value))

    def is_binary(j: int) -> bool:
        return bool(integral[j]) and lower[j] >= -FEAS_TOL and upper[j] <= 1.0 + FEAS_TOL

    def fix_variable(j: int, value: float) -> None:
        nonlocal constant
        if integral[j]:
            rounded = float(round(value))
            if abs(rounded - value) > tol_for(value):
                raise _Infeasible  # integral variable pinned to a fraction
            value = rounded
        if value < lower[j] - tol_for(value) or value > upper[j] + tol_for(value):
            raise _Infeasible
        constant += costs[j] * value
        if value != 0.0:
            live_ub = ub_alive & (a_ub[:, j] != 0.0)
            if live_ub.any():
                b_ub[live_ub] -= a_ub[live_ub, j] * value
            live_eq = eq_alive & (a_eq[:, j] != 0.0)
            if live_eq.any():
                b_eq[live_eq] -= a_eq[live_eq, j] * value
        a_ub[:, j] = 0.0
        a_eq[:, j] = 0.0
        col_alive[j] = False
        fixed[j] = value
        stats.vars_fixed += 1

    def activity_bounds(
        row: np.ndarray, support: np.ndarray
    ) -> Tuple[float, float, Dict[int, float], Dict[int, float]]:
        """Activity range of ``row . x`` over the current bound box.

        Returns ``(min_act, max_act, mins, maxs)`` where ``mins[j]`` /
        ``maxs[j]`` are the per-column contributions *from the same
        bounds snapshot* as the totals -- propagation must subtract a
        contribution consistent with the total it subtracts from, even
        after an earlier column's bound was tightened mid-row.
        """
        min_act = 0.0
        max_act = 0.0
        mins: Dict[int, float] = {}
        maxs: Dict[int, float] = {}
        for j in support:
            a = float(row[j])
            # Plain Python floats: the callers' rest-of-row subtractions
            # may hit inf - inf, which is a quiet nan (caught by their
            # isfinite guards) rather than a numpy RuntimeWarning.
            if a > 0:
                contribution_min = a * float(lower[j])
                contribution_max = a * float(upper[j])
            else:
                contribution_min = a * float(upper[j])
                contribution_max = a * float(lower[j])
            mins[int(j)] = contribution_min
            maxs[int(j)] = contribution_max
            min_act += contribution_min
            max_act += contribution_max
        return min_act, max_act, mins, maxs

    def round_integral_bounds() -> bool:
        changed = False
        for j in np.flatnonzero(col_alive & integral):
            if lower[j] != -INF:
                rounded = float(math.ceil(lower[j] - FEAS_TOL))
                if rounded > lower[j] + TIGHTEN_TOL:
                    stats.bounds_tightened += 1
                    changed = True
                if rounded > lower[j]:
                    lower[j] = rounded
            if upper[j] != INF:
                rounded = float(math.floor(upper[j] + FEAS_TOL))
                if rounded < upper[j] - TIGHTEN_TOL:
                    stats.bounds_tightened += 1
                    changed = True
                if rounded < upper[j]:
                    upper[j] = rounded
        return changed

    def close_bounds() -> bool:
        changed = False
        for j in np.flatnonzero(col_alive):
            if lower[j] > upper[j] + FEAS_TOL:
                raise _Infeasible
            if upper[j] - lower[j] <= FEAS_TOL:
                fix_variable(j, 0.5 * (lower[j] + upper[j]))
                changed = True
        return changed

    def scan_ub_rows() -> bool:
        changed = False
        for i in np.flatnonzero(ub_alive):
            row = a_ub[i]
            b = float(b_ub[i])
            support = np.flatnonzero(row != 0.0)
            if support.size == 0:
                if b < -tol_for(b):
                    raise _Infeasible(("ub", int(i)))
                ub_alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            min_act, max_act, mins, maxs = activity_bounds(row, support)
            if min_act > b + tol_for(b):
                raise _Infeasible(("ub", int(i)))
            if max_act <= b + tol_for(b):
                # Redundant: satisfied by every point in the bound box.
                ub_alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            if support.size == 1:
                j = int(support[0])
                a = row[j]
                bound = b / a
                if a > 0:
                    if bound < upper[j] - TIGHTEN_TOL * (1.0 + abs(bound)):
                        upper[j] = bound
                        stats.bounds_tightened += 1
                else:
                    if bound > lower[j] + TIGHTEN_TOL * (1.0 + abs(bound)):
                        lower[j] = bound
                        stats.bounds_tightened += 1
                ub_alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            for j in support:
                a = row[j]
                rest_min = min_act - mins[int(j)]
                if not math.isfinite(rest_min):
                    continue
                implied = (b - rest_min) / a
                margin = TIGHTEN_TOL * (1.0 + abs(implied))
                if a > 0:
                    if implied < upper[j] - margin:
                        upper[j] = implied
                        stats.bounds_tightened += 1
                        changed = True
                else:
                    if implied > lower[j] + margin:
                        lower[j] = implied
                        stats.bounds_tightened += 1
                        changed = True
            # Binary-column work: forced values and big-M tightening.
            min_act, max_act, mins, maxs = activity_bounds(row, support)
            for j in support:
                if not is_binary(int(j)):
                    continue
                a = row[j]
                rest_min = min_act - mins[int(j)]
                rest_max = max_act - maxs[int(j)]
                if a > 0 and math.isfinite(rest_min) and rest_min + a > b + tol_for(b):
                    # Setting the binary would overshoot the row: force 0.
                    if upper[j] > FEAS_TOL:
                        upper[j] = 0.0
                        stats.bounds_tightened += 1
                        changed = True
                elif a < 0:
                    if math.isfinite(rest_min) and rest_min > b + tol_for(b):
                        # The row needs the binary's negative term: force 1.
                        if lower[j] < 1.0 - FEAS_TOL:
                            lower[j] = 1.0
                            stats.bounds_tightened += 1
                            changed = True
                    if math.isfinite(rest_max):
                        new_coefficient = b - rest_max
                        margin = TIGHTEN_TOL * (1.0 + abs(a))
                        if a + margin < new_coefficient <= 0.0:
                            # Big-M tightening: with the binary at 1 the
                            # row can never need more slack than b - U.
                            a_ub[i, j] = new_coefficient
                            stats.coeffs_tightened += 1
                            changed = True
        return changed

    def scan_eq_rows() -> bool:
        changed = False
        for i in np.flatnonzero(eq_alive):
            row = a_eq[i]
            b = float(b_eq[i])
            support = np.flatnonzero(row != 0.0)
            if support.size == 0:
                if abs(b) > tol_for(b):
                    raise _Infeasible(("eq", int(i)))
                eq_alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            min_act, max_act, mins, maxs = activity_bounds(row, support)
            if min_act > b + tol_for(b) or max_act < b - tol_for(b):
                raise _Infeasible(("eq", int(i)))
            if support.size == 1:
                j = int(support[0])
                try:
                    fix_variable(j, b / row[j])
                except _Infeasible as conflict:
                    if conflict.row is None:
                        conflict.row = ("eq", int(i))
                    raise
                eq_alive[i] = False
                stats.rows_dropped += 1
                changed = True
                continue
            for j in support:
                a = row[j]
                rest_min = min_act - mins[int(j)]
                rest_max = max_act - maxs[int(j)]
                # a x_j = b - rest  with  rest in [rest_min, rest_max].
                if math.isfinite(rest_min):
                    implied = (b - rest_min) / a
                    margin = TIGHTEN_TOL * (1.0 + abs(implied))
                    if a > 0:
                        if implied < upper[j] - margin:
                            upper[j] = implied
                            stats.bounds_tightened += 1
                            changed = True
                    else:
                        if implied > lower[j] + margin:
                            lower[j] = implied
                            stats.bounds_tightened += 1
                            changed = True
                if math.isfinite(rest_max):
                    implied = (b - rest_max) / a
                    margin = TIGHTEN_TOL * (1.0 + abs(implied))
                    if a > 0:
                        if implied > lower[j] + margin:
                            lower[j] = implied
                            stats.bounds_tightened += 1
                            changed = True
                    else:
                        if implied < upper[j] - margin:
                            upper[j] = implied
                            stats.bounds_tightened += 1
                            changed = True
        return changed

    def fix_unconstrained_columns() -> bool:
        changed = False
        live_ub_matrix = a_ub[ub_alive]
        live_eq_matrix = a_eq[eq_alive]
        for j in np.flatnonzero(col_alive):
            in_ub = live_ub_matrix.size and np.any(live_ub_matrix[:, j] != 0.0)
            in_eq = live_eq_matrix.size and np.any(live_eq_matrix[:, j] != 0.0)
            if in_ub or in_eq:
                continue

            # An unconstrained column sits at whichever bound its cost
            # prefers; integral bounds are rounded inward first (they
            # may have been tightened to a fraction later in the pass).
            def bound_value(side: str) -> float:
                if side == "lower":
                    value = lower[j]
                    if integral[j]:
                        value = float(math.ceil(value - FEAS_TOL))
                else:
                    value = upper[j]
                    if integral[j]:
                        value = float(math.floor(value + FEAS_TOL))
                if value < lower[j] - tol_for(value) or value > upper[j] + tol_for(value):
                    raise _Infeasible  # no integer point between the bounds
                return value

            c = costs[j]
            if c > 0 and lower[j] != -INF:
                fix_variable(j, bound_value("lower"))
                changed = True
            elif c < 0 and upper[j] != INF:
                fix_variable(j, bound_value("upper"))
                changed = True
            elif c == 0:
                if lower[j] != -INF:
                    fix_variable(j, bound_value("lower"))
                elif upper[j] != INF:
                    fix_variable(j, bound_value("upper"))
                else:
                    fix_variable(j, 0.0)
                changed = True
            # c != 0 with the improving direction unbounded: leave the
            # column so the LP reports unboundedness.
        return changed

    try:
        for pass_index in range(MAX_PASSES):
            stats.passes = pass_index + 1
            changed = round_integral_bounds()
            changed |= close_bounds()
            changed |= scan_ub_rows()
            changed |= scan_eq_rows()
            changed |= fix_unconstrained_columns()
            if not changed:
                break

        if not col_alive.any():
            # Fully fixed.  Any row still alive must now be empty;
            # verify its residual right-hand side.
            for i in np.flatnonzero(ub_alive):
                if b_ub[i] < -tol_for(b_ub[i]):
                    raise _Infeasible(("ub", int(i)))
            for i in np.flatnonzero(eq_alive):
                if abs(b_eq[i]) > tol_for(b_eq[i]):
                    raise _Infeasible(("eq", int(i)))
            return PresolveResult(
                status="solved", n_original=n, fixed=dict(fixed), stats=stats
            )
    except _Infeasible as conflict:
        return PresolveResult(
            status="infeasible", n_original=n, fixed=dict(fixed), stats=stats,
            infeasible_row=conflict.row,
        )

    kept = [int(j) for j in np.flatnonzero(col_alive)]
    position_of = {j: position for position, j in enumerate(kept)}
    kept_array = np.array(kept, dtype=int)
    reduced = SparseArrays(
        costs=costs[kept_array],
        a_ub=CSRMatrix.from_dense(
            a_ub[np.flatnonzero(ub_alive)][:, kept_array]
            if ub_alive.any()
            else np.zeros((0, len(kept)))
        ),
        b_ub=b_ub[np.flatnonzero(ub_alive)] if ub_alive.any() else np.zeros(0),
        a_eq=CSRMatrix.from_dense(
            a_eq[np.flatnonzero(eq_alive)][:, kept_array]
            if eq_alive.any()
            else np.zeros((0, len(kept)))
        ),
        b_eq=b_eq[np.flatnonzero(eq_alive)] if eq_alive.any() else np.zeros(0),
        lower=lower[kept_array],
        upper=upper[kept_array],
        integral=[position_of[int(j)] for j in np.flatnonzero(integral & col_alive)],
        objective_constant=constant,
    )
    return PresolveResult(
        status="reduced",
        n_original=n,
        kept=kept,
        fixed=dict(fixed),
        stats=stats,
        arrays=reduced,
    )
