"""A bounded-variable *revised* simplex over CSR columns.

The dense tableau solver in :mod:`repro.milp.simplex` carries the full
``m x n`` matrix through every pivot: each iteration rewrites the
whole tableau even though a DART ground row touches only a handful of
cells.  The revised simplex keeps the constraint matrix untouched in
CSR form and represents the basis by a factorization instead:

- **basis factorization** -- the ``m x m`` basis ``B`` is LU-factorized
  (``scipy.linalg.lu_factor`` when available, an explicit inverse as a
  numpy-only fallback) and updated between refactorizations by an
  **eta file** (product-form inverse): each pivot appends one eta
  vector ``w = B^-1 A_q``, and FTRAN/BTRAN apply the eta column
  transforms after/before the factor solve;
- **periodic refactorization** -- after :data:`REFACTOR_INTERVAL` etas
  the basis is refactorized from scratch, bounding both the eta file
  and accumulated roundoff;
- **vectorized pricing** -- reduced costs for *all* columns come from
  one BTRAN plus one CSR ``A^T y`` product (``np.bincount`` over the
  nonzeros), with Dantzig, steepest-edge-lite (``d_j^2 / (1+|A_j|^2)``
  with static norms) and Bland rules;
- **bounded variables** -- lower/upper bounds are handled implicitly
  (nonbasic-at-lower / nonbasic-at-upper statuses and bound flips in
  the ratio test), so a branch-and-bound bound change never adds a
  row; this is what makes the warm-start snapshots cheap;
- **dual simplex entry** -- :meth:`RevisedSimplex.install` +
  :meth:`RevisedSimplex.resolve_dual` re-solve after a bound change
  from a parent basis snapshot, preserving the fixed-structure
  warm-start contract of :mod:`repro.milp.warmstart`.

The LP form matches :func:`repro.milp.simplex.solve_lp`::

    min  c . x
    s.t. A_ub x <= b_ub
         A_eq x  = b_eq
         lower <= x <= upper   (entries may be +/- inf)

Phase 1 uses one artificial column per row (sign matched to the
initial residual, exactly like the dense solver) minimised to zero;
rows whose slack already covers the residual start feasible and
skip the artificial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.milp.simplex import (
    COST_TOL,
    FEAS_TOL,
    LPResult,
    PIVOT_TOL,
    PRICING_BLAND,
    PRICING_DANTZIG,
)
from repro.milp.sparse import CSRMatrix, SparseArrays

INF = math.inf

#: Steepest-edge-lite pricing (static column norms).
PRICING_STEEPEST = "steepest"

#: Refactorize the basis after this many eta updates.
REFACTOR_INTERVAL = 64

#: Nonbasic/basic statuses (int8 codes).
AT_LOWER, AT_UPPER, BASIC, IS_FREE = 0, 1, 2, 3

try:  # pragma: no cover - exercised implicitly on import
    from scipy.linalg import lu_factor, lu_solve

    _HAVE_SCIPY_LU = True
except Exception:  # pragma: no cover - scipy is normally present
    _HAVE_SCIPY_LU = False


def vstack_csr(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Stack two CSR matrices with equal column counts vertically."""
    if a.shape[1] != b.shape[1]:
        raise ValueError("column counts differ")
    return CSRMatrix(
        (a.shape[0] + b.shape[0], a.shape[1]),
        np.concatenate([a.indptr, a.indptr[-1] + b.indptr[1:]]),
        np.concatenate([a.indices, b.indices]),
        np.concatenate([a.data, b.data]),
    )


class _BasisFactor:
    """LU of the basis ``B0`` plus the eta file of later pivots.

    ``B_k = B0 E_1 ... E_k`` where ``E_i`` is the identity with column
    ``r_i`` replaced by ``w_i = B_{i-1}^-1 A_q``.  FTRAN solves the
    factor first then applies the etas in order; BTRAN applies the
    transposed etas in reverse then the transposed factor.
    """

    __slots__ = ("m", "_lu", "_inv", "etas")

    def __init__(
        self,
        b_dense: Optional[np.ndarray],
        etas: Optional[List[Tuple[int, np.ndarray]]] = None,
        _shared=None,
    ) -> None:
        if _shared is not None:
            self.m, self._lu, self._inv = _shared
        else:
            m = 0 if b_dense is None else b_dense.shape[0]
            self.m = m
            self._lu = None
            self._inv = None
            if m:
                if _HAVE_SCIPY_LU:
                    self._lu = lu_factor(b_dense)
                else:
                    self._inv = np.linalg.inv(b_dense)
        self.etas: List[Tuple[int, np.ndarray]] = list(etas or [])

    def fork(self) -> "_BasisFactor":
        """A copy sharing the (immutable) factor, with its own eta list."""
        return _BasisFactor(None, self.etas, _shared=(self.m, self._lu, self._inv))

    def push_eta(self, row: int, w: np.ndarray) -> None:
        self.etas.append((row, w))

    @property
    def eta_count(self) -> int:
        return len(self.etas)

    def solve(self, v: np.ndarray) -> np.ndarray:
        """FTRAN: ``B^-1 v``."""
        if self.m == 0:
            return np.zeros(0)
        if self._lu is not None:
            x = lu_solve(self._lu, v)
        else:
            x = self._inv @ v
        for row, w in self.etas:
            pivot = x[row] / w[row]
            x = x - w * pivot
            x[row] = pivot
        return x

    def solve_transpose(self, v: np.ndarray) -> np.ndarray:
        """BTRAN: ``B^-T v``."""
        if self.m == 0:
            return np.zeros(0)
        x = np.array(v, dtype=float, copy=True)
        for row, w in reversed(self.etas):
            x[row] = (x[row] - (w @ x - w[row] * x[row])) / w[row]
        if self._lu is not None:
            return lu_solve(self._lu, x, trans=1)
        return self._inv.T @ x


@dataclass
class BasisSnapshot:
    """A restorable basis: column set, statuses, and shared factor."""

    basic: np.ndarray  # (m,) column index per row
    status: np.ndarray  # (n_cols,) int8 status codes
    factor: _BasisFactor


class RevisedSimplex:
    """One LP instance with a mutable basis, reusable across re-solves.

    Column layout: ``[0, n)`` structural, ``[n, n+m)`` row slacks
    (``[0, inf)`` for ``<=`` rows, fixed ``[0, 0]`` for ``=`` rows),
    ``[n+m, n+2m)`` phase-1 artificials (``sigma_i e_i``; fixed to
    ``[0, 0]`` once feasible).
    """

    def __init__(
        self,
        arrays: SparseArrays,
        *,
        lower: Optional[np.ndarray] = None,
        upper: Optional[np.ndarray] = None,
        max_iterations: int = 50_000,
        pricing: str = PRICING_DANTZIG,
    ) -> None:
        if pricing not in (PRICING_DANTZIG, PRICING_BLAND, PRICING_STEEPEST):
            raise ValueError(
                f"unknown pricing rule {pricing!r}; choose "
                f"{PRICING_DANTZIG!r}, {PRICING_STEEPEST!r} or {PRICING_BLAND!r}"
            )
        self.arrays = arrays
        self.pricing = pricing
        self.max_iterations = max_iterations
        n = arrays.n
        m_ub = arrays.m_ub
        m = m_ub + arrays.m_eq
        self.n = n
        self.m = m
        self.m_ub = m_ub
        self.A = vstack_csr(arrays.a_ub, arrays.a_eq)
        self.b = np.concatenate([arrays.b_ub, arrays.b_eq])

        lo_struct = np.asarray(
            arrays.lower if lower is None else lower, dtype=float
        ).copy()
        hi_struct = np.asarray(
            arrays.upper if upper is None else upper, dtype=float
        ).copy()
        slack_hi = np.concatenate(
            [np.full(m_ub, INF), np.zeros(arrays.m_eq)]
        )
        self.lo = np.concatenate([lo_struct, np.zeros(m), np.zeros(m)])
        self.hi = np.concatenate([hi_struct, slack_hi, np.zeros(m)])
        self.n_cols = n + 2 * m
        self.art_sign = np.ones(m)

        self.costs = np.zeros(self.n_cols)
        self.costs[:n] = arrays.costs

        self.status = np.zeros(self.n_cols, dtype=np.int8)
        self.basic = np.zeros(m, dtype=np.int64)
        self.xB = np.zeros(m)
        self.factor = _BasisFactor(None)

        self.iterations = 0
        self.refactorizations = 0
        #: Pricing runs that tripped the anti-cycling trigger and
        #: switched to Bland's rule mid-solve — a numerics health
        #: signal surfaced through SolveStats.
        self.bland_fallbacks = 0
        self._norms: Optional[np.ndarray] = None
        self._solved_once = False

    # -- column access ---------------------------------------------------

    def _column(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        n, m = self.n, self.m
        if j < n:
            return self.A.csc.column(j)
        if j < n + m:
            return (
                np.array([j - n], dtype=np.int64),
                np.array([1.0]),
            )
        row = j - n - m
        return (
            np.array([row], dtype=np.int64),
            np.array([self.art_sign[row]]),
        )

    def _column_dense(self, j: int) -> np.ndarray:
        out = np.zeros(self.m)
        rows, vals = self._column(j)
        out[rows] = vals
        return out

    def _column_norms(self) -> np.ndarray:
        if self._norms is None:
            self._norms = np.concatenate(
                [
                    self.A.csc.column_norms_sq(),
                    np.ones(self.m),
                    np.ones(self.m),
                ]
            )
        return self._norms

    # -- basis maintenance -----------------------------------------------

    def _refactor(self) -> None:
        m = self.m
        b_dense = np.zeros((m, m))
        for position, column in enumerate(self.basic):
            rows, vals = self._column(int(column))
            b_dense[rows, position] = vals
        self.factor = _BasisFactor(b_dense if m else None)
        self.refactorizations += 1

    def _push_eta(self, row: int, w: np.ndarray) -> None:
        self.factor.push_eta(row, w)
        if self.factor.eta_count >= REFACTOR_INTERVAL:
            self._refactor()

    def _nonbasic_values(self) -> np.ndarray:
        """Values of every column at its status (basic slots are 0)."""
        values = np.where(
            self.status == AT_UPPER,
            self.hi,
            np.where(self.status == AT_LOWER, self.lo, 0.0),
        )
        values[self.status == BASIC] = 0.0
        return values

    def _nb_value(self, j: int) -> float:
        code = self.status[j]
        if code == AT_LOWER:
            return float(self.lo[j])
        if code == AT_UPPER:
            return float(self.hi[j])
        return 0.0

    def _compute_xB(self) -> None:
        values = self._nonbasic_values()
        n, m = self.n, self.m
        residual = self.b - self.A.matvec(values[:n])
        residual -= values[n : n + m]
        residual -= self.art_sign * values[n + m :]
        self.xB = self.factor.solve(residual)

    def _reduced_costs(self, costs: np.ndarray, y: np.ndarray) -> np.ndarray:
        n, m = self.n, self.m
        d = costs.copy()
        d[:n] -= self.A.rmatvec(y)
        d[n : n + m] -= y
        d[n + m :] -= self.art_sign * y
        return d

    def _alpha_row(self, rho: np.ndarray) -> np.ndarray:
        """Row ``rho^T [A | S | R]`` over every column (BTRAN result in)."""
        n, m = self.n, self.m
        alpha = np.empty(self.n_cols)
        alpha[:n] = self.A.rmatvec(rho)
        alpha[n : n + m] = rho
        alpha[n + m :] = self.art_sign * rho
        return alpha

    # -- primal simplex ---------------------------------------------------

    def _primal(self, costs: np.ndarray, max_iterations: int, pricing: str) -> str:
        use_bland = pricing == PRICING_BLAND
        cycle_threshold = 50 + 2 * (self.m + self.n_cols)
        degenerate_run = 0
        fixed = self.lo >= self.hi  # == for genuinely fixed columns
        norms = self._column_norms() if pricing == PRICING_STEEPEST else None
        while self.iterations < max_iterations:
            y = self.factor.solve_transpose(costs[self.basic])
            d = self._reduced_costs(costs, y)
            violation = np.where(
                self.status == AT_LOWER,
                -d,
                np.where(
                    self.status == AT_UPPER,
                    d,
                    np.where(self.status == IS_FREE, np.abs(d), 0.0),
                ),
            )
            violation[fixed] = 0.0
            violation[violation <= COST_TOL] = 0.0
            if not violation.any():
                return "optimal"
            if use_bland:
                entering = int(np.flatnonzero(violation)[0])
            elif norms is not None:
                entering = int(np.argmax(violation * violation / (1.0 + norms)))
            else:
                entering = int(np.argmax(violation))
            if self.status[entering] == AT_UPPER or (
                self.status[entering] == IS_FREE and d[entering] > 0.0
            ):
                direction = -1.0
            else:
                direction = 1.0
            w = self.factor.solve(self._column_dense(entering))
            dw = direction * w

            basic_lo = self.lo[self.basic]
            basic_hi = self.hi[self.basic]
            ratios = np.full(self.m, INF)
            decreasing = dw > PIVOT_TOL
            increasing = dw < -PIVOT_TOL
            ratios[decreasing] = (
                self.xB[decreasing] - basic_lo[decreasing]
            ) / dw[decreasing]
            ratios[increasing] = (
                self.xB[increasing] - basic_hi[increasing]
            ) / dw[increasing]
            np.maximum(ratios, 0.0, out=ratios)
            row_limit = float(ratios.min()) if self.m else INF

            flip_limit = INF
            if self.status[entering] in (AT_LOWER, AT_UPPER):
                span = self.hi[entering] - self.lo[entering]
                if np.isfinite(span):
                    flip_limit = float(span)

            if flip_limit <= row_limit:
                if flip_limit == INF:
                    # Neither the entering variable nor any basic one
                    # ever hits a bound along this ray.
                    return "unbounded"
                # Bound flip: the entering variable crosses its whole
                # range before any basic variable hits a bound.
                self.xB -= flip_limit * dw
                self.status[entering] = (
                    AT_UPPER if self.status[entering] == AT_LOWER else AT_LOWER
                )
                self.iterations += 1
                continue
            if row_limit == INF:
                return "unbounded"

            tied = np.flatnonzero(ratios <= row_limit + PIVOT_TOL)
            if use_bland:
                leaving_row = int(min(tied, key=lambda r: self.basic[r]))
            else:
                leaving_row = int(tied[np.argmax(np.abs(dw[tied]))])
            leaving = int(self.basic[leaving_row])
            hit_lower = dw[leaving_row] > 0.0

            step = float(ratios[leaving_row])
            self.xB -= step * dw
            entering_value = self._nb_value(entering) + step * direction
            self.basic[leaving_row] = entering
            self.xB[leaving_row] = entering_value
            self.status[leaving] = AT_LOWER if hit_lower else AT_UPPER
            self.status[entering] = BASIC
            self._push_eta(leaving_row, w)
            self.iterations += 1

            if not use_bland:
                if step <= 1e-12:
                    degenerate_run += 1
                    if degenerate_run > cycle_threshold:
                        use_bland = True  # probable cycling: go anti-cycling
                        self.bland_fallbacks += 1
                else:
                    degenerate_run = 0
        return "iteration_limit"

    # -- dual simplex ------------------------------------------------------

    def _dual(self, costs: np.ndarray, max_iterations: int) -> str:
        """Restore primal feasibility from a dual-feasible basis.

        Used after a bound change perturbs basic values out of their
        bounds; costs are untouched so the parent's reduced-cost signs
        still certify dual feasibility.  Reduced costs are recomputed
        every pivot (one extra BTRAN) so tolerance drift self-corrects.
        """
        fixed = self.lo >= self.hi
        while self.iterations < max_iterations:
            basic_lo = self.lo[self.basic]
            basic_hi = self.hi[self.basic]
            below = basic_lo - self.xB
            above = self.xB - basic_hi
            worst = np.maximum(below, above)
            if self.m == 0 or float(worst.max()) <= FEAS_TOL:
                return "optimal"
            leaving_row = int(np.argmax(worst))
            is_below = below[leaving_row] >= above[leaving_row]

            unit = np.zeros(self.m)
            unit[leaving_row] = 1.0
            rho = self.factor.solve_transpose(unit)
            alpha = self._alpha_row(rho)
            y = self.factor.solve_transpose(costs[self.basic])
            d = self._reduced_costs(costs, y)

            raises = alpha < -PIVOT_TOL
            drops = alpha > PIVOT_TOL
            if not is_below:
                raises, drops = drops, raises
            eligible = (
                ((self.status == AT_LOWER) & raises)
                | ((self.status == AT_UPPER) & drops)
                | ((self.status == IS_FREE) & (raises | drops))
            )
            eligible &= ~fixed
            candidates = np.flatnonzero(eligible)
            if candidates.size == 0:
                # Every admissible entering move would worsen the bound
                # violation: the perturbed row is infeasible for every
                # completion.
                return "infeasible"
            ratios = np.abs(d[candidates]) / np.abs(alpha[candidates])
            best = float(ratios.min())
            entering = int(candidates[ratios <= best + PIVOT_TOL].min())

            w = self.factor.solve(self._column_dense(entering))
            pivot = w[leaving_row]
            if abs(pivot) <= PIVOT_TOL:
                # Eta roundoff has diverged from the priced row; rebuild
                # the factor and retry the same leaving row.
                if self.factor.eta_count:
                    self._refactor()
                    self._compute_xB()
                    continue
                return "infeasible"
            target = basic_lo[leaving_row] if is_below else basic_hi[leaving_row]
            step = (self.xB[leaving_row] - target) / pivot
            leaving = int(self.basic[leaving_row])
            self.xB -= step * w
            self.basic[leaving_row] = entering
            self.xB[leaving_row] = self._nb_value(entering) + step
            self.status[leaving] = AT_LOWER if is_below else AT_UPPER
            self.status[entering] = BASIC
            self._push_eta(leaving_row, w)
            self.iterations += 1
        return "iteration_limit"

    # -- solves ------------------------------------------------------------

    def _initial_basis(self) -> None:
        n, m = self.n, self.m
        status = self.status
        status[:] = AT_LOWER
        finite_lower = np.isfinite(self.lo[:n])
        finite_upper = np.isfinite(self.hi[:n])
        status[:n][~finite_lower & finite_upper] = AT_UPPER
        status[:n][~finite_lower & ~finite_upper] = IS_FREE

        values = self._nonbasic_values()
        residual = self.b - self.A.matvec(values[:n])
        self.art_sign = np.where(residual >= 0.0, 1.0, -1.0)
        # <= rows with a nonnegative residual start feasible on their
        # slack; every other row gets its artificial.
        self.basic = np.arange(n + m, n + 2 * m, dtype=np.int64)
        self.xB = np.abs(residual)
        slack_ok = np.zeros(m, dtype=bool)
        slack_ok[: self.m_ub] = residual[: self.m_ub] >= 0.0
        self.basic[slack_ok] = n + np.flatnonzero(slack_ok)
        status[self.basic] = BASIC
        # Re-open the artificial bounds (a prior solve pins them), then
        # pin the unused ones to zero immediately.
        self.hi[n + m :] = INF
        unused = np.flatnonzero(slack_ok)
        self.hi[n + m + unused] = 0.0
        self._refactor()

    def solve(self) -> LPResult:
        """Cold two-phase solve; leaves the basis installed for reuse."""
        start_iterations = self.iterations
        if np.any(self.lo[: self.n] > self.hi[: self.n]):
            return LPResult(status="infeasible")
        self._initial_basis()
        n, m = self.n, self.m
        budget = start_iterations + self.max_iterations

        needs_phase1 = bool(np.any(self.basic >= n + m))
        if needs_phase1:
            phase1_costs = np.zeros(self.n_cols)
            phase1_costs[n + m :] = 1.0
            status = self._primal(phase1_costs, budget, self.pricing)
            if status == "iteration_limit":
                return LPResult(
                    status="iteration_limit",
                    iterations=self.iterations - start_iterations,
                )
            artificial_basic = self.basic >= n + m
            infeasibility = float(self.xB[artificial_basic].sum()) if artificial_basic.any() else 0.0
            if status != "optimal" or infeasibility > FEAS_TOL:
                return LPResult(
                    status="infeasible",
                    iterations=self.iterations - start_iterations,
                )
            self._pivot_out_artificials()
        # Artificials are done: pin them to zero for phase 2 and any
        # later warm re-solve.
        self.hi[n + m :] = 0.0

        status = self._primal(self.costs, budget, self.pricing)
        if status != "optimal":
            return LPResult(
                status=status, iterations=self.iterations - start_iterations
            )
        self._solved_once = True
        return self._extract(start_iterations)

    def _pivot_out_artificials(self) -> None:
        """Degenerately pivot basic artificials out where possible.

        A row whose artificial cannot be pivoted out (no nonzero
        non-artificial entry) is linearly dependent; its artificial
        stays basic, pinned at zero.
        """
        n, m = self.n, self.m
        for row in range(m):
            if self.basic[row] < n + m:
                continue
            if abs(self.xB[row]) > FEAS_TOL:
                continue
            unit = np.zeros(m)
            unit[row] = 1.0
            rho = self.factor.solve_transpose(unit)
            alpha = self._alpha_row(rho)
            candidates = np.flatnonzero(
                (np.abs(alpha[: n + m]) > 1e-7) & (self.status[: n + m] != BASIC)
            )
            if candidates.size == 0:
                continue
            entering = int(candidates[np.argmax(np.abs(alpha[candidates]))])
            w = self.factor.solve(self._column_dense(entering))
            leaving = int(self.basic[row])
            self.basic[row] = entering
            self.xB[row] = self._nb_value(entering)
            self.status[leaving] = AT_LOWER
            self.status[entering] = BASIC
            self._push_eta(row, w)

    def _extract(self, start_iterations: int) -> LPResult:
        values = self._nonbasic_values()
        values[self.basic] = self.xB
        basic_lo = self.lo[self.basic]
        basic_hi = self.hi[self.basic]
        drift = 0.0
        if self.m:
            drift = max(
                0.0,
                float(np.maximum(basic_lo - self.xB, self.xB - basic_hi).max()),
            )
        x = np.clip(values[: self.n], self.lo[: self.n], self.hi[: self.n])
        objective = float(self.arrays.costs @ x)
        return LPResult(
            status="optimal",
            x=x,
            objective=objective,
            iterations=self.iterations - start_iterations,
            rhs_violation=drift if drift > FEAS_TOL else 0.0,
        )

    # -- warm re-solves ----------------------------------------------------

    def snapshot(self) -> BasisSnapshot:
        """Capture the current basis for later :meth:`install`."""
        return BasisSnapshot(
            basic=self.basic.copy(),
            status=self.status.copy(),
            factor=self.factor.fork(),
        )

    def install(
        self,
        snap: BasisSnapshot,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> bool:
        """Restore *snap* under new structural bounds.

        Returns ``False`` when the bound box is empty.  Nonbasic
        variables ride along with their bound (their status is kept),
        so the restored basis stays dual feasible and
        :meth:`resolve_dual` finishes in a few pivots.
        """
        if np.any(lower > upper):
            return False
        n = self.n
        self.lo[:n] = lower
        self.hi[:n] = upper
        self.basic = snap.basic.copy()
        self.status = snap.status.copy()
        self.factor = snap.factor.fork()
        self._compute_xB()
        return True

    def resolve_dual(self, *, iteration_budget: int = 2_000) -> LPResult:
        """Dual re-solve after :meth:`install` (bounds moved, costs same)."""
        start_iterations = self.iterations
        budget = start_iterations + iteration_budget
        status = self._dual(self.costs, budget)
        if status == "infeasible":
            return LPResult(
                status="infeasible",
                iterations=self.iterations - start_iterations,
            )
        if status == "iteration_limit":
            return LPResult(
                status="iteration_limit",
                iterations=self.iterations - start_iterations,
            )
        # Dual pivots keep reduced costs signs up to tolerance slop; a
        # primal clean-up settles residual violations (usually 0 pivots).
        status = self._primal(
            self.costs, self.iterations + iteration_budget, self.pricing
        )
        if status != "optimal":
            return LPResult(
                status=status, iterations=self.iterations - start_iterations
            )
        return self._extract(start_iterations)


def solve_lp_sparse(
    arrays: SparseArrays,
    lower: Optional[np.ndarray] = None,
    upper: Optional[np.ndarray] = None,
    *,
    max_iterations: int = 50_000,
    pricing: str = PRICING_DANTZIG,
) -> LPResult:
    """Cold-solve the LP relaxation of *arrays* (bounds overridable)."""
    engine = RevisedSimplex(
        arrays,
        lower=lower,
        upper=upper,
        max_iterations=max_iterations,
        pricing=pricing,
    )
    return engine.solve()
