"""Warm-started node LPs for the branch-and-bound tree.

A cold LP solve at every node would rebuild the basis from scratch.
But between a parent node and its child exactly one bound changes --
everything else (costs, rows, the rest of the bound box) is identical,
so the parent's optimal basis is one bound perturbation away from the
child's.  That basis stays *dual* feasible after the change (costs are
untouched), so the child is re-solved by a few **dual simplex** pivots.

:class:`SparseWarmStartTree` exploits that over the revised simplex of
:mod:`repro.milp.revised`: every node keeps a :class:`SparseNodeState`
(a basis snapshot plus its bound box), and a child installs its
parent's snapshot under the tightened box before re-solving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.milp.revised import BasisSnapshot, RevisedSimplex
from repro.milp.simplex import LPResult, PRICING_DANTZIG
from repro.milp.sparse import SparseArrays


@dataclass
class SparseNodeState:
    """One node's basis snapshot plus its materialised bound box.

    A handful of index arrays and a shared basis factorization -- cheap
    enough to keep for every open node.
    """

    snapshot: BasisSnapshot
    lower: np.ndarray
    upper: np.ndarray


class SparseWarmStartTree:
    """Fixed-structure warm starts backed by :class:`RevisedSimplex`.

    One engine serves the whole tree.  The revised simplex handles
    bounds implicitly (nonbasic-at-bound statuses), so a branching
    decision is just a new bound box under the parent's basis:
    :meth:`RevisedSimplex.install` restores the snapshot, one FTRAN
    recomputes the basic values, and a couple of dual pivots restore
    feasibility.  Free variables need no special handling.
    """

    def __init__(
        self,
        arrays: SparseArrays,
        *,
        max_iterations: int = 50_000,
        pricing: str = PRICING_DANTZIG,
    ) -> None:
        self.arrays = arrays
        self.engine = RevisedSimplex(
            arrays, max_iterations=max_iterations, pricing=pricing
        )

    def solve_root(self) -> Tuple[LPResult, Optional[SparseNodeState]]:
        """Cold-solve the root relaxation and snapshot its basis."""
        result = self.engine.solve()
        if result.status != "optimal":
            return result, None
        return result, SparseNodeState(
            snapshot=self.engine.snapshot(),
            lower=self.arrays.lower.astype(float).copy(),
            upper=self.arrays.upper.astype(float).copy(),
        )

    def solve_child(
        self,
        parent: SparseNodeState,
        index: int,
        side: str,
        value: float,
        *,
        iteration_budget: int = 2_000,
    ) -> Tuple[LPResult, Optional[SparseNodeState]]:
        """Re-solve with one bound tightened against the parent basis.

        ``side`` is ``"upper"`` (``x_index <= value``) or ``"lower"``
        (``x_index >= value``).  Returns ``(result, state)``; ``state``
        is ``None`` for infeasible children and for iteration-capped
        solves (``result.status`` distinguishes the two; the caller
        cold-solves the latter).
        """
        lower = parent.lower.copy()
        upper = parent.upper.copy()
        if side == "upper":
            upper[index] = min(upper[index], value)
        else:
            lower[index] = max(lower[index], value)
        if not self.engine.install(parent.snapshot, lower, upper):
            return LPResult(status="infeasible"), None
        result = self.engine.resolve_dual(iteration_budget=iteration_budget)
        if result.status != "optimal":
            return result, None
        return result, SparseNodeState(
            snapshot=self.engine.snapshot(), lower=lower, upper=upper
        )
