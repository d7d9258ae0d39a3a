"""Best-first branch-and-bound for MILP.

The classic scheme, with the hot-path machinery added by the solver
overhaul:

1. **presolve** the lowered arrays (bound propagation, big-M
   tightening, forced fixings -- see :mod:`repro.milp.presolve`); the
   search runs on the reduced problem and postsolves the answer;
2. solve the LP relaxation of each node -- **warm-started** from the
   parent basis when the ``simplex`` LP backend is active (one bound
   changes per child, so a couple of dual pivots usually suffice; see
   :mod:`repro.milp.warmstart`);
3. prune if infeasible or worse than the incumbent -- an **incumbent
   seed** (e.g. from the greedy repair heuristic) makes pruning start
   at node 1, and when the objective is provably integral the node
   bound is rounded up before comparing;
4. if the relaxation is integral, it becomes the new incumbent;
5. otherwise branch on the variable with the best **pseudo-cost**
   score (estimated objective degradation per unit of fraction,
   learned from observed child bounds).

Nodes are explored best-first (lowest relaxation bound first), which
makes the incumbent's optimality certificate immediate when the node
queue empties or the best open bound meets the incumbent.  Per-node
bounds are *not* stored as full arrays: each node keeps a delta chain
(one ``(index, side, value)`` entry per ancestor) against the shared
root arrays and materialises bounds only when a cold LP needs them.

The whole search runs on CSR blocks (:mod:`repro.milp.sparse`).  The
LP relaxation backend is pluggable: ``"simplex"`` is the revised
simplex (:mod:`repro.milp.revised`) with factorized-basis warm starts,
``"scipy"`` keeps one persistent HiGHS instance per tree
(:mod:`repro.milp.node_lp`) instead of rebuilding ``linprog`` inputs at
every node.  ``cuts=True`` additionally tightens the root with Gomory +
cover rounds and pools node-scoped cover cuts keyed by each node's
fixed-variable set (:mod:`repro.milp.cuts`).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.milp.cuts import (
    CutPool,
    FixedSet,
    cover_cuts,
    cut_rejected_by_witness,
    root_cut_loop,
)
from repro.milp.deadline import Deadline
from repro.milp.lowering import lower_model_sparse
from repro.milp.model import MILPModel, Solution, SolveStatus
from repro.milp.node_lp import (
    PersistentNodeLP,
    persistent_available,
    solve_lp_linprog,
)
from repro.milp.presolve import PresolveResult, presolve as run_presolve
from repro.milp.revised import solve_lp_sparse
from repro.milp.simplex import LPResult, PRICING_DANTZIG
from repro.milp.sparse import SparseArrays
from repro.milp.warmstart import SparseNodeState, SparseWarmStartTree

INF = math.inf

#: Caps on node-level cut separation: stop pooling once this many cuts
#: are stored / this many nodes have been explored (separation cost
#: stops paying for itself deep in the tree).
NODE_CUT_POOL_CAP = 64
NODE_CUT_NODE_CAP = 500
NODE_CUTS_PER_NODE = 4

#: Integrality tolerance: a relaxation value within this of an integer
#: counts as integral.
INT_TOL = 1e-6

#: LP relaxation backends accepted by :func:`solve_branch_and_bound`.
LP_BACKENDS = ("scipy", "simplex")


@dataclass
class _BoundDelta:
    """One branching decision, chained up to the root.

    Nodes share the root bound arrays and record only their own change;
    materialising a node's bounds walks the (depth-length) chain.  Order
    of application is irrelevant because bounds only ever tighten along
    a path (min/max absorbs ancestors).
    """

    parent: Optional["_BoundDelta"]
    index: int
    side: str  # "lower" | "upper"
    value: float


def _materialise_bounds(
    arrays: SparseArrays, delta: Optional[_BoundDelta]
) -> Tuple[np.ndarray, np.ndarray]:
    lower = arrays.lower.copy()
    upper = arrays.upper.copy()
    node = delta
    while node is not None:
        if node.side == "upper":
            if node.value < upper[node.index]:
                upper[node.index] = node.value
        else:
            if node.value > lower[node.index]:
                lower[node.index] = node.value
        node = node.parent
    return lower, upper


def _fixed_set(delta: Optional[_BoundDelta]) -> FixedSet:
    """A node's identity for cut scoping: its branching decisions."""
    decisions = set()
    node = delta
    while node is not None:
        decisions.add((node.index, node.side, node.value))
        node = node.parent
    return frozenset(decisions)


def _bounds_of_variable(
    arrays: SparseArrays, delta: Optional[_BoundDelta], index: int
) -> Tuple[float, float]:
    low = float(arrays.lower[index])
    high = float(arrays.upper[index])
    node = delta
    while node is not None:
        if node.index == index:
            if node.side == "upper":
                high = min(high, node.value)
            else:
                low = max(low, node.value)
        node = node.parent
    return low, high


class _PseudoCosts:
    """Per-variable objective-degradation estimates for branching.

    For each branch direction the observed ``(child bound - parent
    bound) / fraction`` is averaged; unseen variables borrow the global
    average, and with no history at all the score degrades to the
    fraction itself (i.e. most-fractional).
    """

    def __init__(self) -> None:
        self._down: Dict[int, Tuple[float, int]] = {}
        self._up: Dict[int, Tuple[float, int]] = {}

    def update(
        self, index: int, direction: str, fraction: float, degradation: float
    ) -> None:
        table = self._down if direction == "down" else self._up
        weight = fraction if direction == "down" else 1.0 - fraction
        if weight <= INT_TOL:
            return
        per_unit = max(degradation, 0.0) / weight
        total, count = table.get(index, (0.0, 0))
        table[index] = (total + per_unit, count + 1)

    def _estimate(self, table: Dict[int, Tuple[float, int]], index: int) -> Tuple[float, bool]:
        entry = table.get(index)
        if entry is not None and entry[1] > 0:
            return entry[0] / entry[1], True
        averages = [total / count for total, count in table.values() if count]
        if averages:
            return sum(averages) / len(averages), False
        return 1.0, False

    def score(self, index: int, fraction: float) -> Tuple[float, int]:
        """(product score, how many directions have real history)."""
        down, down_known = self._estimate(self._down, index)
        up, up_known = self._estimate(self._up, index)
        epsilon = 1e-6
        product = max(down * fraction, epsilon) * max(up * (1.0 - fraction), epsilon)
        return product, int(down_known) + int(up_known)


def _select_branch_variable(
    x: np.ndarray,
    integral: Sequence[int],
    pseudo: _PseudoCosts,
) -> Tuple[int, float]:
    """Pick the branching variable; returns ``(index, fraction)``.

    ``index`` is -1 when the point is integral.  ``fraction`` is the
    distance above ``floor(x)`` (used by pseudo-cost updates).
    """
    best_index = -1
    best_key: Optional[Tuple] = None
    best_fraction = 0.0
    for index in integral:
        value = x[index]
        distance = abs(value - round(value))
        if distance <= INT_TOL:
            continue
        fraction = value - math.floor(value)
        product, known = pseudo.score(index, fraction)
        key = (product, known, distance)
        if best_key is None or key > best_key:
            best_key = key
            best_index = index
            best_fraction = fraction
    return best_index, best_fraction


@dataclass
class _Node:
    delta: Optional[_BoundDelta]
    lp: LPResult
    #: Warm-start state (``simplex`` backend with ``warm_start`` only).
    state: Optional[SparseNodeState]


def solve_branch_and_bound(
    model: MILPModel,
    *,
    lp_backend: str = "scipy",
    max_nodes: int = 100_000,
    gap_tolerance: float = 1e-9,
    presolve: bool = True,
    warm_start: bool = True,
    pricing: str = PRICING_DANTZIG,
    incumbent: Optional[Sequence[float]] = None,
    time_limit: Optional[float] = None,
    cuts: bool = True,
) -> Solution:
    """Solve *model* to optimality by branch-and-bound.

    **Anytime semantics**: ``time_limit`` (wall-clock seconds, checked
    once per node against a monotonic deadline) and ``max_nodes`` bound
    the search.  When either budget expires while open nodes remain,
    the best incumbent is returned with status
    :attr:`~repro.milp.model.SolveStatus.FEASIBLE_GAP` and a certified
    optimality gap in ``stats`` (``gap_absolute`` = incumbent objective
    minus the best open node bound, which lower-bounds every
    still-reachable solution because the search is best-first;
    ``gap_relative`` and ``best_bound`` accompany it).  Only when the
    budget expires with *no* incumbent does the solve report
    ``ITERATION_LIMIT`` -- with ``stats["deadline_expired"]`` set when
    the wall clock (rather than the node budget) ran out.

    Performance options (none of them changes the optimal objective):

    - ``presolve`` -- run :func:`repro.milp.presolve.presolve` first
      and search the reduced problem;
    - ``warm_start`` -- with ``lp_backend="simplex"``, re-solve child
      nodes from the parent basis by dual simplex instead of cold
      solves;
    - ``pricing`` -- entering-column rule of the revised simplex
      (``"dantzig"`` default, ``"steepest"`` or ``"bland"``);
    - ``incumbent`` -- a full-space feasible point (e.g. from the
      repair heuristic) used as the initial upper bound so pruning
      starts at node 1.  Infeasible seeds are silently ignored;
    - ``cuts`` -- Gomory + cover rounds at the root and a node-scoped
      cover-cut pool keyed by fixed-variable sets.

    Per-phase wall-clock seconds are reported in ``stats`` as
    ``phase_lower`` / ``phase_presolve`` / ``phase_root_lp`` /
    ``phase_cuts`` / ``phase_bnb``.
    """
    if lp_backend not in LP_BACKENDS:
        raise ValueError(
            f"unknown LP backend {lp_backend!r}; choose from "
            f"{list(LP_BACKENDS)}"
        )
    deadline = Deadline(time_limit)
    stats: Dict[str, float] = {}

    mark = time.perf_counter()
    root_arrays = lower_model_sparse(model)
    stats["phase_lower"] = time.perf_counter() - mark

    reduction: Optional[PresolveResult] = None
    work = root_arrays
    if presolve:
        mark = time.perf_counter()
        reduction = run_presolve(root_arrays)
        stats["phase_presolve"] = time.perf_counter() - mark
        stats.update(reduction.stats.as_solution_stats())
        if reduction.status == "infeasible":
            stats.update({"nodes": 0.0, "lp_iterations": 0.0})
            return Solution(SolveStatus.INFEASIBLE, stats=stats)
        if reduction.status == "solved":
            x_full = reduction.restore()
            if model.check_feasible(x_full):
                stats.update(
                    {"nodes": 0.0, "lp_iterations": 0.0, "presolve_solved": 1.0}
                )
                return Solution(
                    SolveStatus.OPTIMAL,
                    objective=float(root_arrays.costs @ x_full)
                    + root_arrays.objective_constant,
                    values=model.solution_values(x_full),
                    stats=stats,
                )
            # Paranoia: the presolve point failed the model's own check
            # (tolerance interplay); fall back to the full search.
            return solve_branch_and_bound(
                model,
                lp_backend=lp_backend,
                max_nodes=max_nodes,
                gap_tolerance=gap_tolerance,
                presolve=False,
                warm_start=warm_start,
                pricing=pricing,
                incumbent=incumbent,
                time_limit=deadline.remaining(),
                cuts=cuts,
            )
        assert reduction.arrays is not None
        work = reduction.arrays

    # Seed the incumbent from a caller-supplied feasible point.
    incumbent_x: Optional[np.ndarray] = None
    incumbent_objective = INF
    if incumbent is not None:
        point = np.asarray(incumbent, dtype=float)
        if point.shape[0] == model.n_variables and model.check_feasible(point):
            reduced_point = (
                reduction.reduce_point(point) if reduction is not None else point.copy()
            )
            if reduced_point is not None:
                incumbent_x = reduced_point
                incumbent_objective = float(work.costs @ reduced_point)
                stats["incumbent_seeded"] = 1.0

    # When the objective's support is integral with integer coefficients
    # every attainable objective is an integer: node bounds can be
    # rounded up before pruning comparisons.
    integral_set = set(work.integral)
    objective_is_integral = all(
        coefficient == 0.0
        or (index in integral_set and float(coefficient).is_integer())
        for index, coefficient in enumerate(work.costs)
    )

    def pruning_bound(bound: float) -> float:
        if objective_is_integral:
            return math.ceil(bound - 1e-6)
        return bound

    # ------------------------------------------------------------------
    # Root cutting planes: tighten the shared arrays with globally valid
    # Gomory + cover rounds before any node is created, and open a pool
    # for node-scoped cuts found during the search.
    # ------------------------------------------------------------------
    pool: Optional[CutPool] = None
    lp_iterations = 0
    cuts_rejected = 0
    numeric_drift = 0.0
    if cuts:
        mark = time.perf_counter()
        # The seeded incumbent doubles as the exact-arithmetic witness
        # for cut admission: any separated cut that would exclude a
        # known integer-feasible point is provably invalid.
        witnesses = [incumbent_x] if incumbent_x is not None else None
        cut_result = root_cut_loop(work, pricing=pricing, witnesses=witnesses)
        stats["phase_cuts"] = time.perf_counter() - mark
        stats["cut_rounds"] = float(cut_result.rounds)
        stats["cuts_gomory"] = float(cut_result.gomory_count)
        stats["cuts_cover"] = float(cut_result.cover_count)
        cuts_rejected += cut_result.rejected
        lp_iterations += cut_result.lp_iterations
        if cut_result.cuts:
            work = cut_result.arrays
        pool = CutPool()

    # ------------------------------------------------------------------
    # The per-node relaxation solver.  ``fixed`` carries the node's
    # branching decisions so pooled subtree cuts can be applied.
    # ------------------------------------------------------------------
    node_lp: Optional[PersistentNodeLP] = None
    if lp_backend == "scipy" and persistent_available():
        node_lp = PersistentNodeLP(work)

    def relax(
        lower: np.ndarray, upper: np.ndarray, fixed: FixedSet = frozenset()
    ) -> LPResult:
        extra = pool.cuts_for(fixed) if (pool is not None and fixed) else []
        rows = [cut.as_row_dict() for cut in extra]
        rhs = [cut.rhs for cut in extra]
        if node_lp is not None:
            return node_lp.solve(lower, upper, extra_rows=rows, extra_rhs=rhs)
        target = work.with_extra_ub_rows(rows, rhs) if extra else work
        if lp_backend == "simplex":
            return solve_lp_sparse(target, lower, upper, pricing=pricing)
        return solve_lp_linprog(target, lower, upper)

    tree: Optional[SparseWarmStartTree] = None
    if warm_start and lp_backend == "simplex":
        tree = SparseWarmStartTree(work, pricing=pricing)

    counter = itertools.count()
    mark = time.perf_counter()
    root_state: Optional[SparseNodeState] = None
    if tree is not None:
        root, root_state = tree.solve_root()
        if root.status == "iteration_limit" and root_state is None:
            tree = None
            root = relax(work.lower, work.upper)
    else:
        root = relax(work.lower, work.upper)
    stats["phase_root_lp"] = time.perf_counter() - mark
    nodes_explored = 1
    lp_iterations += root.iterations
    numeric_drift = max(numeric_drift, root.rhs_violation)
    warm_hits = 0
    warm_fallbacks = 0
    pruned_by_incumbent = 0
    #: Best open node bound at an early (budget) exit; None = proven.
    interrupted_bound: Optional[float] = None
    search_mark = time.perf_counter()

    def finish(status: SolveStatus) -> Solution:
        stats.update(
            {
                "nodes": float(nodes_explored),
                "lp_iterations": float(lp_iterations),
                "warm_start_hits": float(warm_hits),
                "warm_start_fallbacks": float(warm_fallbacks),
                "pruned_by_incumbent": float(pruned_by_incumbent),
            }
        )
        stats["phase_bnb"] = time.perf_counter() - search_mark
        if numeric_drift > 0.0:
            stats["numeric_drift"] = numeric_drift
        if pool is not None:
            stats["node_cuts_pooled"] = float(len(pool))
            stats["cuts_rejected"] = float(cuts_rejected)
        if node_lp is not None:
            stats["node_lp_solves"] = float(node_lp.solves)
        if tree is not None:
            stats["refactorizations"] = float(tree.engine.refactorizations)
            stats["bland_fallbacks"] = float(tree.engine.bland_fallbacks)
        if deadline.expired:
            stats["deadline_expired"] = 1.0
        if status not in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE_GAP):
            return Solution(status, stats=stats)
        assert incumbent_x is not None
        if status is SolveStatus.FEASIBLE_GAP:
            assert interrupted_bound is not None
            bound = min(interrupted_bound, incumbent_objective)
            gap = max(0.0, incumbent_objective - bound)
            scale = max(1.0, abs(incumbent_objective))
            stats["gap_absolute"] = gap
            stats["gap_relative"] = gap / scale
            stats["best_bound"] = bound + work.objective_constant
        else:
            stats["gap_absolute"] = 0.0
            stats["gap_relative"] = 0.0
        x_full = (
            reduction.restore(incumbent_x) if reduction is not None else incumbent_x
        )
        return Solution(
            status,
            objective=incumbent_objective + work.objective_constant,
            values=model.solution_values(x_full),
            stats=stats,
        )

    if root.status == "infeasible":
        # A feasible seed contradicts an infeasible relaxation only
        # through numerics; trust the relaxation as before.
        return finish(SolveStatus.INFEASIBLE)
    if root.status == "unbounded":
        return finish(SolveStatus.UNBOUNDED)
    if root.status != "optimal":
        return finish(SolveStatus.ERROR)

    pseudo = _PseudoCosts()

    # Heap of (bound, tiebreak, node)
    heap: List[Tuple[float, int, _Node]] = []
    heapq.heappush(
        heap, (root.objective, next(counter), _Node(None, root, root_state))
    )

    while heap:
        bound, _, node = heapq.heappop(heap)
        if pruning_bound(bound) >= incumbent_objective - gap_tolerance:
            break  # best-first: every open node is at least this bad
        if deadline.expired:
            # Anytime exit: best-first order makes this node's bound a
            # valid lower bound on every open solution.
            interrupted_bound = bound
            break
        lp = node.lp
        assert lp.x is not None
        branch_index, branch_fraction = _select_branch_variable(
            lp.x, work.integral, pseudo
        )
        if branch_index < 0:
            # Integral: candidate incumbent (round away LP noise).
            candidate = lp.x.copy()
            for index in work.integral:
                candidate[index] = round(candidate[index])
            objective = float(work.costs @ candidate)
            if objective < incumbent_objective - gap_tolerance:
                incumbent_objective = objective
                incumbent_x = candidate
            continue
        if nodes_explored >= max_nodes:
            interrupted_bound = bound
            break
        value = lp.x[branch_index]
        node_low, node_high = _bounds_of_variable(work, node.delta, branch_index)
        parent_objective = lp.objective if lp.objective is not None else bound
        node_fixed: FixedSet = frozenset()
        if pool is not None:
            node_fixed = _fixed_set(node.delta)
            if (
                node.delta is not None
                and len(pool) < NODE_CUT_POOL_CAP
                and nodes_explored <= NODE_CUT_NODE_CAP
            ):
                # Separate cover cuts under this node's bound box; they
                # are valid for (and pooled under) exactly its subtree.
                sep_lower, sep_upper = _materialise_bounds(work, node.delta)
                # A node cut only claims validity inside this subtree's
                # bound box, so the incumbent witness applies exactly
                # when it lives in that box.
                node_witnesses = None
                if incumbent_x is not None and bool(
                    np.all(incumbent_x >= sep_lower - 1e-9)
                    and np.all(incumbent_x <= sep_upper + 1e-9)
                ):
                    node_witnesses = [incumbent_x]
                for cut in cover_cuts(
                    work,
                    lp.x,
                    sep_lower,
                    sep_upper,
                    max_cuts=NODE_CUTS_PER_NODE,
                ):
                    if cut_rejected_by_witness(cut, node_witnesses):
                        cuts_rejected += 1
                        continue
                    pool.add(node_fixed, cut)
        for direction in ("down", "up"):
            if direction == "down":
                side, branch_bound = "upper", float(math.floor(value))
                if branch_bound < node_low:
                    continue
            else:
                side, branch_bound = "lower", float(math.ceil(value))
                if branch_bound > node_high:
                    continue
            child_delta = _BoundDelta(node.delta, branch_index, side, branch_bound)
            child_fixed: FixedSet = frozenset()
            if pool is not None:
                child_fixed = node_fixed | {(branch_index, side, branch_bound)}
            child_state: Optional[SparseNodeState] = None
            if tree is not None and node.state is not None:
                child, child_state = tree.solve_child(
                    node.state, branch_index, side, branch_bound
                )
                if child.status == "iteration_limit" and child_state is None:
                    # Warm path capped out; cold-solve this node.
                    warm_fallbacks += 1
                    lp_iterations += child.iterations
                    child_lower, child_upper = _materialise_bounds(work, child_delta)
                    child = relax(child_lower, child_upper, child_fixed)
                else:
                    warm_hits += 1
            else:
                child_lower, child_upper = _materialise_bounds(work, child_delta)
                child = relax(child_lower, child_upper, child_fixed)
            nodes_explored += 1
            lp_iterations += child.iterations
            numeric_drift = max(numeric_drift, child.rhs_violation)
            if child.status != "optimal":
                continue
            assert child.objective is not None
            pseudo.update(
                branch_index,
                direction,
                branch_fraction,
                child.objective - parent_objective,
            )
            if pruning_bound(child.objective) >= incumbent_objective - gap_tolerance:
                pruned_by_incumbent += 1
                continue
            heapq.heappush(
                heap,
                (
                    child.objective,
                    next(counter),
                    _Node(child_delta, child, child_state),
                ),
            )

    if incumbent_x is None:
        if interrupted_bound is not None or nodes_explored >= max_nodes:
            return finish(SolveStatus.ITERATION_LIMIT)
        return finish(SolveStatus.INFEASIBLE)
    if interrupted_bound is not None:
        return finish(SolveStatus.FEASIBLE_GAP)
    return finish(SolveStatus.OPTIMAL)
