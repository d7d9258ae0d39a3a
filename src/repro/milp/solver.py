"""The ``solve()`` facade over the MILP backends.

Backends:

- ``"scipy"`` (default) -- ``scipy.optimize.milp`` / HiGHS;
- ``"bnb"`` -- the from-scratch branch-and-bound with scipy's LP
  relaxation (fast relaxations, our search);
- ``"bnb-simplex"`` -- branch-and-bound over the from-scratch sparse
  revised simplex: every line of the solve path is in this repository.

All backends receive the same :class:`~repro.milp.model.MILPModel` and
return the same :class:`~repro.milp.model.Solution` shape, so they are
interchangeable; the repair engine exposes the choice to callers.

:func:`solve_with_stats` is the instrumented variant used by the batch
engine: it times the call, consults an optional
:class:`~repro.milp.cache.SolveCache`, and returns a
:class:`SolveStats` record alongside the solution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.diagnostics import NumericInstabilityError
from repro.milp.branch_and_bound import solve_branch_and_bound
from repro.milp.cache import SolveCache
from repro.milp.certify import Certificate, NumericsGovernor, certify_solution
from repro.milp.model import MILPModel, Solution, SolveStatus
from repro.milp.scipy_backend import solve_scipy

#: Statuses that are wall-clock-independent verdicts about the model
#: itself and therefore safe to memoise.  Anytime (``feasible_gap``)
#: and budget-expired results depend on how much time the *first*
#: caller happened to have -- caching them would hand a possibly worse
#: incumbent to a later caller with a bigger budget.
_CACHEABLE_STATUSES = frozenset(
    {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED}
)

_BACKENDS: Dict[str, Callable[..., Solution]] = {
    "scipy": lambda model, **kw: solve_scipy(model, **kw),
    "bnb": lambda model, **kw: solve_branch_and_bound(model, lp_backend="scipy", **kw),
    "bnb-simplex": lambda model, **kw: solve_branch_and_bound(
        model, lp_backend="simplex", **kw
    ),
}

DEFAULT_BACKEND = "scipy"

#: The backend the batch engine retries with when the primary one
#: times out or errors.  Chosen to maximise independence: the scipy
#: backends fall back to our own search and vice versa.
FALLBACK_BACKEND: Dict[str, str] = {
    "scipy": "bnb",
    "bnb": "scipy",
    "bnb-simplex": "scipy",
    # The repair engine's approximate backend (not a milp backend --
    # see repro.repair.heuristic); its fallback is the exact default.
    "heuristic": "scipy",
}


@dataclass
class SolveStats:
    """Structured diagnostics for one :func:`solve_with_stats` call.

    One record per solver invocation (the repair engine's Big-M
    escalation loop may emit several per repair).  ``nodes`` counts
    branch-and-bound nodes explored, ``simplex_pivots`` LP pivot /
    simplex iterations (HiGHS does not report pivots through scipy, so
    it is 0 for the ``scipy`` backend).  ``cache_hit`` solves carry the
    *original* solve's node/pivot counts but their own (near-zero)
    ``wall_time``.  ``fallback`` is stamped by the batch engine when
    the record came from a retry on the alternate backend.
    """

    backend: str
    status: str
    wall_time: float
    nodes: int = 0
    simplex_pivots: int = 0
    cache_hit: bool = False
    fallback: bool = False
    n_variables: int = 0
    n_constraints: int = 0
    objective: Optional[float] = None
    #: Presolve reductions (rows dropped + variables fixed + bounds /
    #: coefficients tightened); 0 when presolve was off or trivial.
    presolve_reductions: int = 0
    #: Warm-started child LPs vs cold fallbacks (simplex-backed search).
    warm_start_hits: int = 0
    warm_start_fallbacks: int = 0
    #: Whether a heuristic incumbent seeded the search, and how far the
    #: seed's objective was from the proven optimum (None if unseeded
    #: or the solve failed).
    heuristic_seeded: bool = False
    heuristic_gap: Optional[float] = None
    #: Anytime solving: the certified absolute optimality gap (0.0 for
    #: proven optima, > 0 for budget-expired ``feasible_gap`` solves,
    #: None when the solve produced no usable incumbent) and the best
    #: dual bound backing the certificate.
    gap: Optional[float] = None
    best_bound: Optional[float] = None
    #: Which forensics phase emitted this record: "" for ordinary
    #: repair solves, "iis" for conflict extraction, "relax-count" /
    #: "relax-magnitude" / "relax-repair" for the lexicographic
    #: relaxation passes.  Forensics phases bypass the solve cache.
    phase: str = ""
    #: Cascade accounting (``strategy="cascade"`` repairs only): which
    #: tier emitted this record (``"t1-inversion"`` ...), how many
    #: violated ground rows the tier resolved, and how many it handed
    #: on to the next tier.  Empty / zero for ordinary solves.
    tier: str = ""
    tier_hits: int = 0
    tier_fallthroughs: int = 0
    #: Per-phase wall-clock seconds from the branch-and-bound backends
    #: (lowering / presolve / root LP / root cuts / tree search); empty
    #: for backends that do not report phases (plain ``scipy``).
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: Cutting-plane accounting (branch-and-bound only): applied
    #: root cuts by family plus node-scoped pooled cuts.
    cuts_gomory: int = 0
    cuts_cover: int = 0
    node_cuts: int = 0
    #: Basis refactorizations performed by the revised simplex.
    refactorizations: int = 0
    #: Exact-arithmetic certification (``certify=True`` solves only):
    #: ``certified`` is None when certification was off, True/False
    #: otherwise; ``certification`` names the verification level
    #: ("milp" / "not-applicable").  ``certification_failures`` counts
    #: ladder rungs whose answer the certifier rejected before this
    #: one passed.
    certified: Optional[bool] = None
    certification: str = ""
    certification_failures: int = 0
    #: Separated cuts rejected at admission because they excluded an
    #: integer-feasible witness point (exact rational replay).
    cuts_rejected: int = 0
    #: Degradation-ladder accounting: every rung walked for this solve
    #: (``["as-requested"]`` when the first answer certified), and
    #: whether the returned answer came from a degraded rung.
    ladder_steps: List[str] = field(default_factory=list)
    degraded: bool = False
    #: Pricing runs that tripped the anti-cycling trigger and fell
    #: back to Bland's rule inside the revised simplex.
    bland_fallbacks: int = 0
    #: Largest basic-variable bound drift the LP cores observed beyond
    #: their feasibility tolerance (0.0 for numerically clean solves).
    numeric_drift: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "status": self.status,
            "wall_time": self.wall_time,
            "nodes": self.nodes,
            "simplex_pivots": self.simplex_pivots,
            "cache_hit": self.cache_hit,
            "fallback": self.fallback,
            "n_variables": self.n_variables,
            "n_constraints": self.n_constraints,
            "objective": self.objective,
            "presolve_reductions": self.presolve_reductions,
            "warm_start_hits": self.warm_start_hits,
            "warm_start_fallbacks": self.warm_start_fallbacks,
            "heuristic_seeded": self.heuristic_seeded,
            "heuristic_gap": self.heuristic_gap,
            "gap": self.gap,
            "best_bound": self.best_bound,
            "phase": self.phase,
            "tier": self.tier,
            "tier_hits": self.tier_hits,
            "tier_fallthroughs": self.tier_fallthroughs,
            "phase_times": dict(self.phase_times),
            "cuts_gomory": self.cuts_gomory,
            "cuts_cover": self.cuts_cover,
            "node_cuts": self.node_cuts,
            "refactorizations": self.refactorizations,
            "certified": self.certified,
            "certification": self.certification,
            "certification_failures": self.certification_failures,
            "cuts_rejected": self.cuts_rejected,
            "ladder_steps": list(self.ladder_steps),
            "degraded": self.degraded,
            "bland_fallbacks": self.bland_fallbacks,
            "numeric_drift": self.numeric_drift,
        }

    def __str__(self) -> str:
        flags = []
        if self.cache_hit:
            flags.append("cache-hit")
        if self.fallback:
            flags.append("fallback")
        if self.presolve_reductions:
            flags.append(f"presolve:{self.presolve_reductions}")
        if self.warm_start_hits or self.warm_start_fallbacks:
            flags.append(
                f"warm:{self.warm_start_hits}/{self.warm_start_fallbacks}"
            )
        if self.heuristic_seeded:
            gap = "?" if self.heuristic_gap is None else f"{self.heuristic_gap:g}"
            flags.append(f"seeded(gap={gap})")
        if self.status == "feasible_gap":
            certified = "?" if self.gap is None else f"{self.gap:g}"
            flags.append(f"anytime(gap={certified})")
        if self.cuts_gomory or self.cuts_cover or self.node_cuts:
            flags.append(
                f"cuts:g{self.cuts_gomory}/c{self.cuts_cover}"
                f"/n{self.node_cuts}"
            )
        if self.phase_times:
            rendered = " ".join(
                f"{name.removeprefix('phase_')}={seconds * 1000:.1f}ms"
                for name, seconds in sorted(self.phase_times.items())
            )
            flags.append(f"phases[{rendered}]")
        if self.certified is not None:
            verdict = "ok" if self.certified else "FAILED"
            flags.append(f"certified:{verdict}")
        if self.degraded:
            flags.append(f"ladder:{'>'.join(self.ladder_steps)}")
        if self.cuts_rejected:
            flags.append(f"cuts-rejected:{self.cuts_rejected}")
        if self.bland_fallbacks:
            flags.append(f"bland-fallbacks:{self.bland_fallbacks}")
        if self.numeric_drift:
            flags.append(f"drift:{self.numeric_drift:g}")
        if self.phase:
            flags.append(f"phase:{self.phase}")
        if self.tier:
            flags.append(
                f"{self.tier}:{self.tier_hits}/{self.tier_fallthroughs}"
            )
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return (
            f"{self.backend}: {self.status} in {self.wall_time * 1000:.2f} ms, "
            f"{self.nodes} node(s), {self.simplex_pivots} pivot(s){suffix}"
        )


def available_backends() -> List[str]:
    """Names accepted by :func:`solve`."""
    return sorted(_BACKENDS)


def solve(model: MILPModel, backend: str = DEFAULT_BACKEND, **options) -> Solution:
    """Solve *model* with the chosen backend.

    Extra keyword *options* are passed through to the backend (e.g.
    ``max_nodes`` for the branch-and-bound backends, ``time_limit`` for
    scipy).
    """
    try:
        runner = _BACKENDS[backend]
    except KeyError:
        raise ValueError(
            f"unknown MILP backend {backend!r}; choose from {available_backends()}"
        ) from None
    return runner(model, **options)


def _stats_from_solution(
    model: MILPModel,
    backend: str,
    solution: Solution,
    wall_time: float,
    cache_hit: bool,
) -> SolveStats:
    reductions = sum(
        int(solution.stats.get(key, 0))
        for key in (
            "presolve_rows_dropped",
            "presolve_vars_fixed",
            "presolve_bounds_tightened",
            "presolve_coeffs_tightened",
        )
    )
    best_bound = solution.stats.get("best_bound")
    phase_times = {
        key: float(value)
        for key, value in solution.stats.items()
        if key.startswith("phase_")
    }
    return SolveStats(
        backend=backend,
        status=solution.status.value,
        wall_time=wall_time,
        nodes=int(solution.stats.get("nodes", 0)),
        simplex_pivots=int(solution.stats.get("lp_iterations", 0)),
        cache_hit=cache_hit,
        n_variables=model.n_variables,
        n_constraints=model.n_constraints,
        objective=solution.objective,
        presolve_reductions=reductions,
        warm_start_hits=int(solution.stats.get("warm_start_hits", 0)),
        warm_start_fallbacks=int(solution.stats.get("warm_start_fallbacks", 0)),
        gap=solution.gap,
        best_bound=None if best_bound is None else float(best_bound),
        phase_times=phase_times,
        cuts_gomory=int(solution.stats.get("cuts_gomory", 0)),
        cuts_cover=int(solution.stats.get("cuts_cover", 0)),
        node_cuts=int(solution.stats.get("node_cuts_pooled", 0)),
        refactorizations=int(solution.stats.get("refactorizations", 0)),
        cuts_rejected=int(solution.stats.get("cuts_rejected", 0)),
        bland_fallbacks=int(solution.stats.get("bland_fallbacks", 0)),
        numeric_drift=float(solution.stats.get("numeric_drift", 0.0)),
    )


def solve_with_stats(
    model: MILPModel,
    backend: str = DEFAULT_BACKEND,
    *,
    cache: Optional[SolveCache] = None,
    cache_semantics: Optional[Dict[str, object]] = None,
    certify: bool = False,
    **options,
) -> Tuple[Solution, SolveStats]:
    """Solve *model*, returning ``(solution, stats)``.

    With a *cache*, the canonical fingerprint of the model is looked up
    first; a hit skips the backend entirely and is flagged in the
    returned :class:`SolveStats`.  *cache_semantics* is caller context
    folded into the key unconditionally (see
    :meth:`~repro.milp.cache.SolveCache.key_for`): a cascade residue
    solve and an exact solve of the same fingerprint must not share an
    entry.

    With ``certify=True`` every answer is replayed against the original
    model in exact rational arithmetic (:mod:`repro.milp.certify`).  A
    rejected answer is re-solved down the numerics degradation ladder
    (:class:`~repro.milp.certify.NumericsGovernor`) with the suspect
    artifact disabled; only results from the pristine first rung are
    ever cached, cache hits are re-certified before being trusted, and
    an exhausted ladder raises
    :class:`~repro.diagnostics.NumericInstabilityError`.
    """
    if certify:
        return _solve_certified(
            model, backend, cache=cache, cache_semantics=cache_semantics,
            **options,
        )
    started = time.perf_counter()
    if cache is not None:
        key = SolveCache.key_for(model, backend, options, cache_semantics)
        hit = cache.get(key)
        if hit is not None:
            return hit, _stats_from_solution(
                model, backend, hit, time.perf_counter() - started, True
            )
        solution = solve(model, backend=backend, **options)
        if solution.status in _CACHEABLE_STATUSES:
            cache.put(key, solution)
    else:
        solution = solve(model, backend=backend, **options)
    return solution, _stats_from_solution(
        model, backend, solution, time.perf_counter() - started, False
    )


def _certified_stats(
    model: MILPModel,
    backend: str,
    solution: Solution,
    wall_time: float,
    cache_hit: bool,
    certificate: Certificate,
    steps: List[str],
    rejected_rungs: int,
) -> SolveStats:
    stats = _stats_from_solution(model, backend, solution, wall_time, cache_hit)
    stats.certified = certificate.certified
    stats.certification = certificate.level
    stats.certification_failures = rejected_rungs
    stats.ladder_steps = list(steps)
    stats.degraded = len(steps) > 1
    return stats


def _solve_certified(
    model: MILPModel,
    backend: str,
    *,
    cache: Optional[SolveCache],
    cache_semantics: Optional[Dict[str, object]],
    **options,
) -> Tuple[Solution, SolveStats]:
    """The ``certify=True`` body of :func:`solve_with_stats`.

    Cache hygiene: performance-only options are excluded from cache
    keys (:data:`~repro.milp.cache.PERFORMANCE_OPTIONS`), so a
    ladder-degraded re-solve would land on the *pristine* fingerprint.
    Only the first ("as-requested") rung may therefore populate the
    cache — a degraded or uncertified answer never does.
    """
    started = time.perf_counter()
    key = None
    if cache is not None:
        key = SolveCache.key_for(model, backend, options, cache_semantics)
        hit = cache.get(key)
        if hit is not None:
            # Never trust a cached answer blindly: re-certify on read.
            # A failing hit is treated as absent and re-solved fresh
            # (it cannot be *proven* wrong from here, but it is no
            # longer proven right either).
            certificate = certify_solution(model, hit)
            if certificate.certified:
                return hit, _certified_stats(
                    model, backend, hit, time.perf_counter() - started,
                    True, certificate, ["as-requested"], 0,
                )
            # A poisoned hit must not linger in either cache tier: the
            # disk row in particular would keep serving (and failing)
            # across runs.  Evict, then fall through to a fresh solve.
            cache.evict(key)

    governor = NumericsGovernor(backend, options)
    steps: List[str] = []
    rung_failures: List[Dict[str, object]] = []
    for step, step_backend, step_options in governor.steps():
        steps.append(step)
        solution = solve(model, backend=step_backend, **step_options)
        certificate = certify_solution(model, solution)
        if certificate.certified:
            if (
                cache is not None
                and step == "as-requested"
                and solution.status in _CACHEABLE_STATUSES
            ):
                # ``certified=True`` is the disk-tier admission ticket:
                # only first-rung, exact-certified answers ever reach
                # the durable store (see repro.repair.store).
                cache.put(key, solution, certified=True)
            return solution, _certified_stats(
                model, step_backend, solution,
                time.perf_counter() - started, False, certificate, steps,
                len(rung_failures),
            )
        rung_failures.append({"step": step, **certificate.as_dict()})
    raise NumericInstabilityError(
        f"no rung of the numerics ladder produced a certifiable answer "
        f"for backend {backend!r} ({len(rung_failures)} rung(s) rejected)",
        backend=backend,
        ladder=rung_failures,
    )
