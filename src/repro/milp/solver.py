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

:func:`solve_with_stats` is the instrumented, certified variant the
repair engine calls: it times the call, consults an optional
:class:`~repro.milp.cache.SolveCache`, certifies the answer, and
returns a :class:`SolveStats` record alongside the solution.
:func:`solve` stays the raw primitive (IIS probes, consistent answers
and repair enumeration call it directly).
"""

from __future__ import annotations

import time
from copy import copy
from dataclasses import dataclass, field, fields
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
    #: Reductions of a presolve the search no longer runs: always 0.
    #: Kept because ``perfbench/tracing.py:_solve`` still reads it.
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
    #: repair solves, "iis" for conflict extraction (which bypasses the
    #: solve cache).
    phase: str = ""
    #: Cascade accounting (``strategy="cascade"`` repairs only): which
    #: tier emitted this record (``"t1-inversion"`` ...), how many
    #: violated ground rows the tier resolved, and how many it handed
    #: on to the next tier.  Empty / zero for ordinary solves.
    tier: str = ""
    tier_hits: int = 0
    tier_fallthroughs: int = 0
    #: Per-phase wall-clock seconds from the branch-and-bound backends
    #: (lowering / root LP / tree search); empty
    #: for backends that do not report phases (plain ``scipy``).
    phase_times: Dict[str, float] = field(default_factory=dict)
    #: Cut counters of a removed cutting-plane layer: always 0.  Kept
    #: because ``perfbench/tracing.py:_solve`` still reads them.
    cuts_gomory: int = 0
    cuts_cover: int = 0
    node_cuts: int = 0
    #: Basis refactorizations performed by the revised simplex.
    refactorizations: int = 0
    #: Exact-arithmetic certification: ``certified`` is True for every
    #: record :func:`solve_with_stats` returns (None on records of other
    #: phases that carry no certificate); ``certification`` names the
    #: verification level ("milp" / "not-applicable").
    #: ``certification_failures`` counts ladder rungs whose answer the
    #: certifier rejected before this one passed.  ``certify_replays``
    #: counts this solve's certificates (every ladder rung, and the
    #: re-certification of a cache hit) that the float pass left to the
    #: ``Fraction`` replay.
    certified: Optional[bool] = None
    certification: str = ""
    certification_failures: int = 0
    certify_replays: int = 0
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
    #: Core-guided loop accounting (``phase="cores"`` records, see
    #: :mod:`repro.repair.cores`): connected components of the ground
    #: system, master solves, cores learned from infeasible supports,
    #: and components handed back to ``S*(AC)``.  Zero on every other
    #: record.
    components: int = 0
    master_rounds: int = 0
    cores: int = 0
    bigm_fallbacks: int = 0

    def as_dict(self) -> Dict[str, object]:
        # Every field in declaration order, containers shallow-copied.
        # Not dataclasses.asdict: its per-value deepcopy costs ~20x
        # more, and every journaled result pays this once per record.
        return {f.name: copy(getattr(self, f.name)) for f in fields(self)}

    def __str__(self) -> str:
        flags = []
        if self.cache_hit:
            flags.append("cache-hit")
        if self.fallback:
            flags.append("fallback")
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
        if self.phase_times:
            rendered = " ".join(
                f"{name.removeprefix('phase_')}={seconds * 1000:.1f}ms"
                for name, seconds in sorted(self.phase_times.items())
            )
            flags.append(f"phases[{rendered}]")
        if self.certified is not None:
            verdict = "ok" if self.certified else "FAILED"
            flags.append(f"certified:{verdict}")
        if self.certify_replays:
            flags.append(f"certify-replays:{self.certify_replays}")
        if self.degraded:
            flags.append(f"ladder:{'>'.join(self.ladder_steps)}")
        if self.bland_fallbacks:
            flags.append(f"bland-fallbacks:{self.bland_fallbacks}")
        if self.numeric_drift:
            flags.append(f"drift:{self.numeric_drift:g}")
        if self.master_rounds:
            flags.append(
                f"components:{self.components} master-rounds:"
                f"{self.master_rounds} cores:{self.cores}"
            )
        if self.bigm_fallbacks:
            flags.append(f"bigm-fallbacks:{self.bigm_fallbacks}")
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
    certificate: Certificate,
    steps: List[str],
    rejected_rungs: int,
    replays: int,
) -> SolveStats:
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
        warm_start_hits=int(solution.stats.get("warm_start_hits", 0)),
        warm_start_fallbacks=int(solution.stats.get("warm_start_fallbacks", 0)),
        gap=solution.gap,
        best_bound=None if best_bound is None else float(best_bound),
        phase_times=phase_times,
        refactorizations=int(solution.stats.get("refactorizations", 0)),
        certified=certificate.certified,
        certification=certificate.level,
        certification_failures=rejected_rungs,
        certify_replays=replays,
        ladder_steps=list(steps),
        degraded=len(steps) > 1,
        bland_fallbacks=int(solution.stats.get("bland_fallbacks", 0)),
        numeric_drift=float(solution.stats.get("numeric_drift", 0.0)),
    )


def solve_with_stats(
    model: MILPModel,
    backend: str = DEFAULT_BACKEND,
    *,
    cache: Optional[SolveCache] = None,
    **options,
) -> Tuple[Solution, SolveStats]:
    """Solve and certify *model*, returning ``(solution, stats)``.

    Every answer is certified against the original model
    (:mod:`repro.milp.certify`: a float pass under a proven error
    bound, an exact rational replay on doubt).  A rejected answer is
    re-solved down the numerics degradation ladder
    (:class:`~repro.milp.certify.NumericsGovernor`) with the suspect
    artifact disabled, and an exhausted ladder raises
    :class:`~repro.diagnostics.NumericInstabilityError`.

    With a *cache*, the canonical fingerprint of the model is looked up
    first; a hit that re-certifies skips the backend entirely and is
    flagged in the returned :class:`SolveStats`.  Performance-only
    options are excluded from cache keys
    (:data:`~repro.milp.cache.PERFORMANCE_OPTIONS`), so a
    ladder-degraded re-solve would land on the *pristine* fingerprint:
    only the first ("as-requested") rung may therefore populate the
    cache.
    """
    started = time.perf_counter()
    key = None
    replays = 0
    if cache is not None:
        key = SolveCache.key_for(model, backend, options)
        hit = cache.get(key)
        if hit is not None:
            # Never trust a cached answer blindly: re-certify on read.
            # A failing hit is treated as absent and re-solved fresh
            # (it cannot be *proven* wrong from here, but it is no
            # longer proven right either).
            certificate = certify_solution(model, hit)
            replays += certificate.replayed
            if certificate.certified:
                return hit, _stats_from_solution(
                    model, backend, hit, time.perf_counter() - started,
                    True, certificate, ["as-requested"], 0, replays,
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
        replays += certificate.replayed
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
            return solution, _stats_from_solution(
                model, step_backend, solution,
                time.perf_counter() - started, False, certificate, steps,
                len(rung_failures), replays,
            )
        rung_failures.append({"step": step, **certificate.as_dict()})
    raise NumericInstabilityError(
        f"no rung of the numerics ladder produced a certifiable answer "
        f"for backend {backend!r} ({len(rung_failures)} rung(s) rejected)",
        backend=backend,
        ladder=rung_failures,
    )
