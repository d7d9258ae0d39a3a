"""Fault-tolerant parallel batch repair: many documents, many cores, one report.

DART's operational setting is a data-entry shop repairing whole
batches of acquired documents.  Each document's card-minimal repair is
one MILP -- independent of every other document's -- so the corpus is
embarrassingly parallel (HoloClean exploits the same structure by
partitioning repair into independent subproblems).  This module fans a
list of :class:`RepairTask` out over a
``concurrent.futures.ProcessPoolExecutor`` and keeps the batch alive
through everything short of losing the checkpoint file:

- **configurable workers** -- ``workers=None``/``0`` runs sequentially
  in-process (no pickling, one shared cache); ``workers >= 1`` uses a
  process pool;
- **chunked scheduling** -- tasks are shipped to workers in chunks to
  amortise pickling overhead (``chunksize`` defaults to roughly four
  chunks per worker);
- **deterministic ordering** -- results are reassembled by task index,
  so the report is byte-identical to the sequential run regardless of
  completion order;
- **per-task budget + anytime fallback** -- ``timeout`` is a portable
  cooperative deadline (:class:`~repro.milp.deadline.Deadline`,
  monotonic clock, checked inside the solver loop -- no ``SIGALRM``)
  threaded into the engine as ``time_limit``.  A budget that expires
  with an incumbent in hand yields an *approximate* repair with a
  certified optimality gap (``approximate=True``, ``gap``); only a
  budget that expires empty-handed fails the attempt.  Failed attempts
  are retried once on the alternate MILP backend
  (:data:`~repro.milp.solver.FALLBACK_BACKEND`) with a fresh budget --
  unless the failure is an input error
  (:func:`~repro.diagnostics.is_retryable_on_fallback`), which no
  backend can fix.  Both attempts' solver stats are kept, and two
  timeouts report as ``"timeout"``, not a generic error;
- **checkpoint/resume** -- with ``checkpoint=...`` every completed
  task is journalled (append + fsync) to a
  :class:`~repro.repair.checkpoint.CheckpointJournal`; re-running the
  same batch against an existing journal replays the finished tasks
  (fingerprint-verified) and only solves the rest, so an interrupted
  run resumed to completion aggregates identically to an
  uninterrupted one;
- **crash recovery** -- a worker that dies (OOM kill, segfault,
  injected ``SIGKILL``) breaks the pool; the orchestrator identifies
  the in-flight task through per-dispatch sentinel files, counts the
  crash against that task only, respawns the pool after an exponential
  backoff, and re-runs innocent chunkmates at no penalty.  A task that
  keeps killing its worker is **quarantined** after
  ``max_task_retries`` retries instead of sinking the batch.  An
  optional ``hard_timeout`` watchdog terminates workers whose current
  task has been running that long (hung native code, injected hangs),
  funnelling them into the same recovery path;
- **LRU solve cache** -- every engine in a worker shares that worker's
  :class:`~repro.milp.cache.SolveCache`; identical tables re-acquired
  across documents skip the solver entirely.  Caches are per-process;
  the sequential path shares a single cache across the whole corpus.

Every solve emits a :class:`~repro.milp.solver.SolveStats` record;
:class:`BatchReport` aggregates them (wall time, nodes, pivots, cache
hits, fallbacks, gaps, quarantines) into the batch-level accounting
the benches print.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.constraints.constraint import AggregateConstraint
from repro.constraints.grounding import Cell
from repro.diagnostics import (
    SolveTimeoutError,
    WorkerCrashError,
    classify_failure,
    is_retryable_on_fallback,
)
from repro.faultinject import FaultConfig, chaos_before_task
from repro.milp.cache import DEFAULT_CACHE_SIZE, SolveCache
from repro.milp.solver import DEFAULT_BACKEND, FALLBACK_BACKEND, SolveStats
from repro.relational.database import Database
from repro.repair.cascade import TIER_EXACT, TIERS
from repro.repair.checkpoint import CheckpointJournal, task_fingerprint
from repro.repair.engine import ON_INFEASIBLE_MODES, STRATEGIES, RepairEngine
from repro.repair.translation import RepairObjective
from repro.repair.updates import Repair

#: Backwards-compatible alias: the batch timeout used to raise its own
#: ``SolveTimeout``; budgets now surface the taxonomy's typed error.
SolveTimeout = SolveTimeoutError

#: Ceiling on the exponential pool-respawn backoff, seconds.
MAX_BACKOFF = 5.0

#: How often the orchestrator wakes to poll futures / run the watchdog.
POLL_INTERVAL = 0.05

#: Module-level RNG for backoff jitter.  Deliberately *not* seeded from
#: anything deterministic: jitter exists to decorrelate independent
#: processes that crashed at the same instant, and sharing a seed would
#: re-synchronise exactly the retry stampede it is meant to break up.
#: Tests pass their own seeded ``random.Random`` to
#: :func:`respawn_delay` instead.
_BACKOFF_RNG = random.Random()


def respawn_delay(
    base: float,
    previous: float,
    rng: Optional[random.Random] = None,
) -> float:
    """Decorrelated-jitter backoff delay (AWS style), seconds.

    Draws uniformly from ``[base, min(MAX_BACKOFF, 3 * previous)]``, so
    the *expected* delay still grows geometrically while two
    orchestrators that broke their pools in the same instant (shared
    machine, shared sick dependency) almost surely pick different
    delays and stop respawning in lockstep -- plain ``base * 2**n``
    synchronises retries into exactly the thundering herd that keeps
    the shared resource sick.  ``base <= 0`` disables backoff entirely
    (the chaos tests run with ``retry_backoff=0.0``); *previous* is the
    last delay returned, or ``base`` on the first crash.
    """
    if base <= 0:
        return 0.0
    upper = min(MAX_BACKOFF, max(base, 3.0 * previous))
    return (rng or _BACKOFF_RNG).uniform(base, upper)


@dataclass
class RepairTask:
    """One unit of batch work: a (database, constraints) repair scenario."""

    database: Database
    constraints: Sequence[AggregateConstraint]
    name: str = ""
    backend: Optional[str] = None  # None = the batch-level default
    objective: RepairObjective = RepairObjective.CARDINALITY
    weights: Optional[Mapping[Cell, float]] = None
    pins: Optional[Mapping[Cell, float]] = None
    #: Repair strategy override (``"exact"`` / ``"cascade"``); None
    #: inherits the batch-level default.
    strategy: Optional[str] = None
    #: Cascade mis-repair budget override; None inherits the batch's.
    misrepair_budget: Optional[int] = None


@dataclass
class BatchItemResult:
    """Outcome of one task, in the input order of the batch."""

    index: int
    name: str
    #: "repaired" | "consistent" | "relaxed" | "unrepairable" |
    #: "timeout" | "invalid_input" | "degenerate" | "malformed" |
    #: "unbounded" | "crashed" | "quarantined" | "error"
    status: str
    repair: Optional[Repair] = None
    objective: Optional[float] = None
    backend_used: str = DEFAULT_BACKEND
    fallback_taken: bool = False
    #: True when the repair is an anytime incumbent (budget expired);
    #: ``gap`` then bounds its distance from the true optimum.
    approximate: bool = False
    gap: Optional[float] = None
    #: Dispatch attempts consumed (1 = no crash retries).
    attempts: int = 1
    #: True when this result was replayed from a checkpoint journal.
    resumed: bool = False
    #: Exact-arithmetic certification verdict of the delivered repair:
    #: True (certified), False (rejected -- the task then surfaces as
    #: ``status="uncertified"``), or None (certification off, or not
    #: applicable: consistent / failed tasks carry no repair to check).
    certified: Optional[bool] = None
    error: Optional[str] = None
    wall_time: float = 0.0
    stats: List[SolveStats] = field(default_factory=list)
    #: ``on_infeasible="relax"``: the structured violation report of a
    #: relaxed repair (one dict per violated ground constraint), None
    #: for exact repairs.
    violations: Optional[List[Dict]] = None

    @property
    def ok(self) -> bool:
        return self.status in ("repaired", "consistent", "relaxed")

    @property
    def cardinality(self) -> int:
        return self.repair.cardinality if self.repair is not None else 0


@dataclass
class BatchReport:
    """All task results plus batch-level accounting."""

    results: List[BatchItemResult]
    wall_time: float
    workers: int
    cache_size: int
    timeout: Optional[float] = None
    #: Times the worker pool had to be respawned after a crash.
    pool_respawns: int = 0
    #: Checkpoint file in use, if any.
    checkpoint: Optional[str] = None
    #: Durable result store in use, if any.
    store: Optional[str] = None

    @property
    def n_tasks(self) -> int:
        return len(self.results)

    @property
    def n_repaired(self) -> int:
        return sum(1 for r in self.results if r.status == "repaired")

    @property
    def n_consistent(self) -> int:
        return sum(1 for r in self.results if r.status == "consistent")

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def n_fallbacks(self) -> int:
        return sum(1 for r in self.results if r.fallback_taken)

    @property
    def n_quarantined(self) -> int:
        return sum(1 for r in self.results if r.status == "quarantined")

    @property
    def n_approximate(self) -> int:
        return sum(1 for r in self.results if r.approximate)

    @property
    def n_relaxed(self) -> int:
        return sum(1 for r in self.results if r.status == "relaxed")

    @property
    def n_resumed(self) -> int:
        return sum(1 for r in self.results if r.resumed)

    @property
    def n_certified(self) -> int:
        """Tasks whose delivered repair carries an exact certificate."""
        return sum(1 for r in self.results if r.certified is True)

    @property
    def n_uncertified(self) -> int:
        """Tasks whose repair failed certification on every ladder rung."""
        return sum(
            1
            for r in self.results
            if r.certified is False or r.status == "uncertified"
        )

    @property
    def n_degraded(self) -> int:
        """Tasks where the numerics governor stepped down its ladder."""
        return sum(
            1 for r in self.results if any(s.degraded for s in r.stats)
        )

    @property
    def all_stats(self) -> List[SolveStats]:
        return [s for r in self.results for s in r.stats]

    @property
    def total_solves(self) -> int:
        return len(self.all_stats)

    @property
    def cache_hits(self) -> int:
        return sum(1 for s in self.all_stats if s.cache_hit)

    @property
    def cache_misses(self) -> int:
        return self.total_solves - self.cache_hits

    @property
    def total_nodes(self) -> int:
        return sum(s.nodes for s in self.all_stats)

    @property
    def total_pivots(self) -> int:
        return sum(s.simplex_pivots for s in self.all_stats)

    @property
    def solver_seconds(self) -> float:
        """Summed per-solve wall time (CPU-side; > wall_time when parallel)."""
        return sum(s.wall_time for s in self.all_stats)

    @property
    def total_presolve_reductions(self) -> int:
        return sum(s.presolve_reductions for s in self.all_stats)

    @property
    def total_warm_start_hits(self) -> int:
        return sum(s.warm_start_hits for s in self.all_stats)

    @property
    def total_warm_start_fallbacks(self) -> int:
        return sum(s.warm_start_fallbacks for s in self.all_stats)

    @property
    def n_seeded_solves(self) -> int:
        return sum(1 for s in self.all_stats if s.heuristic_seeded)

    @property
    def cascade_tier_hits(self) -> Dict[str, int]:
        """Violated rows resolved per cascade tier, batch-wide.

        Synthetic ``backend="cascade"`` records carry T1 and T3 counts;
        the T4 entry counts residual rows that reached a real solver
        (records stamped ``tier="t4-exact"``, cache hits included).
        """
        hits = {tier: 0 for tier in TIERS}
        for record in self.all_stats:
            if record.backend == "cascade":
                hits[record.tier] += record.tier_hits
            elif record.tier == TIER_EXACT:
                hits[TIER_EXACT] = hits[TIER_EXACT] + record.tier_hits
        return hits

    @property
    def n_milp_free(self) -> int:
        """Cascade tasks repaired without any real solver record."""
        count = 0
        for result in self.results:
            cascade_records = [
                s for s in result.stats if s.backend == "cascade"
            ]
            if not cascade_records or result.status != "repaired":
                continue
            if all(
                s.backend == "cascade" or s.tier != TIER_EXACT
                for s in result.stats
            ):
                count += 1
        return count

    def aggregate(self) -> Dict[str, float]:
        """The flat numbers the benches tabulate.

        Everything here is a pure function of the per-task results, so
        an interrupted-then-resumed run aggregates identically to an
        uninterrupted one except for ``wall_time`` (real elapsed time,
        which necessarily differs between runs).
        """
        return {
            "tasks": float(self.n_tasks),
            "repaired": float(self.n_repaired),
            "consistent": float(self.n_consistent),
            "failed": float(self.n_failed),
            "fallbacks": float(self.n_fallbacks),
            "approximate": float(self.n_approximate),
            "relaxed": float(self.n_relaxed),
            "quarantined": float(self.n_quarantined),
            "solves": float(self.total_solves),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "nodes": float(self.total_nodes),
            "simplex_pivots": float(self.total_pivots),
            "presolve_reductions": float(self.total_presolve_reductions),
            "warm_start_hits": float(self.total_warm_start_hits),
            "warm_start_fallbacks": float(self.total_warm_start_fallbacks),
            "seeded_solves": float(self.n_seeded_solves),
            "certified": float(self.n_certified),
            "uncertified": float(self.n_uncertified),
            "degraded": float(self.n_degraded),
            "cuts_rejected": float(
                sum(s.cuts_rejected for s in self.all_stats)
            ),
            "wall_time": self.wall_time,
            "solver_seconds": self.solver_seconds,
            **{
                f"cascade_{tier}": float(hits)
                for tier, hits in self.cascade_tier_hits.items()
            },
            "milp_free": float(self.n_milp_free),
        }

    def summary(self) -> str:
        extras = ""
        if self.n_certified:
            extras += f", {self.n_certified} certified"
        if self.n_uncertified:
            extras += f", {self.n_uncertified} UNCERTIFIED"
        if self.n_degraded:
            extras += f", {self.n_degraded} ladder-degraded"
        if self.n_approximate:
            extras += f", {self.n_approximate} approximate"
        if self.n_relaxed:
            extras += f", {self.n_relaxed} relaxed"
        if self.n_quarantined:
            extras += f", {self.n_quarantined} quarantined"
        if self.n_resumed:
            extras += f", {self.n_resumed} resumed"
        if self.pool_respawns:
            extras += f", {self.pool_respawns} pool respawn(s)"
        return (
            f"{self.n_tasks} task(s) in {self.wall_time:.3f}s "
            f"({self.workers or 'no'} worker(s)): "
            f"{self.n_repaired} repaired, {self.n_consistent} consistent, "
            f"{self.n_failed} failed, {self.n_fallbacks} fallback(s)"
            f"{extras}; "
            f"{self.total_solves} solve(s), "
            f"{self.cache_hits} cache hit(s) / {self.cache_misses} miss(es), "
            f"{self.total_nodes} node(s), {self.total_pivots} pivot(s)"
        )


# ---------------------------------------------------------------------------
# Per-task execution (runs inside a worker or in-process)
# ---------------------------------------------------------------------------


def _attempt(
    task: RepairTask,
    backend: str,
    timeout: Optional[float],
    cache: Optional[SolveCache],
    stats_sink: List[SolveStats],
    on_infeasible: str = "raise",
    strategy: str = "exact",
    misrepair_budget: int = 0,
    certify: bool = True,
) -> Tuple[
    str, Optional[Repair], Optional[float], bool, Optional[float],
    Optional[List[Dict]], Optional[bool],
]:
    """One engine run on one backend; may raise for the retry logic.

    Whatever happens, the engine's solver stats land in *stats_sink*
    -- a failed attempt's work is part of the task's accounting too.
    """
    engine = RepairEngine(
        task.database,
        task.constraints,
        backend=backend,
        objective=task.objective,
        weights=task.weights,
        solve_cache=cache,
        on_infeasible=on_infeasible,
        strategy=task.strategy or strategy,
        misrepair_budget=(
            misrepair_budget
            if task.misrepair_budget is None
            else task.misrepair_budget
        ),
        certify=certify,
    )
    try:
        # Pins may demand values the current (consistent) instance does
        # not have, so the consistency short-circuit only applies to
        # pin-free tasks.
        if not task.pins and engine.is_consistent():
            return "consistent", None, None, False, None, None, None
        outcome = engine.find_card_minimal_repair(pins=task.pins, time_limit=timeout)
    finally:
        stats_sink.extend(engine.solve_stats)
    violations = None
    if outcome.relaxed and outcome.violations is not None:
        violations = [v.as_dict() for v in outcome.violations.violations]
    return (
        "relaxed" if outcome.relaxed else "repaired",
        outcome.repair,
        outcome.objective,
        outcome.approximate,
        outcome.gap,
        violations,
        outcome.certified,
    )


def _combined_failure_status(
    primary_error: BaseException, fallback_error: BaseException
) -> str:
    """Status when both backends failed.

    Both deadlines expiring is a *timeout*, not a generic error; more
    generally the fallback's classification wins unless it is the
    catch-all ``"error"`` and the primary's is more specific.
    """
    primary_status = classify_failure(primary_error)
    fallback_status = classify_failure(fallback_error)
    if fallback_status == "error" and primary_status != "error":
        return primary_status
    return fallback_status


def execute_task(
    task: RepairTask,
    index: int,
    *,
    default_backend: str = DEFAULT_BACKEND,
    timeout: Optional[float] = None,
    retry_fallback: bool = True,
    cache: Optional[SolveCache] = None,
    on_infeasible: str = "raise",
    strategy: str = "exact",
    misrepair_budget: int = 0,
    certify: bool = True,
) -> BatchItemResult:
    """Run one task with budget + fallback-backend semantics.

    The primary backend gets the full *timeout* as a cooperative
    ``time_limit``; a budget that expires with an incumbent downgrades
    to an approximate repair (``approximate=True`` with a certified
    ``gap``) rather than failing.  If the attempt raises -- timeout
    with no incumbent, solver error, unrepairable verdict -- the task
    is retried once on :data:`~repro.milp.solver.FALLBACK_BACKEND`
    with a fresh budget, *unless* the failure is a deterministic input
    error (invalid value, degenerate table, malformed constraint): no
    backend can repair those, so the retry is skipped.  Both attempts'
    solver stats are preserved either way.
    """
    started = time.perf_counter()
    primary = task.backend or default_backend
    stats: List[SolveStats] = []
    try:
        status, repair, objective, approximate, gap, violations, certified = (
            _attempt(
                task, primary, timeout, cache, stats, on_infeasible,
                strategy, misrepair_budget, certify,
            )
        )
        return BatchItemResult(
            index=index,
            name=task.name,
            status=status,
            repair=repair,
            objective=objective,
            backend_used=primary,
            approximate=approximate,
            gap=gap,
            wall_time=time.perf_counter() - started,
            stats=stats,
            violations=violations,
            certified=certified,
        )
    except Exception as primary_error:
        primary_status = classify_failure(primary_error)
        fallback = FALLBACK_BACKEND.get(primary, None)
        if (
            not retry_fallback
            or fallback is None
            or fallback == primary
            or not is_retryable_on_fallback(primary_error)
        ):
            return BatchItemResult(
                index=index,
                name=task.name,
                status=primary_status,
                backend_used=primary,
                error=str(primary_error),
                wall_time=time.perf_counter() - started,
                stats=stats,
            )
        fallback_stats: List[SolveStats] = []
        try:
            status, repair, objective, approximate, gap, violations, certified = (
                _attempt(
                    task, fallback, timeout, cache, fallback_stats, on_infeasible,
                    strategy, misrepair_budget, certify,
                )
            )
            for record in fallback_stats:
                record.fallback = True
            stats.extend(fallback_stats)
            return BatchItemResult(
                index=index,
                name=task.name,
                status=status,
                repair=repair,
                objective=objective,
                backend_used=fallback,
                fallback_taken=True,
                approximate=approximate,
                gap=gap,
                error=f"primary backend {primary!r} failed: {primary_error}",
                wall_time=time.perf_counter() - started,
                stats=stats,
                violations=violations,
                certified=certified,
            )
        except Exception as fallback_error:
            for record in fallback_stats:
                record.fallback = True
            stats.extend(fallback_stats)
            return BatchItemResult(
                index=index,
                name=task.name,
                status=_combined_failure_status(primary_error, fallback_error),
                backend_used=fallback,
                fallback_taken=True,
                error=(
                    f"primary {primary!r}: {primary_error}; "
                    f"fallback {fallback!r}: {fallback_error}"
                ),
                wall_time=time.perf_counter() - started,
                stats=stats,
            )


def _quarantined_result(
    index: int, task: RepairTask, crashes: int, last_error: Optional[str]
) -> BatchItemResult:
    detail = f": {last_error}" if last_error else ""
    return BatchItemResult(
        index=index,
        name=task.name,
        status="quarantined",
        attempts=crashes,
        error=(
            f"worker crashed {crashes} time(s) running this task; "
            f"quarantined{detail}"
        ),
    )


# ---------------------------------------------------------------------------
# Worker plumbing
# ---------------------------------------------------------------------------

#: Per-process solve cache, created by the pool initializer.  Module
#: level so forked/spawned workers reuse it across chunks.
_WORKER_CACHE: Optional[SolveCache] = None

#: Per-process fault-injection config (chaos testing only).
_WORKER_FAULTS: Optional[FaultConfig] = None

#: A chunk entry: (task index, dispatch attempt, task).
_Entry = Tuple[int, int, RepairTask]


def _init_worker(
    cache_size: int,
    fault_config: Optional[FaultConfig] = None,
    store_path: Optional[str] = None,
) -> None:
    global _WORKER_CACHE, _WORKER_FAULTS
    store = None
    if store_path is not None:
        # Imported here, not at module top: worker processes that run
        # store-less batches never pay for sqlite.
        from repro.repair.store import ResultStore

        store = ResultStore(store_path)
    if cache_size > 0 or store is not None:
        _WORKER_CACHE = SolveCache(cache_size, store=store)
    else:
        _WORKER_CACHE = None
    _WORKER_FAULTS = fault_config


def _sentinel(sentinel_dir: Optional[str], index: int, attempt: int, stage: str) -> None:
    """Mark a dispatch stage on disk so the parent can autopsy a crash."""
    if sentinel_dir is None:
        return
    Path(sentinel_dir, f"{index}.{attempt}.{stage}").touch()


def _sentinel_exists(sentinel_dir: str, index: int, attempt: int, stage: str) -> bool:
    return Path(sentinel_dir, f"{index}.{attempt}.{stage}").exists()


def _clear_sentinels(sentinel_dir: str, index: int, attempt: int) -> None:
    """Remove one dispatch's sentinel files once their autopsy is done.

    A crashed attempt's ``start`` marker must not outlive the blame
    decision it informed: were it left behind, any later scan of the
    directory (the hung-task watchdog, a diagnostic sweep) would see a
    started-but-never-finished dispatch and re-convict a task that
    already paid for that crash.
    """
    for stage in ("start", "done"):
        try:
            Path(sentinel_dir, f"{index}.{attempt}.{stage}").unlink()
        except OSError:
            pass


#: Name of the pid file each orchestrator writes into its sentinel
#: directory, so a later run can tell a live run's directory from a
#: leaked one.
_OWNER_PID_FILE = "owner.pid"


def _pid_alive(pid: int) -> bool:
    """Is *pid* a live process we could signal?"""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by other uid
        return True
    except OSError:  # pragma: no cover - platform oddities
        return False
    return True


def reap_stale_sentinel_dirs(root: Optional[str] = None) -> List[str]:
    """Delete sentinel directories whose owning orchestrator is gone.

    ``_run_pool``'s ``finally`` removes its sentinel directory -- but
    ``kill -9`` (or the fault injector's SIGKILL landing on the parent)
    skips ``finally``, leaking a directory full of
    ``{index}.{attempt}.start`` files in the temp root.  Each directory
    carries its creator's pid (:data:`_OWNER_PID_FILE`); on startup we
    sweep ``repro-batch-*`` directories and remove those whose owner is
    dead, so a prior run's sentinels can never survive to blame an
    innocent task (and the temp root stops accumulating corpses).
    Directories with a *live* owner -- a concurrent batch on the same
    machine -- are left strictly alone.  Returns the paths reaped.
    """
    reaped: List[str] = []
    temp_root = Path(root or tempfile.gettempdir())
    try:
        candidates = list(temp_root.glob("repro-batch-*"))
    except OSError:  # pragma: no cover - unreadable temp root
        return reaped
    for candidate in candidates:
        if not candidate.is_dir():
            continue
        pid_file = candidate / _OWNER_PID_FILE
        try:
            owner = int(pid_file.read_text().strip())
        except (OSError, ValueError):
            # No/garbled pid file: a pre-upgrade leak or a directory
            # torn mid-creation.  Either way nobody owns it.
            owner = -1
        if _pid_alive(owner):
            continue
        shutil.rmtree(candidate, ignore_errors=True)
        reaped.append(str(candidate))
    return reaped


def _run_chunk(payload: Tuple) -> List[BatchItemResult]:
    """Execute one chunk of entries inside a worker."""
    (
        chunk, default_backend, timeout, retry_fallback, sentinel_dir,
        on_infeasible, strategy, misrepair_budget, certify,
    ) = payload
    results = []
    for index, attempt, task in chunk:
        _sentinel(sentinel_dir, index, attempt, "start")
        chaos_before_task(_WORKER_FAULTS, index, attempt, in_pool=True)
        result = execute_task(
            task,
            index,
            default_backend=default_backend,
            timeout=timeout,
            retry_fallback=retry_fallback,
            cache=_WORKER_CACHE,
            on_infeasible=on_infeasible,
            strategy=strategy,
            misrepair_budget=misrepair_budget,
            certify=certify,
        )
        result.attempts = attempt + 1
        _sentinel(sentinel_dir, index, attempt, "done")
        results.append(result)
    return results


def _chunked(items: Sequence, chunksize: int) -> List[List]:
    return [
        list(items[start : start + chunksize])
        for start in range(0, len(items), chunksize)
    ]


# ---------------------------------------------------------------------------
# Pool orchestration with crash recovery
# ---------------------------------------------------------------------------


def _terminate_workers(pool: ProcessPoolExecutor) -> None:
    """Hard-kill every live worker (watchdog path for hung tasks)."""
    for process in list(getattr(pool, "_processes", {}).values()):
        if process.is_alive():
            process.terminate()


def _hung_entry(
    sentinel_dir: str, entries: Sequence[_Entry], hard_timeout: float
) -> Optional[_Entry]:
    """An in-flight entry whose start sentinel is older than the watchdog."""
    now = time.time()
    for index, attempt, task in entries:
        start = Path(sentinel_dir, f"{index}.{attempt}.start")
        if not start.exists():
            continue
        if _sentinel_exists(sentinel_dir, index, attempt, "done"):
            continue
        try:
            age = now - start.stat().st_mtime
        except OSError:
            continue
        if age > hard_timeout:
            return (index, attempt, task)
    return None


def _run_generation(
    chunks: List[List[_Entry]],
    *,
    workers: int,
    backend: str,
    timeout: Optional[float],
    retry_fallback: bool,
    cache_size: int,
    store_path: Optional[str],
    sentinel_dir: str,
    fault_config: Optional[FaultConfig],
    hard_timeout: Optional[float],
    on_infeasible: str,
    strategy: str,
    misrepair_budget: int,
    certify: bool,
    on_result: Callable[[BatchItemResult], None],
) -> Tuple[List[_Entry], bool]:
    """Run one pool lifetime; returns (undelivered entries, pool broke).

    A generation ends either cleanly (every chunk returned) or on the
    first sign of a broken pool -- a future raising
    ``BrokenProcessPool`` (worker died) or the watchdog terminating a
    hung worker.  Entries whose results were not delivered are handed
    back for the next generation; the caller decides which of them
    were at fault (via sentinels) and which were innocent bystanders.
    """
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_worker,
        initargs=(cache_size, fault_config, store_path),
    )
    futures: Dict[Future, List[_Entry]] = {}
    broke = False
    delivered: set = set()
    try:
        for chunk in chunks:
            payload = (
                chunk,
                backend,
                timeout,
                retry_fallback,
                sentinel_dir,
                on_infeasible,
                strategy,
                misrepair_budget,
                certify,
            )
            try:
                futures[pool.submit(_run_chunk, payload)] = chunk
            except Exception:
                broke = True
                break
        pending = set(futures)
        while pending and not broke:
            done, pending = wait(
                pending, timeout=POLL_INTERVAL, return_when=FIRST_COMPLETED
            )
            if not done:
                if hard_timeout is None:
                    continue
                in_flight = [e for f in pending for e in futures[f]]
                if _hung_entry(sentinel_dir, in_flight, hard_timeout) is not None:
                    # The futures of the terminated workers now fail
                    # with BrokenProcessPool and drain through the
                    # normal collection path below.
                    _terminate_workers(pool)
                continue
            for future in done:
                try:
                    chunk_results = future.result()
                except Exception:
                    # BrokenProcessPool, lost worker, unpicklable blow-up:
                    # stop the generation and let the caller autopsy.
                    broke = True
                    break
                for result in chunk_results:
                    on_result(result)
                    delivered.add(result.index)
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    remaining = [
        entry
        for chunk in futures.values()
        for entry in chunk
        if entry[0] not in delivered
    ]
    # Entries never submitted (submit itself broke) are also undelivered.
    submitted = {entry[0] for chunk in futures.values() for entry in chunk}
    for chunk in chunks:
        for entry in chunk:
            if entry[0] not in submitted and entry[0] not in delivered:
                remaining.append(entry)
    return remaining, broke


def _run_pool(
    indexed: List[Tuple[int, RepairTask]],
    *,
    workers: int,
    backend: str,
    timeout: Optional[float],
    retry_fallback: bool,
    cache_size: int,
    store_path: Optional[str],
    chunksize: int,
    max_task_retries: int,
    retry_backoff: float,
    hard_timeout: Optional[float],
    fault_config: Optional[FaultConfig],
    on_infeasible: str,
    strategy: str,
    misrepair_budget: int,
    certify: bool,
    on_result: Callable[[BatchItemResult], None],
) -> int:
    """Drive the pool to completion through crashes; returns respawn count."""
    crashes: Dict[int, int] = {index: 0 for index, _ in indexed}
    entries: List[_Entry] = [(index, 0, task) for index, task in indexed]
    task_of: Dict[int, RepairTask] = dict(indexed)
    # First, bury the dead: sentinel directories leaked by orchestrators
    # that were SIGKILLed (finally never ran) must not linger.
    reap_stale_sentinel_dirs()
    sentinel_dir = tempfile.mkdtemp(prefix="repro-batch-")
    Path(sentinel_dir, _OWNER_PID_FILE).write_text(str(os.getpid()))
    respawns = 0
    delay = retry_backoff
    try:
        generation = 0
        while entries:
            # Blame from a broken pool is ambiguous: every task that was
            # mid-flight when the pool died looks guilty.  So after the
            # first crash, schedule in waves -- innocents (no crashes
            # yet) run together, shielded from known suspects, and each
            # suspect then runs in a generation of its own where a crash
            # is an unambiguous conviction and a clean exit clears it.
            suspects = [e for e in entries if crashes[e[0]] > 0]
            innocents = [e for e in entries if crashes[e[0]] == 0]
            if generation == 0:
                wave, size, deferred = entries, chunksize, []
            elif innocents and suspects:
                wave, size, deferred = innocents, 1, suspects
            elif len(suspects) > 1:
                wave, size, deferred = suspects[:1], 1, suspects[1:]
            else:
                # After any crash, singleton chunks: one poison task can
                # no longer take chunkmates down with it repeatedly.
                wave, size, deferred = entries, 1, []
            remaining, broke = _run_generation(
                _chunked(wave, size),
                workers=workers,
                backend=backend,
                timeout=timeout,
                retry_fallback=retry_fallback,
                cache_size=cache_size,
                store_path=store_path,
                sentinel_dir=sentinel_dir,
                fault_config=fault_config,
                hard_timeout=hard_timeout,
                on_infeasible=on_infeasible,
                strategy=strategy,
                misrepair_budget=misrepair_budget,
                certify=certify,
                on_result=on_result,
            )
            generation += 1
            if not broke:
                if remaining:  # pragma: no cover - defensive
                    raise RuntimeError(
                        f"pool finished cleanly with {len(remaining)} "
                        f"undelivered task(s)"
                    )
                entries = deferred
                continue
            respawns += 1
            next_entries: List[_Entry] = []
            for index, attempt, task in remaining:
                started = _sentinel_exists(sentinel_dir, index, attempt, "start")
                finished = _sentinel_exists(sentinel_dir, index, attempt, "done")
                # The autopsy is over for this dispatch: retire its
                # sentinel files so they can never inform (or misinform)
                # a later scan of the directory.
                _clear_sentinels(sentinel_dir, index, attempt)
                if started and not finished:
                    # This task was mid-flight when its worker died:
                    # the prime suspect.  Count the crash against it.
                    crashes[index] += 1
                    if crashes[index] > max_task_retries:
                        on_result(
                            _quarantined_result(
                                index, task, crashes[index], "worker died mid-task"
                            )
                        )
                        continue
                # Innocent bystanders (never started, or finished but
                # the chunk's result died with the worker) retry free.
                # Either way the re-dispatch gets a fresh attempt
                # number so sentinel files and fault-injection
                # decisions do not collide with the crashed dispatch.
                next_entries.append((index, attempt + 1, task))
            entries = next_entries + deferred
            if entries:
                delay = respawn_delay(retry_backoff, delay)
                if delay > 0:
                    time.sleep(delay)
    finally:
        shutil.rmtree(sentinel_dir, ignore_errors=True)
    return respawns


# ---------------------------------------------------------------------------
# The public entry point
# ---------------------------------------------------------------------------


def repair_batch(
    tasks: Sequence[RepairTask],
    *,
    workers: Optional[int] = None,
    timeout: Optional[float] = None,
    cache_size: int = DEFAULT_CACHE_SIZE,
    store: Optional[str] = None,
    retry_fallback: bool = True,
    chunksize: Optional[int] = None,
    backend: str = DEFAULT_BACKEND,
    checkpoint: Optional[str] = None,
    resume: bool = True,
    max_task_retries: int = 2,
    retry_backoff: float = 0.1,
    hard_timeout: Optional[float] = None,
    fault_config: Optional[FaultConfig] = None,
    on_infeasible: str = "raise",
    strategy: str = "exact",
    misrepair_budget: int = 0,
    certify: bool = True,
) -> BatchReport:
    """Repair every task, in parallel when ``workers >= 1``.

    Results come back in task order whatever the completion order.
    ``workers=None`` (or 0) runs in-process with one cache shared by
    the whole corpus; with a pool, each worker process holds its own
    LRU cache of ``cache_size`` solutions (``cache_size=0`` disables
    caching).  ``timeout`` is the per-task solve budget in seconds
    (cooperative, monotonic-clock), applied independently to the
    primary attempt and to the fallback retry; a budget expiring with
    an incumbent yields an approximate repair with a certified gap.

    ``store`` names a durable content-addressed result store
    (:class:`~repro.repair.store.ResultStore`, SQLite): every worker's
    cache gains a shared disk tier, so byte-identical models are solved
    at most once *across* runs and processes, not just within one
    worker's LRU.  Only first-rung exact-certified answers are admitted
    to the store, and hits are re-certified on read.

    ``checkpoint`` names a journal file: completed tasks are appended
    (fsync'd) as they finish, and when ``resume`` is true an existing
    journal replays its fingerprint-verified results instead of
    re-solving them.  ``max_task_retries`` bounds how often a task
    whose worker crashed is re-dispatched before quarantine;
    ``retry_backoff`` seeds the exponential pool-respawn delay.
    ``hard_timeout`` arms a watchdog that terminates a worker whose
    current task has run that many wall-clock seconds (hung native
    code); the task then follows the crash/quarantine path.
    ``fault_config`` threads a chaos configuration into the workers --
    testing only.  ``on_infeasible`` is forwarded to every task's
    :class:`~repro.repair.engine.RepairEngine`: ``"relax"`` turns
    infeasible tasks into ``status="relaxed"`` results carrying their
    violation report instead of ``status="infeasible"``.

    ``strategy`` selects the repair path for every task that does not
    carry its own override (``"exact"`` or ``"cascade"``, see
    :mod:`repro.repair.cascade`); ``misrepair_budget`` is the
    cascade-wide ambiguity allowance forwarded alongside it.  Both are
    part of the checkpoint identity: a journal written under one
    strategy is never replayed for another.

    ``certify`` (default on) makes every engine verify its repair in
    exact rational arithmetic (:mod:`repro.milp.certify`) and lets the
    numerics governor re-solve down its degradation ladder on a
    certification failure.  Results that are uncertified or that only
    exist because the ladder degraded the solve are **never written to
    the checkpoint journal**: a resumed run must re-derive them from
    scratch rather than replay a numerically suspect answer.
    """
    if on_infeasible not in ON_INFEASIBLE_MODES:
        raise ValueError(
            f"on_infeasible must be one of {ON_INFEASIBLE_MODES}, "
            f"got {on_infeasible!r}"
        )
    if strategy not in STRATEGIES:
        raise ValueError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}"
        )
    task_list = list(tasks)
    started = time.perf_counter()

    journal: Optional[CheckpointJournal] = None
    fingerprints: List[str] = []
    replayed: Dict[int, BatchItemResult] = {}
    if checkpoint is not None:
        journal = CheckpointJournal(checkpoint)
        fingerprints = [
            task_fingerprint(
                task, strategy=strategy, misrepair_budget=misrepair_budget
            )
            for task in task_list
        ]
        header_meta = {
            "n_tasks": len(task_list),
            "backend": backend,
            "timeout": timeout,
            "on_infeasible": on_infeasible,
            "strategy": strategy,
            "misrepair_budget": misrepair_budget,
            "certify": certify,
        }
        if journal.exists() and resume:
            journal.truncate_torn_tail()
            replayed, _ = journal.load_completed(
                task_list, fingerprints, expected_meta=header_meta
            )
        else:
            if journal.exists():
                journal.path.unlink()
            journal.write_header(**header_meta)

    results: List[Optional[BatchItemResult]] = [None] * len(task_list)
    for index, result in replayed.items():
        results[index] = result

    def deliver(result: BatchItemResult) -> None:
        # Certification hygiene (mirrors the solve cache): the journal
        # is replayed verbatim on resume, so an uncertified or
        # ladder-degraded result must never be persisted -- the resumed
        # run re-solves it instead of inheriting a suspect answer.
        journal_worthy = not (
            certify
            and (
                result.status == "uncertified"
                or result.certified is False
                or any(s.degraded for s in result.stats)
            )
        )
        if journal is not None and journal_worthy:
            journal.append_result(result, fingerprints[result.index])
        results[result.index] = result

    todo = [
        (index, task)
        for index, task in enumerate(task_list)
        if results[index] is None
    ]

    if not workers or workers < 1:
        store_obj = None
        if store is not None:
            from repro.repair.store import ResultStore

            store_obj = ResultStore(store)
        cache = (
            SolveCache(cache_size, store=store_obj)
            if cache_size > 0 or store_obj is not None
            else None
        )
        try:
            for index, task in todo:
                crashes = 0
                delay = retry_backoff
                while True:
                    try:
                        chaos_before_task(fault_config, index, crashes, in_pool=False)
                        result = execute_task(
                            task,
                            index,
                            default_backend=backend,
                            timeout=timeout,
                            retry_fallback=retry_fallback,
                            cache=cache,
                            on_infeasible=on_infeasible,
                            strategy=strategy,
                            misrepair_budget=misrepair_budget,
                            certify=certify,
                        )
                        result.attempts = crashes + 1
                        break
                    except WorkerCrashError as crash:
                        crashes += 1
                        if crashes > max_task_retries:
                            result = _quarantined_result(
                                index, task, crashes, str(crash)
                            )
                            break
                        delay = respawn_delay(retry_backoff, delay)
                        if delay > 0:
                            time.sleep(delay)
                deliver(result)
        finally:
            if store_obj is not None:
                store_obj.close()
        assert all(result is not None for result in results)
        return BatchReport(
            results=results,  # type: ignore[arg-type]
            wall_time=time.perf_counter() - started,
            workers=0,
            cache_size=cache_size,
            timeout=timeout,
            checkpoint=None if checkpoint is None else str(checkpoint),
            store=None if store is None else str(store),
        )

    if chunksize is None:
        chunksize = max(1, (len(todo) + workers * 4 - 1) // max(1, workers * 4))
    respawns = _run_pool(
        todo,
        workers=workers,
        backend=backend,
        timeout=timeout,
        retry_fallback=retry_fallback,
        cache_size=cache_size,
        store_path=None if store is None else str(store),
        chunksize=chunksize,
        max_task_retries=max_task_retries,
        retry_backoff=retry_backoff,
        hard_timeout=hard_timeout,
        fault_config=fault_config,
        on_infeasible=on_infeasible,
        strategy=strategy,
        misrepair_budget=misrepair_budget,
        certify=certify,
        on_result=deliver,
    )
    assert all(result is not None for result in results)
    return BatchReport(
        results=results,  # type: ignore[arg-type]
        wall_time=time.perf_counter() - started,
        workers=workers,
        cache_size=cache_size,
        timeout=timeout,
        pool_respawns=respawns,
        checkpoint=None if checkpoint is None else str(checkpoint),
        store=None if store is None else str(store),
    )


def tasks_from_databases(
    databases: Sequence[Database],
    constraints: Sequence[AggregateConstraint],
    *,
    name_prefix: str = "doc",
    **task_options,
) -> List[RepairTask]:
    """Convenience: one task per database, shared constraints."""
    return [
        RepairTask(
            database=database,
            constraints=constraints,
            name=f"{name_prefix}{index}",
            **task_options,
        )
        for index, database in enumerate(databases)
    ]
