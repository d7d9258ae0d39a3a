"""Long-running repair service: the batch engine, made into a daemon.

``repair_batch`` is a one-shot tool: it runs a corpus to completion and
exits, paying full MILP cost for anything the previous invocation
already solved.  A data-entry shop does not work in one shot -- it is a
*service*: documents arrive continuously, duplicates are common across
days, backends get sick and recover, deploys send SIGTERM mid-batch,
and machines die without warning.  :class:`RepairService` wraps the
existing engine in the machinery that setting needs:

- **durable result store** -- every service owns a
  :class:`~repro.repair.store.ResultStore` threaded into its solve
  cache as a second tier, so a document repaired *yesterday* is a disk
  hit today (re-certified on read, per the store's admission contract);
- **async intake with admission control** -- :meth:`RepairService.submit`
  enqueues work and returns a ticket; above the queue's high watermark
  it refuses with :class:`~repro.diagnostics.OverloadedError` carrying
  ``retry_after``.  Bounded backpressure: the caller resubmits later,
  the service never grows an unbounded queue and falls over at the
  worst moment;
- **per-backend circuit breakers** -- a backend whose dispatches keep
  dying (segfaulting native code, a broken install) trips its
  :class:`CircuitBreaker` open; traffic shifts to the alternate backend
  (:data:`~repro.milp.solver.FALLBACK_BACKEND`) immediately instead of
  paying the failure repeatedly.  After a cooldown the breaker goes
  *half-open* and admits one probe: success re-closes it, failure
  re-opens.  This layers on (never replaces) the per-task crash
  retries with decorrelated-jitter backoff;
- **health and readiness probes** -- :meth:`RepairService.health` /
  :meth:`RepairService.ready` expose queue depth, breaker states and
  store counters as plain dicts for an operator or an orchestrator's
  probe endpoint;
- **graceful drain** -- SIGTERM (see
  :meth:`RepairService.install_signal_handlers`) finishes the task in
  flight, journals it, writes the still-pending ticket indices to a
  ``<journal>.pending`` manifest, and stops.  Nothing is lost, nothing
  is half-done;
- **crash recovery** -- a service restarted after ``kill -9`` replays
  its checkpoint journal against the resubmitted corpus (an uncertified
  tail is re-solved, never inherited) and the store makes the re-solves
  disk hits, so the restarted run completes identically to an
  uninterrupted one.

The service is deliberately single-threaded between :meth:`submit` and
:meth:`process_pending`: parallelism lives inside ``repair_batch``'s
worker pool and below.  What this class adds is *lifecycle*, which is
exactly the part a pool cannot own.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Sequence

from collections import deque

from repro.diagnostics import OverloadedError
from repro.faultinject import FaultConfig, chaos_backend_dispatch
from repro.milp.cache import DEFAULT_CACHE_SIZE, SolveCache
from repro.milp.scipy_backend import native_output_to_stderr
from repro.milp.solver import DEFAULT_BACKEND, FALLBACK_BACKEND
from repro.repair.batch import (
    BatchItemResult,
    BatchReport,
    RepairTask,
    execute_task,
    respawn_delay,
)
from repro.repair.checkpoint import (
    HEADER_CERTIFY,
    HEADER_ON_INFEASIBLE,
    CheckpointJournal,
    journal_worthy,
    task_fingerprint,
)
from repro.repair.store import ResultStore, StoreIntegrityReport

#: Result statuses that count as the *backend's* fault for breaker
#: accounting.  Input errors (invalid value, degenerate, malformed) and
#: honest verdicts (unrepairable) say nothing about backend health and
#: must not open a breaker.
BACKEND_FAULT_STATUSES = frozenset({"crashed", "timeout", "error", "uncertified"})

#: Default intake queue high watermark.
DEFAULT_MAX_PENDING = 256

#: Default consecutive failures before a breaker opens.
DEFAULT_BREAKER_THRESHOLD = 3

#: Default seconds an open breaker waits before a half-open probe.
DEFAULT_BREAKER_COOLDOWN = 30.0

#: Intake latencies kept for the health percentiles: the latest tickets
#: only, so a long-running service holds a bounded window.
INTAKE_WINDOW = 1024


class CircuitBreaker:
    """Closed / open / half-open dispatch gate for one backend.

    Closed is the healthy state: every dispatch is allowed and a
    success resets the consecutive-failure counter.  After
    ``failure_threshold`` consecutive failures the breaker opens:
    dispatches are refused outright (no work wasted on a sick backend)
    until ``cooldown`` seconds have passed on the monotonic clock.
    Then one **probe** is admitted (half-open): its success re-closes
    the breaker, its failure re-opens it for another full cooldown.
    Only one probe is ever in flight -- a second ``allow`` during a
    probe is refused, so a recovering backend is not stampeded.

    *clock* is injectable so tests drive time explicitly.
    """

    def __init__(
        self,
        failure_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        cooldown: float = DEFAULT_BREAKER_COOLDOWN,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.failure_threshold = max(1, int(failure_threshold))
        self.cooldown = float(cooldown)
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        """``"closed"`` | ``"open"`` | ``"half-open"``."""
        if self._opened_at is None:
            return "closed"
        if self._probing:
            return "half-open"
        if self._clock() - self._opened_at >= self.cooldown:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a dispatch proceed right now?  (May start a probe.)"""
        if self._opened_at is None:
            return True
        if self._probing:
            return False  # one probe at a time
        if self._clock() - self._opened_at >= self.cooldown:
            self._probing = True
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until the next dispatch could be admitted."""
        if self._opened_at is None:
            return 0.0
        remaining = self.cooldown - (self._clock() - self._opened_at)
        return max(0.0, remaining)

    def record_success(self) -> None:
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        self._failures += 1
        if self._probing or self._failures >= self.failure_threshold:
            # A failed probe re-opens for a fresh cooldown; enough
            # consecutive failures open a closed breaker.
            self._opened_at = self._clock()
            self._probing = False
            self._failures = 0


@dataclass
class ServiceConfig:
    """Everything a :class:`RepairService` needs to run.

    ``store`` and ``checkpoint`` are both optional but a durable
    service wants both: the store makes re-solves free, the journal
    makes restarts lossless.
    """

    store: Optional[str] = None
    checkpoint: Optional[str] = None
    backend: str = DEFAULT_BACKEND
    timeout: Optional[float] = None
    cache_size: int = DEFAULT_CACHE_SIZE
    strategy: str = "exact"
    #: Intake queue high watermark; ``submit`` above it is refused.
    max_pending: int = DEFAULT_MAX_PENDING
    #: Suggested resubmission delay carried by ``OverloadedError``.
    retry_after: float = 1.0
    breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD
    breaker_cooldown: float = DEFAULT_BREAKER_COOLDOWN
    #: Crash retries per backend candidate before it counts as a
    #: backend failure.
    max_task_retries: int = 2
    #: Base of the decorrelated-jitter crash-retry backoff, seconds.
    retry_backoff: float = 0.0
    #: Chaos configuration (testing only).
    fault_config: Optional[FaultConfig] = None


@dataclass
class _Ticket:
    index: int
    task: RepairTask
    submitted_at: float


class RepairService:
    """A long-running repair daemon over the batch engine.

    Lifecycle: construct, optionally ``install_signal_handlers``, then
    either feed it with ``submit`` + ``process_pending`` (service
    style) or hand it a whole corpus with ``run`` (batch style with
    service semantics: store, breakers, journal replay).  ``close``
    when done; the instance is also a context manager.
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.store: Optional[ResultStore] = (
            ResultStore(config.store) if config.store is not None else None
        )
        self.cache = SolveCache(config.cache_size, store=self.store)
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._queue: Deque[_Ticket] = deque()
        self._next_index = 0
        self._results: Dict[int, BatchItemResult] = {}
        self._intake_latencies: Deque[float] = deque(maxlen=INTAKE_WINDOW)
        self._draining = False
        self._started = time.perf_counter()
        self._journal: Optional[CheckpointJournal] = (
            CheckpointJournal(config.checkpoint)
            if config.checkpoint is not None
            else None
        )
        self._fingerprints: Dict[int, str] = {}
        # Signal number -> the handler install_signal_handlers replaced.
        self._replaced_handlers: Dict[int, object] = {}
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Close the store, then restore the signal handlers
        :meth:`install_signal_handlers` replaced."""
        if self._closed:
            return
        self._closed = True
        try:
            if self.store is not None:
                self.store.close()
        finally:
            self._restore_signal_handlers()

    def _restore_signal_handlers(self) -> None:
        for signum, handler in list(self._replaced_handlers.items()):
            if signal.getsignal(signum) != self._request_drain:
                # Installed over ours: its owner restores the signal,
                # following this record past our handler once we are
                # closed.
                continue
            while (
                getattr(handler, "__func__", None) is RepairService._request_drain
                and handler.__self__._closed
            ):
                handler = handler.__self__._replaced_handlers.get(signum)
            # ``None``: the handler was not set from Python, so the
            # default is the closest one to put back.
            signal.signal(signum, signal.SIG_DFL if handler is None else handler)
            del self._replaced_handlers[signum]

    def __enter__(self) -> "RepairService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def install_signal_handlers(self) -> None:
        """SIGTERM / SIGINT request a graceful drain, not an abort.

        The handler only flips a flag; the processing loop notices it
        *between* tasks, so the task in flight always finishes and is
        journalled before the service stops.  :meth:`close` puts the
        replaced handlers back, so that processes forked later, such as
        pool workers, do not inherit a handler that only sets a flag.
        Call both from the main thread only (a CPython ``signal``
        restriction).
        """
        for signum in (signal.SIGTERM, signal.SIGINT):
            replaced = signal.signal(signum, self._request_drain)
            self._replaced_handlers.setdefault(signum, replaced)

    def _request_drain(self, signum: int, frame: object) -> None:  # noqa: ARG002
        self._draining = True

    def request_drain(self) -> None:
        """Programmatic equivalent of receiving SIGTERM."""
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    # -- intake ------------------------------------------------------------

    def submit(self, task: RepairTask) -> int:
        """Enqueue one task; returns its ticket index.

        Refuses with :class:`~repro.diagnostics.OverloadedError` when
        the queue is at its high watermark or the service is draining
        -- the caller backs off ``retry_after`` seconds and resubmits.
        Admission is the *only* unbounded input path, so bounding it
        here bounds the whole service's memory.
        """
        if self._draining:
            raise OverloadedError(
                "service is draining; resubmit to the next instance",
                retry_after=self.config.retry_after,
                pending=len(self._queue),
            )
        if len(self._queue) >= self.config.max_pending:
            raise OverloadedError(
                f"intake queue is full ({len(self._queue)} >= "
                f"{self.config.max_pending} pending)",
                retry_after=self.config.retry_after,
                pending=len(self._queue),
            )
        index = self._next_index
        self._next_index += 1
        self._queue.append(_Ticket(index, task, time.perf_counter()))
        return index

    def result(self, index: int) -> Optional[BatchItemResult]:
        """The completed result for a ticket, or ``None`` if pending."""
        return self._results.get(index)

    def process_pending(self, max_tasks: Optional[int] = None) -> int:
        """Work the queue (up to *max_tasks*); returns tasks completed.

        Stops early when a drain has been requested; the remaining
        tickets stay queued and are recorded by :meth:`drain`.  Native
        solver output goes to standard error meanwhile
        (:func:`~repro.milp.scipy_backend.native_output_to_stderr`).
        """
        completed = 0
        if not self._queue:
            return completed
        with native_output_to_stderr():
            while self._queue and (max_tasks is None or completed < max_tasks):
                if self._draining and completed > 0:
                    break
                ticket = self._queue.popleft()
                self._intake_latencies.append(
                    time.perf_counter() - ticket.submitted_at
                )
                result = self._execute(ticket.task, ticket.index)
                self._deliver(result, ticket.task)
                completed += 1
        return completed

    def drain(self) -> List[int]:
        """Finish nothing more; persist the queue; return its indices.

        Writes the pending ticket indices to ``<checkpoint>.pending``
        (when a journal is configured) so the operator -- or the
        restarted service -- knows exactly what was admitted but never
        run.  Idempotent.
        """
        self._draining = True
        pending = [ticket.index for ticket in self._queue]
        if self._journal is not None:
            manifest = Path(str(self._journal.path) + ".pending")
            manifest.write_text(
                json.dumps({"pending": pending}, separators=(",", ":"))
            )
        return pending

    # -- execution ---------------------------------------------------------

    def _breaker(self, backend: str) -> CircuitBreaker:
        if backend not in self.breakers:
            self.breakers[backend] = CircuitBreaker(
                self.config.breaker_threshold, self.config.breaker_cooldown
            )
        return self.breakers[backend]

    def _candidates(self, task: RepairTask) -> List[str]:
        primary = task.backend or self.config.backend
        candidates = [primary]
        fallback = FALLBACK_BACKEND.get(primary)
        if fallback is not None and fallback != primary:
            candidates.append(fallback)
        return candidates

    def _execute(self, task: RepairTask, index: int) -> BatchItemResult:
        """One task through breakers, crash retries and the fallback.

        The service owns backend choice: each candidate backend (the
        task's primary, then its fallback) is tried only if its breaker
        admits the dispatch, with ``execute_task(retry_fallback=False)``
        so the engine does not second-guess the routing.  A candidate
        whose result is a backend fault (crash, timeout, error,
        uncertified) trips its breaker and yields to the next; a
        candidate that answers -- even "this task is unrepairable" --
        records a success.  When every candidate's breaker is open the
        task is refused as ``status="breaker_open"`` with the earliest
        retry time, mirroring admission control: better an honest
        refusal now than a guaranteed failure slowly.
        """
        cfg = self.config
        # The task's own backend pin is consumed here, not inside
        # execute_task, so breaker rerouting cannot be defeated by it.
        routed = dataclasses.replace(task, backend=None)
        skipped_open = []
        last_result: Optional[BatchItemResult] = None
        for candidate in self._candidates(task):
            breaker = self._breaker(candidate)
            if not breaker.allow():
                skipped_open.append((candidate, breaker.retry_after()))
                continue
            crashes = 0
            delay = cfg.retry_backoff
            result: Optional[BatchItemResult] = None
            while True:
                try:
                    chaos_backend_dispatch(
                        cfg.fault_config, candidate, index, crashes
                    )
                    result = execute_task(
                        routed,
                        index,
                        default_backend=candidate,
                        timeout=cfg.timeout,
                        retry_fallback=False,
                        cache=self.cache,
                        strategy=cfg.strategy,
                    )
                    result.attempts = crashes + 1
                    break
                except Exception as crash:
                    crashes += 1
                    if crashes > cfg.max_task_retries:
                        result = BatchItemResult(
                            index=index,
                            name=task.name,
                            status="crashed",
                            backend_used=candidate,
                            attempts=crashes,
                            error=str(crash),
                        )
                        break
                    delay = respawn_delay(cfg.retry_backoff, delay)
                    if delay > 0:
                        time.sleep(delay)
            if result.status in BACKEND_FAULT_STATUSES:
                breaker.record_failure()
                last_result = result
                continue
            breaker.record_success()
            if last_result is not None and last_result.status in BACKEND_FAULT_STATUSES:
                result.fallback_taken = True
            return result
        if last_result is not None:
            # Every admitted candidate failed; report the last failure.
            return last_result
        retry_after = min(
            (after for _, after in skipped_open), default=cfg.breaker_cooldown
        )
        names = ", ".join(name for name, _ in skipped_open)
        return BatchItemResult(
            index=index,
            name=task.name,
            status="breaker_open",
            error=(
                f"all eligible backends have open breakers ({names}); "
                f"retry in {retry_after:.1f}s"
            ),
        )

    def _config_header_meta(self) -> Dict[str, object]:
        return {
            "backend": self.config.backend,
            "timeout": self.config.timeout,
            "on_infeasible": HEADER_ON_INFEASIBLE,
            "strategy": self.config.strategy,
            "certify": HEADER_CERTIFY,
        }

    def _deliver(self, result: BatchItemResult, task: RepairTask) -> None:
        # Refusals are not results: a restart must retry them.
        if (
            self._journal is not None
            and journal_worthy(result)
            and result.status not in ("breaker_open", "overloaded")
        ):
            if not self._journal.exists():
                # Streaming intake reaches here without run() ever
                # writing a header; the loader refuses headerless
                # journals.  n_tasks is unknowable mid-stream, so the
                # header carries config meta only.
                self._journal.write_header(**self._config_header_meta())
            fingerprint = self._fingerprints.get(result.index)
            if fingerprint is None:
                fingerprint = task_fingerprint(
                    task, strategy=self.config.strategy
                )
            self._journal.append_result(result, fingerprint)
        self._results[result.index] = result

    # -- batch-style entry point -------------------------------------------

    def run(self, tasks: Sequence[RepairTask], *, resume: bool = True) -> BatchReport:
        """Service-run a whole corpus; returns a standard batch report.

        With a journal configured and ``resume=True``, completed tasks
        from a previous (possibly killed) incarnation are replayed --
        an uncertified tail is re-solved rather than inherited -- and
        only the remainder is executed.  The store then turns most of those re-solves into
        disk hits, which is what makes restart-and-complete cheap.
        A drain request stops the loop between tasks; the report then
        covers only the delivered prefix and :meth:`drain` has recorded
        the rest.
        """
        task_list = list(tasks)
        started = time.perf_counter()
        header_meta = {"n_tasks": len(task_list), **self._config_header_meta()}
        fingerprints = [
            task_fingerprint(task, strategy=self.config.strategy)
            for task in task_list
        ]
        self._fingerprints = dict(enumerate(fingerprints))
        if self._journal is not None:
            self._results.update(
                self._journal.start_run(
                    task_list, fingerprints, header_meta, resume=resume
                )
            )
        with native_output_to_stderr():
            for index, task in enumerate(task_list):
                if index in self._results:
                    continue
                if self._draining:
                    break
                ticket_start = time.perf_counter()
                result = self._execute(task, index)
                self._intake_latencies.append(
                    time.perf_counter() - ticket_start
                )
                self._deliver(result, task)
        self._next_index = max(self._next_index, len(task_list))
        if self._draining and self._journal is not None:
            manifest = Path(str(self._journal.path) + ".pending")
            pending = [
                index
                for index in range(len(task_list))
                if index not in self._results
            ]
            manifest.write_text(
                json.dumps({"pending": pending}, separators=(",", ":"))
            )
        delivered = [
            self._results[index]
            for index in range(len(task_list))
            if index in self._results
        ]
        return BatchReport(
            results=delivered,
            wall_time=time.perf_counter() - started,
            workers=0,
            cache_size=self.config.cache_size,
            timeout=self.config.timeout,
            checkpoint=self.config.checkpoint,
            store=self.config.store,
        )

    # -- observability -----------------------------------------------------

    def intake_latency(self, quantile: float) -> float:
        """The *quantile* (0..1) of the latest :data:`INTAKE_WINDOW`
        intake latencies, seconds."""
        if not self._intake_latencies:
            return 0.0
        ordered = sorted(self._intake_latencies)
        position = min(
            len(ordered) - 1, max(0, int(round(quantile * (len(ordered) - 1))))
        )
        return ordered[position]

    def health(self) -> Dict[str, object]:
        """Liveness probe payload: what the service is doing right now."""
        cache_info = self.cache.info()
        return {
            "status": "draining" if self._draining else "ok",
            "uptime": time.perf_counter() - self._started,
            "pending": len(self._queue),
            "completed": len(self._results),
            "max_pending": self.config.max_pending,
            "breakers": {
                backend: breaker.state
                for backend, breaker in sorted(self.breakers.items())
            },
            "cache": {
                "hits": cache_info.hits,
                "misses": cache_info.misses,
                "store_hits": cache_info.store_hits,
            },
            "store": None if self.store is None else self.store.info().as_dict(),
            "intake_p50": self.intake_latency(0.50),
            "intake_p99": self.intake_latency(0.99),
        }

    def ready(self) -> Dict[str, object]:
        """Readiness probe: should a router send this instance work?

        Not ready while draining (the instance is going away), while
        the queue is at its watermark (submits would be refused
        anyway), or when every known backend's breaker is open (work
        would be accepted and then immediately refused downstream).
        """
        breakers_all_open = bool(self.breakers) and all(
            breaker.state == "open" for breaker in self.breakers.values()
        )
        ready = (
            not self._draining
            and len(self._queue) < self.config.max_pending
            and not breakers_all_open
        )
        return {
            "ready": ready,
            "draining": self._draining,
            "queue_full": len(self._queue) >= self.config.max_pending,
            "breakers_all_open": breakers_all_open,
        }

    def integrity_report(self) -> Optional[StoreIntegrityReport]:
        """Run the store's integrity scan (``None`` without a store)."""
        if self.store is None:
            return None
        return self.store.integrity_scan()
