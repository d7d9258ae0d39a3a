"""The repair engine: DART's repairing module (Sections 5 and 6.3).

:class:`RepairEngine` owns a database instance and a set of steady
aggregate constraints and answers:

- ``is_consistent()`` / ``violations()`` -- the detection step;
- ``find_card_minimal_repair(pins=...)`` -- a card-minimal repair, with
  operator pins from the validation loop held fixed: from the
  core-guided hitting-set loop of :mod:`repro.repair.cores` on the
  in-repo backends, from the MILP ``S*(AC)`` otherwise;
- ``find_big_m_repair(pins=...)`` -- the MILP-based computation on any
  backend, pins folded in as additional equality constraints;
- ``apply(repair)`` / ``is_repair(repair)`` -- repair application and
  verification.

Every returned repair is *certified*: the repaired document is
re-checked against the ground constraints in exact arithmetic
(:mod:`repro.milp.certify`), so a Big-M artefact or a solver tolerance
issue can never silently hand back a non-repair.  If the MILP comes
back infeasible, or a ``y`` variable lands on the Big-M bound, the
engine escalates M (x100, at most :data:`MAX_ESCALATIONS` times)
before concluding the instance is unrepairable.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

logger = logging.getLogger(__name__)

from repro.constraints.constraint import AggregateConstraint, ConstraintError
from repro.constraints.grounding import (
    Cell,
    GroundConstraint,
    GroundingEngine,
    Violation,
    ground_constraints,
)
from repro.diagnostics import (
    InfeasibleSystemError,
    NumericInstabilityError,
    SolveTimeoutError,
    UnboundedObjectiveError,
)
from repro.milp.cache import SolveCache
from repro.milp.certify import Certificate, certify_database, certify_repair
from repro.milp.deadline import Deadline
from repro.milp.iis import extract_iis
from repro.milp.model import Solution, SolveStatus
from repro.milp.solver import DEFAULT_BACKEND, SolveStats, solve_with_stats
from repro.relational.database import Database, diff_databases
from repro.repair.cascade import (
    TIER_EXACT,
    CascadeError,
    CascadeReport,
    run_cascade,
)
from repro.repair.cores import CORE_BACKENDS, CoreInfeasible, solve_cores
from repro.repair.heuristic import CHANGE_TOL, greedy_repair
from repro.repair.translation import (
    ConflictReport,
    MILPTranslation,
    RepairObjective,
    TranslationError,
    translate,
)
from repro.repair.updates import AtomicUpdate, Repair, apply_repair

#: Exact backends whose search accepts an incumbent seed.
_SEEDABLE_BACKENDS = frozenset({"bnb", "bnb-simplex"})

#: How many times the Big-M loop multiplies M by 100 before it gives
#: up; :meth:`RepairEngine.explain_infeasible` translates at the M it
#: gives up at.
MAX_ESCALATIONS = 3

#: Repair strategies: ``"exact"`` translates every violation straight
#: into ``S*(AC)``; ``"cascade"`` runs the tiered cascade of
#: :mod:`repro.repair.cascade` first and hands only the residue to the
#: MILP (tier T4).
STRATEGIES = ("exact", "cascade")


class UnrepairableError(InfeasibleSystemError, RuntimeError):
    """No repair exists (or none within the escalated Big-M bounds).

    Part of the typed failure taxonomy (:mod:`repro.diagnostics`):
    subclasses :class:`~repro.diagnostics.InfeasibleSystemError`, and
    keeps the historical ``RuntimeError`` base for existing callers.
    :meth:`RepairEngine.explain_infeasible` names the conflict.
    """


@dataclass
class RepairOutcome:
    """A computed card-minimal repair plus solve diagnostics."""

    repair: Repair
    objective: float
    #: The MILP artefacts.  ``None`` for MILP-free cascade repairs
    #: (``strategy="cascade"`` with an empty residue): no translation
    #: was ever built and no solver ran.
    translation: Optional[MILPTranslation] = None
    solution: Optional[Solution] = None
    escalations: int = 0
    #: SolveStats for every solver call this repair needed (the Big-M
    #: escalation loop may take several).
    stats: List[SolveStats] = field(default_factory=list)
    #: Anytime solving: True when the solve budget expired and this is
    #: the best incumbent rather than a proven card-minimal repair;
    #: ``gap`` is then the certified distance to the optimum.
    approximate: bool = False
    gap: Optional[float] = None
    #: Which strategy produced this outcome, and -- for cascades -- the
    #: per-tier report (fixes, hit/fallthrough/latency counters).
    strategy: str = "exact"
    cascade: Optional[CascadeReport] = None
    #: Exact-arithmetic certification (:mod:`repro.milp.certify`):
    #: True once the repaired document was re-verified against the
    #: paper-level ground constraints.  A repair that fails the check
    #: is never returned -- the engine escalates or raises instead.
    #: ``certificate`` carries the document-level evidence.
    certified: Optional[bool] = None
    certificate: Optional[Certificate] = None

    @property
    def cardinality(self) -> int:
        return self.repair.cardinality

    @property
    def status(self) -> str:
        """``"approximate"`` or ``"optimal"``."""
        if self.approximate:
            return "approximate"
        return "optimal"


class RepairEngine:
    """Card-minimal repair computation for one (database, constraints) pair."""

    def __init__(
        self,
        database: Database,
        constraints: Sequence[AggregateConstraint],
        *,
        backend: str = DEFAULT_BACKEND,
        objective: RepairObjective = RepairObjective.CARDINALITY,
        weights: Optional[Mapping[Cell, float]] = None,
        solve_cache: Optional[SolveCache] = None,
        strategy: str = "exact",
    ) -> None:
        """``objective`` / ``weights`` select the minimality semantics
        (see :class:`~repro.repair.translation.RepairObjective`); the
        default is the paper's card-minimality.  A shared ``solve_cache``
        lets identical grounded MILPs (re-acquired tables) skip the
        solver; every solve appends a
        :class:`~repro.milp.solver.SolveStats` record to
        :attr:`solve_stats`.

        When the MILP stays infeasible after every Big-M escalation the
        engine raises :class:`UnrepairableError`;
        :meth:`explain_infeasible` then names the conflicting ground
        constraints and pins.

        ``strategy="cascade"`` runs the tiered repair cascade
        (:mod:`repro.repair.cascade`) before the MILP: confusion
        inversion and the certified residue search clear what they
        can prove, and only the residue reaches
        the exact backend.  The cascade requires the cardinality
        objective; pins bypass it straight to the exact path.

        Every answer is self-verifying: solver incumbents are certified
        against the original MILP with the numerics degradation ladder
        behind them (:mod:`repro.milp.certify`), and the final repaired
        document is independently re-checked against the paper-level
        ground constraints -- so a bug anywhere in lowering or warm
        starts surfaces as a typed failure instead of a silently wrong
        repair."""
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        if strategy == "cascade" and objective is not RepairObjective.CARDINALITY:
            raise CascadeError(
                "strategy='cascade' certifies card-minimality only; use "
                "the exact strategy for weighted objectives"
            )
        self.strategy = strategy
        self.database = database
        self.constraints = list(constraints)
        self.backend = backend
        self.solve_cache = solve_cache
        self.solve_stats: List[SolveStats] = []
        self.objective = objective
        self.weights = dict(weights) if weights else None
        for constraint in self.constraints:
            constraint.validate(database.schema)
            if not constraint.is_steady(database.schema):
                witness = constraint.steadiness_witness(database.schema)
                raise ConstraintError(
                    f"constraint {constraint.name!r} is not steady (measure "
                    f"attributes {sorted(witness)} occur in A | J); the MILP "
                    f"translation of Section 5 does not apply"
                )
        self._grounding = GroundingEngine(
            database, self.constraints, require_steady=True
        )

    # ------------------------------------------------------------------
    # Detection
    # ------------------------------------------------------------------

    def violations(self, database: Optional[Database] = None) -> List[Violation]:
        """Ground constraints violated by the (given or own) instance."""
        return self._grounding.violations(database)

    def is_consistent(self, database: Optional[Database] = None) -> bool:
        """``D |= AC``?"""
        return self._grounding.is_consistent(database)

    @property
    def ground_system(self) -> List[GroundConstraint]:
        """The system ``S(AC)`` (cached)."""
        return self._grounding.system

    def involved_cells(self) -> List[Cell]:
        return self._grounding.cells()

    # ------------------------------------------------------------------
    # Repair computation
    # ------------------------------------------------------------------

    def find_card_minimal_repair(
        self,
        pins: Optional[Mapping[Cell, float]] = None,
        time_limit: Optional[float] = None,
        **solver_options,
    ) -> RepairOutcome:
        """Compute a card-minimal repair (Definition 5).

        ``pins`` maps cells to operator-imposed exact values
        (Section 6.3).  Raises :class:`UnrepairableError` if no repair
        exists.  The returned repair is verified against the
        constraints before being handed back.

        The cardinality objective on the in-repo backends (``"bnb"``,
        ``"bnb-simplex"``) runs the core-guided hitting-set loop of
        :mod:`repro.repair.cores`: no Big-M, no translation, and the
        outcome's ``translation`` and ``solution`` are None.  Every
        other case solves ``S*(AC)`` through
        :meth:`find_big_m_repair`, which also receives
        *solver_options*.

        ``time_limit`` is a wall-clock budget (seconds) for the whole
        computation, checked on a monotonic deadline inside the solver
        loops.  On expiry the engine returns its best incumbent as an
        *approximate* repair (``outcome.approximate`` with a certified
        ``gap``) when it has one, and raises
        :class:`~repro.diagnostics.SolveTimeoutError` otherwise.  The
        core loop's incumbent is the greedy repair of the components it
        did not settle, and its gap rests on the hitting number the loop
        proved.
        """
        if self.strategy == "cascade" and not pins:
            # Pins bypass the cascade: the closed-form tiers reason
            # about channel pre-images and equality rows, not about
            # operator-imposed values, so a pinned request goes
            # straight to the exact path below.
            return self._solve_cascade(time_limit, solver_options)
        if (
            self.objective is RepairObjective.CARDINALITY
            and self.backend in CORE_BACKENDS
        ):
            return self._solve_cores(pins, time_limit, solver_options)
        return self.find_big_m_repair(pins, time_limit, **solver_options)

    def find_big_m_repair(
        self,
        pins: Optional[Mapping[Cell, float]] = None,
        time_limit: Optional[float] = None,
        **solver_options,
    ) -> RepairOutcome:
        """Compute a minimal repair by solving the Big-M MILP ``S*(AC)``.

        The paper's Section 5 path, for every backend and objective:
        ``S*(AC)`` is translated, solved (with the greedy incumbent
        seed on the branch-and-bound backends) and the solution read
        back, escalating M (x100, at most :data:`MAX_ESCALATIONS` times)
        while the MILP is infeasible, the repair fails verification or
        a ``y`` variable sits on the bound.  The outcome carries the
        translation and the solution.  *solver_options* go to the
        backend (``max_nodes`` for the branch and bound, for example).

        ``time_limit`` is shared across escalations.  On expiry the
        backends return their best incumbent as an *approximate*
        repair; only when no incumbent exists at all does the engine
        raise :class:`~repro.diagnostics.SolveTimeoutError`.  A
        ``max_nodes`` budget that ends without an incumbent raises it
        too: the instance may well be repairable.
        """
        big_m_override: Optional[float] = None
        escalations = 0
        stats_start = len(self.solve_stats)
        deadline = Deadline(time_limit)
        while True:
            deadline.check("repair computation")
            translation = translate(
                self.database,
                self.constraints,
                pins=pins,
                big_m=big_m_override,
                grounds=self.ground_system,
                objective=self.objective,
                weights=self.weights,
            )
            logger.debug(
                "solving S*(AC): N=%d, %d ground rows, M=%g, backend=%s%s",
                translation.n,
                len(translation.grounds),
                translation.big_m,
                self.backend,
                f", {len(translation.pins)} pin(s)" if translation.pins else "",
            )
            solution, stats = self._solve_exact(
                translation, solver_options, deadline
            )
            self.solve_stats.append(stats)
            if solution.status is SolveStatus.INFEASIBLE:
                logger.info(
                    "MILP infeasible at M=%g (escalation %d/%d)",
                    translation.big_m, escalations, MAX_ESCALATIONS,
                )
                if escalations >= MAX_ESCALATIONS:
                    raise UnrepairableError(
                        f"MILP infeasible after {escalations} Big-M "
                        f"escalations; no repair exists within |value| <= "
                        f"{translation.big_m:g}"
                        + (" under the given pins" if pins else "")
                    )
                big_m_override = translation.big_m * 100.0
                escalations += 1
                continue
            if solution.status is SolveStatus.UNBOUNDED:
                raise UnboundedObjectiveError(
                    "MILP relaxation is unbounded: a measure variable "
                    "escaped its Big-M box (modelling invariant violated)",
                    big_m=translation.big_m,
                )
            if not solution.is_usable:
                if (
                    solution.status is SolveStatus.ITERATION_LIMIT
                    or solution.stats.get("deadline_expired")
                ):
                    # A node or wall-clock budget ran out before the
                    # search found any repair: a timeout, not a proof
                    # that none exists.
                    raise SolveTimeoutError(
                        "solve budget expired before any feasible repair "
                        "was found",
                        budget=time_limit,
                        status=solution.status.value,
                    )
                raise UnrepairableError(
                    f"MILP solver returned {solution.status.value}"
                )
            repair = translation.extract_repair(solution)
            repaired = apply_repair(self.database, repair)
            if not self.is_consistent(repaired):
                # Numerically possible only if M was too tight for some
                # intermediate value; escalate and retry.
                if escalations >= MAX_ESCALATIONS:
                    raise UnrepairableError(
                        "solver returned a candidate that fails verification "
                        "even after Big-M escalation"
                    )
                big_m_override = translation.big_m * 100.0
                escalations += 1
                continue
            if (
                translation.binding_deltas(solution)
                and escalations < MAX_ESCALATIONS
                and not deadline.expired
            ):
                # The bound binds: a smaller-cardinality repair might be
                # hiding beyond it.  Re-solve once with a larger M.
                big_m_override = translation.big_m * 100.0
                escalations += 1
                continue
            # Document-level exactness gate, independent of the
            # MILP-level certificate inside solve_with_stats: the
            # repaired cells are checked against the paper-level ground
            # constraints, so even a bug in the translation itself
            # cannot escape.
            certificate = certify_repair(translation, repair)
            if not certificate.certified:
                if escalations >= MAX_ESCALATIONS:
                    raise NumericInstabilityError(
                        "repair failed exact-arithmetic document "
                        "certification even after Big-M escalation",
                        certificate=certificate.as_dict(),
                    )
                big_m_override = translation.big_m * 100.0
                escalations += 1
                continue
            approximate = solution.status is SolveStatus.FEASIBLE_GAP
            logger.info(
                "%s repair found: objective=%g, %d update(s), "
                "%d escalation(s)%s",
                "approximate (anytime)" if approximate else "card-minimal",
                solution.objective or 0.0, repair.cardinality, escalations,
                f", gap={solution.gap:g}" if approximate else "",
            )
            return RepairOutcome(
                repair=repair,
                objective=float(solution.objective or 0.0),
                translation=translation,
                solution=solution,
                escalations=escalations,
                stats=self.solve_stats[stats_start:],
                approximate=approximate,
                gap=solution.gap,
                certified=certificate.certified,
                certificate=certificate,
            )

    # ------------------------------------------------------------------
    # The core-guided loop (cardinality on the in-repo backends)
    # ------------------------------------------------------------------

    def _solve_cores(
        self,
        pins: Optional[Mapping[Cell, float]],
        time_limit: Optional[float],
        solver_options: Dict,
    ) -> RepairOutcome:
        """A card-minimal repair from :func:`~repro.repair.cores.solve_cores`.

        A component the loop hands back (bounds or ``<=`` rows that
        leave a support column free, a fractional value on an integer
        cell) is solved by :meth:`find_big_m_repair` on a child engine
        restricted to its rows, with *solver_options*; the child's
        records join this engine's.  Components the deadline leaves
        unsettled get the greedy repair, and the gap counts its changes
        above the hitting number the loop proved.  Appends one
        ``phase="cores"`` record with the loop's counters.  The repaired
        document is certified against every ground row, as cascade
        repairs are.
        """
        started = time.perf_counter()
        stats_start = len(self.solve_stats)
        deadline = Deadline(time_limit)
        deadline.check("repair computation")
        try:
            result = solve_cores(
                self.ground_system, self.database, pins=pins, deadline=deadline
            )
        except CoreInfeasible as exc:
            raise UnrepairableError(
                f"no repair exists{' under the given pins' if pins else ''}: "
                f"{exc}"
            ) from None
        assignment = result.assignment
        unsettled = [ground for rows in result.expired for ground in rows]
        escalations = 0
        gap = 0.0
        for grounds in result.fallback:
            left = deadline.remaining()
            if left == 0.0:  # expired (None is the unbounded deadline)
                unsettled.extend(grounds)
                continue
            cells = {cell for ground in grounds for cell in ground.coefficients}
            try:
                outcome = self._child_engine(
                    self.database, grounds
                ).find_big_m_repair(
                    pins={c: v for c, v in (pins or {}).items() if c in cells}
                    or None,
                    time_limit=left,
                    **solver_options,
                )
            except SolveTimeoutError:
                unsettled.extend(grounds)
                continue
            self.solve_stats.extend(outcome.stats)
            escalations += outcome.escalations
            for update in outcome.repair:
                assignment[update.cell] = update.new_value
            if outcome.approximate:
                gap += outcome.gap or 0.0
        if unsettled:
            changes = self._greedy_changes(unsettled, pins)
            if changes is None:
                raise SolveTimeoutError(
                    "solve budget expired before any feasible repair was "
                    "found",
                    budget=time_limit,
                )
            assignment.update(changes)
            gap += len(changes) - result.expired_bound
        # A gap of 0 proves the repair card-minimal, cut or not.
        approximate = gap > 0
        repair = Repair(
            AtomicUpdate(*cell, float(self.database.get_value(*cell)), value)
            for cell, value in assignment.items()
        )
        repaired = apply_repair(self.database, repair)
        certificate = certify_database(self.ground_system, repaired)
        if not certificate.certified:
            raise NumericInstabilityError(
                "core-loop repair failed exact-arithmetic database "
                "certification",
                certificate=certificate.as_dict(),
            )
        counters = result.stats
        self.solve_stats.append(
            SolveStats(
                backend=self.backend,
                status="feasible_gap" if approximate else "optimal",
                wall_time=time.perf_counter() - started,
                objective=float(repair.cardinality),
                gap=gap,
                phase="cores",
                certified=certificate.certified,
                certification=certificate.level,
                components=counters.components,
                master_rounds=counters.master_rounds,
                cores=counters.cores,
                bigm_fallbacks=counters.bigm_fallbacks,
            )
        )
        logger.info(
            "%s repair found by the core loop: %d update(s), %d master "
            "round(s), %d core(s) learned",
            "approximate (anytime)" if approximate else "card-minimal",
            repair.cardinality, counters.master_rounds, counters.cores,
        )
        return RepairOutcome(
            repair=repair,
            objective=float(repair.cardinality),
            escalations=escalations,
            stats=self.solve_stats[stats_start:],
            approximate=approximate,
            gap=gap,
            certified=certificate.certified,
            certificate=certificate,
        )

    def _greedy_changes(
        self,
        grounds: List[GroundConstraint],
        pins: Optional[Mapping[Cell, float]],
    ) -> Optional[Dict[Cell, float]]:
        """The cells the greedy repair of *grounds* changes, pinned
        cells left out; None when the heuristic fails.

        Runs after the deadline, bounded by the heuristic's own round
        cap.
        """
        cells = {cell for ground in grounds for cell in ground.coefficients}
        pinned = {c: v for c, v in (pins or {}).items() if c in cells}
        translation = translate(
            self.database,
            self.constraints,
            pins=pinned or None,
            grounds=grounds,
            objective=self.objective,
        )
        seed = greedy_repair(translation)
        if seed is None:
            return None
        changes: Dict[Cell, float] = {}
        for i, cell in enumerate(translation.cells):
            value = seed.z_values[i]
            if translation.integer_cells[i]:
                value = round(value)
            original = translation.values[i]
            if cell not in pinned and abs(value - original) > CHANGE_TOL:
                changes[cell] = value
        return changes

    def _child_engine(
        self, database: Database, grounds: Sequence[GroundConstraint]
    ) -> "RepairEngine":
        """An engine with this one's settings over *database*, solving
        *grounds* as its whole ground system."""
        child = RepairEngine(
            database,
            self.constraints,
            backend=self.backend,
            objective=self.objective,
            solve_cache=self.solve_cache,
        )
        child._grounding._system = list(grounds)
        return child

    # ------------------------------------------------------------------
    # The tiered cascade (strategy="cascade")
    # ------------------------------------------------------------------

    def _solve_cascade(
        self, time_limit: Optional[float], solver_options: Dict
    ) -> RepairOutcome:
        """Tiers T1 and T3 on a working copy, then the exact T4 residue.

        Emits one synthetic :class:`~repro.milp.solver.SolveStats`
        record per cascade tier (``backend="cascade"``,
        ``phase="cascade"``, hit/fallthrough counts in the ``tier_*``
        fields) alongside the real solver records of the residue, which
        are stamped ``tier="t4-exact"``.  The combined repair (cascade
        fixes plus residue updates) is re-verified against the full
        constraint set before being handed back, exactly like an exact
        repair.
        """
        stats_start = len(self.solve_stats)
        deadline = Deadline(time_limit)
        working, report = run_cascade(
            self.database,
            self.constraints,
            grounds=self.ground_system,
        )
        for tier_stats in report.tiers:
            self.solve_stats.append(
                SolveStats(
                    backend="cascade",
                    status="tier",
                    wall_time=tier_stats.wall_time,
                    phase="cascade",
                    tier=tier_stats.tier,
                    tier_hits=tier_stats.resolved,
                    tier_fallthroughs=tier_stats.fallthroughs,
                )
            )
        escalations = 0
        translation: Optional[MILPTranslation] = None
        solution: Optional[Solution] = None
        approximate = False
        gap: Optional[float] = None
        final = working
        if report.milp_invoked:
            deadline.check("cascade residue solve")
            # Steady constraints make the ground system value-
            # independent, so the system grounded on the original
            # instance is exactly S(AC) for the working copy too.
            child = self._child_engine(working, self.ground_system)
            outcome = child.find_card_minimal_repair(
                time_limit=(
                    deadline.remaining()
                    if deadline.budget is not None
                    else None
                ),
                **solver_options,
            )
            for position, stats in enumerate(outcome.stats):
                stats.tier = TIER_EXACT
                # Residual-row count once per repair, not once per
                # escalation record, so aggregates sum cleanly.
                stats.tier_hits = report.n_residual if position == 0 else 0
            self.solve_stats.extend(outcome.stats)
            escalations = outcome.escalations
            translation = outcome.translation
            solution = outcome.solution
            approximate = outcome.approximate
            gap = outcome.gap
            final = apply_repair(working, outcome.repair)
        repair = Repair(
            [
                AtomicUpdate(relation, tuple_id, attribute, old, new)
                for relation, tuple_id, attribute, old, new in diff_databases(
                    self.database, final
                )
            ]
        )
        if not self.is_consistent(final):
            raise UnrepairableError(
                "cascade verification failed: the combined repair leaves "
                "a ground constraint violated"
            )
        # T3-T4 exactness gate: the finished working database is
        # checked against every ground constraint -- the closed-form
        # tiers mutate cells outside any MILP, so only a database-level
        # certificate covers them all.
        certificate = certify_database(self.ground_system, final)
        if not certificate.certified:
            raise NumericInstabilityError(
                "cascade repair failed exact-arithmetic database "
                "certification",
                certificate=certificate.as_dict(),
            )
        logger.info(
            "cascade repair found: %d update(s), %d/%d violation(s) "
            "resolved before the MILP%s",
            repair.cardinality,
            report.resolved_without_milp,
            report.n_violations,
            "" if report.milp_invoked else " (MILP-free)",
        )
        return RepairOutcome(
            repair=repair,
            objective=float(repair.cardinality),
            translation=translation,
            solution=solution,
            escalations=escalations,
            stats=self.solve_stats[stats_start:],
            approximate=approximate,
            gap=gap,
            strategy="cascade",
            cascade=report,
            certified=certificate.certified,
            certificate=certificate,
        )

    # ------------------------------------------------------------------
    # Infeasibility forensics
    # ------------------------------------------------------------------

    def explain_infeasible(
        self,
        pins: Optional[Mapping[Cell, float]] = None,
        time_limit: Optional[float] = None,
    ) -> ConflictReport:
        """Name the conflict that makes the instance unrepairable.

        Translates at the fully-escalated Big-M (the same bound
        :meth:`find_card_minimal_repair` gives up at), extracts an IIS
        and maps it back to ground constraints, pins and cells.  Raises
        :class:`~repro.milp.iis.IISError` when the instance is in fact
        repairable.

        Probes bypass the solve cache by construction (see
        :mod:`repro.milp.iis`).  Appends one synthetic
        :class:`~repro.milp.solver.SolveStats` record with
        ``phase="iis"`` (``nodes`` carries the probe count).
        """
        deadline = Deadline(time_limit)
        base = translate(
            self.database,
            self.constraints,
            pins=pins,
            grounds=self.ground_system,
            objective=self.objective,
            weights=self.weights,
        )
        translation = translate(
            self.database,
            self.constraints,
            pins=pins,
            big_m=base.big_m * (100.0 ** MAX_ESCALATIONS),
            grounds=self.ground_system,
            objective=self.objective,
            weights=self.weights,
        )
        started = time.perf_counter()
        iis = extract_iis(
            translation.model,
            backend=self.backend,
            deadline=deadline,
            groups=[translation.structural_rows()],
        )
        self.solve_stats.append(
            SolveStats(
                backend=self.backend,
                status="infeasible",
                wall_time=time.perf_counter() - started,
                nodes=iis.probes,
                n_variables=translation.model.n_variables,
                n_constraints=translation.model.n_constraints,
                phase="iis",
            )
        )
        return translation.conflict_report(iis)

    def _solve_exact(
        self,
        translation: MILPTranslation,
        solver_options: Dict,
        deadline: Optional[Deadline] = None,
    ):
        """One exact solve, with the incumbent seed threaded in."""
        options = dict(solver_options)
        if deadline is not None and deadline.budget is not None:
            # Whatever budget the escalation loop has left bounds this
            # solve; every exact backend honours ``time_limit``.
            options["time_limit"] = deadline.remaining()
        seeded_objective: Optional[float] = None
        if self.backend in _SEEDABLE_BACKENDS and "incumbent" not in options:
            seed = greedy_repair(translation, deadline=deadline)
            if seed is not None:
                options["incumbent"] = seed.assignment
                seeded_objective = seed.objective
        solution, stats = solve_with_stats(
            translation.model,
            backend=self.backend,
            cache=self.solve_cache,
            **options,
        )
        if seeded_objective is not None:
            stats.heuristic_seeded = True
            if solution.objective is not None:
                stats.heuristic_gap = max(
                    0.0, seeded_objective - solution.objective
                )
        return solution, stats

    # ------------------------------------------------------------------
    # Application / verification
    # ------------------------------------------------------------------

    def apply(self, repair: Repair) -> Database:
        """``rho(D)`` -- a repaired copy; the original is untouched."""
        return apply_repair(self.database, repair)

    def is_repair(self, repair: Repair) -> bool:
        """Definition 4: does applying *repair* satisfy the constraints?"""
        return self.is_consistent(apply_repair(self.database, repair))
