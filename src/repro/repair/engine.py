"""The repair engine: DART's repairing module (Sections 5 and 6.3).

:class:`RepairEngine` owns a database instance and a set of steady
aggregate constraints and answers:

- ``is_consistent()`` / ``violations()`` -- the detection step;
- ``find_card_minimal_repair(pins=...)`` -- the MILP-based computation
  of a card-minimal repair, with operator pins from the validation
  loop folded in as additional equality constraints;
- ``apply(repair)`` / ``is_repair(repair)`` -- repair application and
  verification.

Every returned repair is *verified*: the engine applies it to a copy
of the database and re-checks all constraints, so a Big-M artefact or
a solver tolerance issue can never silently hand back a non-repair.
If the MILP comes back infeasible, or a ``y`` variable lands on the
Big-M bound, the engine escalates M (x100, a bounded number of times)
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
from repro.milp.iis import IISError, extract_iis
from repro.milp.model import Solution, SolveStatus
from repro.milp.solver import DEFAULT_BACKEND, SolveStats, solve_with_stats
from repro.relational.database import Database, diff_databases
from repro.repair.cascade import (
    TIER_EXACT,
    CascadeError,
    CascadeReport,
    run_cascade,
)
from repro.repair.heuristic import greedy_repair
from repro.repair.relax import RelaxationReport, relax_infeasible
from repro.repair.translation import (
    BigMStrategy,
    ConflictReport,
    MILPTranslation,
    RepairObjective,
    TranslationError,
    translate,
)
from repro.repair.updates import AtomicUpdate, Repair, apply_repair

#: The engine-level approximate backend: the greedy primal heuristic
#: of :mod:`repro.repair.heuristic` instead of an exact MILP solve.
#: Repairs it returns are verified but carry no minimality certificate.
HEURISTIC_BACKEND = "heuristic"

#: Exact backends whose search accepts an incumbent seed.
_SEEDABLE_BACKENDS = frozenset({"bnb", "bnb-simplex"})

#: What the engine does once the MILP stays INFEASIBLE after every
#: Big-M escalation (see ``RepairEngine(on_infeasible=...)``).
ON_INFEASIBLE_MODES = ("raise", "explain", "relax")

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

    When raised by ``on_infeasible="explain"``, :attr:`conflict` holds
    the :class:`~repro.repair.translation.ConflictReport` and the
    ``infeasible_system`` detail carries its dict form.
    """

    #: The IIS mapped back to ground constraints and pins, when the
    #: engine ran conflict extraction before raising.
    conflict: Optional[ConflictReport] = None


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
    #: Elastic relaxation (``on_infeasible="relax"``): True when the
    #: original instance was infeasible and this repair minimises
    #: violations lexicographically instead of satisfying everything;
    #: ``violations`` is then the structured report.  Relaxed outcomes
    #: are never cached and never counted as exact repairs.
    relaxed: bool = False
    violations: Optional[RelaxationReport] = None
    #: Which strategy produced this outcome, and -- for cascades -- the
    #: per-tier report (fixes, hit/fallthrough/latency counters).
    strategy: str = "exact"
    cascade: Optional[CascadeReport] = None
    #: Exact-arithmetic certification (:mod:`repro.milp.certify`):
    #: True when the repaired document was re-verified against the
    #: paper-level ground constraints in rationals, None when
    #: certification was off (``certify=False``) or not applicable
    #: (relaxed outcomes intentionally violate constraints).  A repair
    #: with ``certified=False`` is never returned -- the engine
    #: escalates or raises instead.  ``certificate`` carries the
    #: document-level evidence.
    certified: Optional[bool] = None
    certificate: Optional[Certificate] = None

    @property
    def cardinality(self) -> int:
        return self.repair.cardinality

    @property
    def status(self) -> str:
        """``"relaxed"``, ``"approximate"`` or ``"optimal"``."""
        if self.relaxed:
            return "relaxed"
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
        big_m_strategy: BigMStrategy = BigMStrategy.PRACTICAL,
        max_escalations: int = 3,
        objective: RepairObjective = RepairObjective.CARDINALITY,
        weights: Optional[Mapping[Cell, float]] = None,
        solve_cache: Optional[SolveCache] = None,
        presolve: bool = True,
        seed_incumbent: bool = True,
        on_infeasible: str = "raise",
        strategy: str = "exact",
        misrepair_budget: int = 0,
        certify: bool = True,
    ) -> None:
        """``objective`` / ``weights`` select the minimality semantics
        (see :class:`~repro.repair.translation.RepairObjective`); the
        default is the paper's card-minimality.  A shared ``solve_cache``
        lets identical grounded MILPs (re-acquired tables) skip the
        solver; every solve appends a
        :class:`~repro.milp.solver.SolveStats` record to
        :attr:`solve_stats`.

        ``backend`` additionally accepts ``"heuristic"``: the greedy
        primal repair of :mod:`repro.repair.heuristic`, which returns a
        verified but not necessarily card-minimal repair.  ``presolve``
        and ``seed_incumbent`` steer the branch-and-bound backends
        (``"bnb"`` / ``"bnb-simplex"``): the former toggles the MILP
        presolve pass, the latter seeds the search with the heuristic's
        repair as an initial incumbent.  Neither affects which repair
        is optimal.

        ``on_infeasible`` selects the degradation path once the MILP
        stays infeasible after every Big-M escalation: ``"raise"``
        (default, historical behaviour), ``"explain"`` (run IIS
        extraction and raise an :class:`UnrepairableError` naming the
        conflicting ground constraints and pins), or ``"relax"``
        (return a best-effort :class:`RepairOutcome` with
        ``relaxed=True`` and a violation report -- see
        :mod:`repro.repair.relax`).

        ``strategy="cascade"`` runs the tiered repair cascade
        (:mod:`repro.repair.cascade`) before the MILP: confusion
        inversion and the certified residue search clear what they
        can prove, and only the residue reaches
        the exact backend.  ``misrepair_budget`` bounds how many
        ambiguous closed-form guesses the cascade may take (default 0:
        fall through instead of guessing).  The cascade requires the
        cardinality objective; pins bypass it straight to the exact
        path.

        ``certify`` (default True) makes every answer self-verifying:
        solver incumbents are replayed against the original MILP in
        exact rational arithmetic with the numerics degradation ladder
        behind them (:mod:`repro.milp.certify`), and the final repaired
        document is independently re-checked against the paper-level
        ground constraints -- so a bug anywhere in lowering, presolve,
        cuts or warm starts surfaces as a typed failure instead of a
        silently wrong repair."""
        if on_infeasible not in ON_INFEASIBLE_MODES:
            raise ValueError(
                f"on_infeasible must be one of {ON_INFEASIBLE_MODES}, "
                f"got {on_infeasible!r}"
            )
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        if misrepair_budget < 0:
            raise CascadeError(
                f"misrepair_budget must be >= 0, got {misrepair_budget}"
            )
        if strategy == "cascade" and objective is not RepairObjective.CARDINALITY:
            raise CascadeError(
                "strategy='cascade' certifies card-minimality only; use "
                "the exact strategy for weighted objectives"
            )
        self.on_infeasible = on_infeasible
        self.strategy = strategy
        self.misrepair_budget = int(misrepair_budget)
        self.certify = bool(certify)
        self.database = database
        self.constraints = list(constraints)
        self.backend = backend
        self.presolve = presolve
        self.seed_incumbent = seed_incumbent
        self.solve_cache = solve_cache
        self.solve_stats: List[SolveStats] = []
        self.big_m_strategy = big_m_strategy
        self.max_escalations = max_escalations
        self.objective = objective
        self.weights = dict(weights) if weights else None
        #: Folded into every solve-cache key (see
        #: :meth:`~repro.milp.cache.SolveCache.key_for`): a cascade
        #: residue solves a *mutated* working copy under different
        #: semantics, so its entries must never be served for a plain
        #: exact request -- and vice versa.
        self._cache_semantics: Optional[Dict[str, object]] = (
            None
            if strategy == "exact"
            else {
                "strategy": strategy,
                "misrepair_budget": self.misrepair_budget,
            }
        )
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
        """Compute a card-minimal repair (Definition 5) via ``S*(AC)``.

        ``pins`` maps cells to operator-imposed exact values
        (Section 6.3).  Raises :class:`UnrepairableError` if no repair
        exists.  The returned repair is verified against the
        constraints before being handed back.

        ``time_limit`` is a wall-clock budget (seconds) for the whole
        computation, shared across Big-M escalations and checked on a
        monotonic deadline inside the solver loops.  On expiry the
        exact backends return their best incumbent as an *approximate*
        repair (``outcome.approximate`` with a certified ``gap``); only
        when no incumbent exists at all does the engine raise
        :class:`~repro.diagnostics.SolveTimeoutError`.
        """
        if self.strategy == "cascade" and not pins:
            # Pins bypass the cascade: the closed-form tiers reason
            # about channel pre-images and equality rows, not about
            # operator-imposed values, so a pinned request goes
            # straight to the exact path below.
            return self._solve_cascade(time_limit, solver_options)
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
                strategy=self.big_m_strategy,
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
            if self.backend == HEURISTIC_BACKEND:
                try:
                    solution, stats = self._solve_heuristic(translation, deadline)
                except UnrepairableError:
                    # The greedy heuristic proves nothing about
                    # infeasibility, but the configured degradation
                    # path still applies: relaxation subsumes the miss
                    # (a feasible instance relaxes to zero violations)
                    # and explanation distinguishes the two cases.
                    if self.on_infeasible == "raise":
                        raise
                    return self._conclude_infeasible(
                        translation, pins, deadline, stats_start, escalations
                    )
            else:
                solution, stats = self._solve_exact(
                    translation, solver_options, deadline
                )
            self.solve_stats.append(stats)
            if solution.status is SolveStatus.INFEASIBLE:
                logger.info(
                    "MILP infeasible at M=%g (escalation %d/%d)",
                    translation.big_m, escalations, self.max_escalations,
                )
                if escalations >= self.max_escalations:
                    return self._conclude_infeasible(
                        translation, pins, deadline, stats_start, escalations
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
                if solution.stats.get("deadline_expired"):
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
                if escalations >= self.max_escalations:
                    raise UnrepairableError(
                        "solver returned a candidate that fails verification "
                        "even after Big-M escalation"
                    )
                big_m_override = translation.big_m * 100.0
                escalations += 1
                continue
            if (
                translation.binding_deltas(solution)
                and escalations < self.max_escalations
                and not deadline.expired
            ):
                # The bound binds: a smaller-cardinality repair might be
                # hiding beyond it.  Re-solve once with a larger M.
                big_m_override = translation.big_m * 100.0
                escalations += 1
                continue
            certificate: Optional[Certificate] = None
            if self.certify:
                # Document-level exactness gate, independent of the
                # MILP-level certificate inside solve_with_stats: the
                # repaired cells are replayed against the paper-level
                # ground constraints in rationals, so even a bug in
                # the translation itself cannot escape.
                certificate = certify_repair(translation, repair)
                if not certificate.certified:
                    if escalations >= self.max_escalations:
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
                certified=certificate.certified if certificate else None,
                certificate=certificate,
            )

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
            misrepair_budget=self.misrepair_budget,
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
        relaxed = False
        violations: Optional[RelaxationReport] = None
        final = working
        if report.milp_invoked:
            deadline.check("cascade residue solve")
            child = RepairEngine(
                working,
                self.constraints,
                backend=self.backend,
                big_m_strategy=self.big_m_strategy,
                max_escalations=self.max_escalations,
                objective=self.objective,
                solve_cache=self.solve_cache,
                presolve=self.presolve,
                seed_incumbent=self.seed_incumbent,
                on_infeasible=self.on_infeasible,
                certify=self.certify,
            )
            # Steady constraints make the ground system value-
            # independent, so the system grounded on the original
            # instance is exactly S(AC) for the working copy too.
            child._grounding._system = list(self.ground_system)
            # The residue is solved *under cascade semantics*: its
            # cache entries must never be served for a plain exact
            # request (and vice versa).
            child._cache_semantics = dict(self._cache_semantics or {})
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
            relaxed = outcome.relaxed
            violations = outcome.violations
            final = apply_repair(working, outcome.repair)
        repair = Repair(
            [
                AtomicUpdate(relation, tuple_id, attribute, old, new)
                for relation, tuple_id, attribute, old, new in diff_databases(
                    self.database, final
                )
            ]
        )
        if not relaxed and not self.is_consistent(final):
            raise UnrepairableError(
                "cascade verification failed: the combined repair leaves "
                "a ground constraint violated"
            )
        certificate: Optional[Certificate] = None
        if self.certify and not relaxed:
            # T3-T4 exactness gate: the finished working database is
            # replayed against every ground constraint in rationals --
            # the closed-form tiers mutate cells outside any MILP, so
            # only a database-level certificate covers them all.
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
            relaxed=relaxed,
            violations=violations,
            strategy="cascade",
            cascade=report,
            certified=certificate.certified if certificate else None,
            certificate=certificate,
        )

    # ------------------------------------------------------------------
    # Infeasibility forensics
    # ------------------------------------------------------------------

    def _forensics_backend(self) -> str:
        """The exact backend used for IIS probes and relaxation solves."""
        if self.backend in ("scipy", "bnb", "bnb-simplex"):
            return self.backend
        return DEFAULT_BACKEND

    def _base_message(self, translation: MILPTranslation, escalations: int,
                      pins) -> str:
        return (
            f"MILP infeasible after {escalations} Big-M escalations; "
            f"no repair exists within |value| <= {translation.big_m:g}"
            + (" under the given pins" if pins else "")
        )

    def _conflict_report(
        self, translation: MILPTranslation, deadline: Deadline
    ) -> ConflictReport:
        """Run IIS extraction on *translation* and map it back.

        Probes bypass the solve cache by construction (see
        :mod:`repro.milp.iis`).  Appends one synthetic
        :class:`~repro.milp.solver.SolveStats` record with
        ``phase="iis"`` (``nodes`` carries the probe count).
        """
        started = time.perf_counter()
        iis = extract_iis(
            translation.model,
            backend=self._forensics_backend(),
            deadline=deadline,
            groups=[translation.structural_rows()],
        )
        self.solve_stats.append(
            SolveStats(
                backend=self._forensics_backend(),
                status="infeasible",
                wall_time=time.perf_counter() - started,
                nodes=iis.probes,
                n_variables=translation.model.n_variables,
                n_constraints=translation.model.n_constraints,
                phase="iis",
            )
        )
        return translation.conflict_report(iis)

    def _conclude_infeasible(
        self,
        translation: MILPTranslation,
        pins,
        deadline: Deadline,
        stats_start: int,
        escalations: int,
    ) -> RepairOutcome:
        """Apply the configured ``on_infeasible`` degradation path."""
        message = self._base_message(translation, escalations, pins)
        if self.on_infeasible == "relax":
            outcome = relax_infeasible(
                translation,
                backend=self._forensics_backend(),
                deadline=deadline,
            )
            self.solve_stats.extend(outcome.report.stats)
            self._verify_relaxed(outcome)
            logger.info(
                "relaxed repair found: %d update(s), %d violated "
                "constraint(s), total violation %g",
                outcome.repair.cardinality,
                outcome.report.n_violated,
                outcome.report.total_violation,
            )
            return RepairOutcome(
                repair=outcome.repair,
                objective=float(outcome.objective),
                translation=translation,
                solution=outcome.solution,
                escalations=escalations,
                stats=self.solve_stats[stats_start:],
                relaxed=True,
                violations=outcome.report,
            )
        if self.on_infeasible == "explain":
            try:
                report = self._conflict_report(translation, deadline)
            except IISError as error:
                # Only reachable when the infeasibility verdict came
                # from the approximate heuristic but the instance is
                # actually feasible.
                raise UnrepairableError(
                    f"{message} -- but conflict extraction found the "
                    f"instance feasible ({error}); the heuristic missed "
                    f"a repair, retry an exact backend"
                ) from error
            error = UnrepairableError(
                f"{message}; {report.summary()}",
                infeasible_system=report.as_dict(),
            )
            error.conflict = report
            raise error
        raise UnrepairableError(message)

    def _verify_relaxed(self, outcome) -> None:
        """A relaxed repair may only violate what its report declares."""
        repaired = apply_repair(self.database, outcome.repair)
        reported = {
            violation.ground.normalized_key()
            for violation in outcome.report.violations
        }
        for violation in self.violations(repaired):
            if violation.ground.normalized_key() not in reported:
                raise UnrepairableError(
                    "relaxed repair verification failed: the repaired "
                    "instance violates a ground constraint the violation "
                    f"report does not declare ({violation.ground.source})"
                )

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
        """
        deadline = Deadline(time_limit)
        translation = translate(
            self.database,
            self.constraints,
            pins=pins,
            strategy=self.big_m_strategy,
            grounds=self.ground_system,
            objective=self.objective,
            weights=self.weights,
        )
        if self.max_escalations > 0:
            translation = translate(
                self.database,
                self.constraints,
                pins=pins,
                strategy=self.big_m_strategy,
                big_m=translation.big_m * (100.0 ** self.max_escalations),
                grounds=self.ground_system,
                objective=self.objective,
                weights=self.weights,
            )
        return self._conflict_report(translation, deadline)

    def _solve_heuristic(
        self, translation: MILPTranslation, deadline: Optional[Deadline] = None
    ):
        """Run the greedy primal heuristic as the solve step.

        The returned solution is stamped OPTIMAL so the shared
        extraction/verification path accepts it; the point is verified
        feasible by the heuristic itself (and re-verified against the
        constraints by the caller), but its cardinality carries no
        minimality certificate.
        """
        started = time.perf_counter()
        result = greedy_repair(translation, deadline=deadline)
        elapsed = time.perf_counter() - started
        if result is None:
            raise UnrepairableError(
                "the greedy repair heuristic found no repair; the "
                "heuristic is approximate -- retry with an exact backend "
                "('scipy', 'bnb', 'bnb-simplex') before concluding the "
                "instance is unrepairable"
            )
        solution = Solution(
            SolveStatus.OPTIMAL,
            objective=result.objective,
            values=translation.model.solution_values(result.assignment),
            stats={
                "nodes": 0.0,
                "lp_iterations": 0.0,
                "heuristic_iterations": float(result.iterations),
            },
        )
        stats = SolveStats(
            backend=HEURISTIC_BACKEND,
            status="optimal",
            wall_time=elapsed,
            n_variables=translation.model.n_variables,
            n_constraints=translation.model.n_constraints,
            objective=result.objective,
        )
        return solution, stats

    def _solve_exact(
        self,
        translation: MILPTranslation,
        solver_options: Dict,
        deadline: Optional[Deadline] = None,
    ):
        """One exact solve, with presolve/seeding options threaded in."""
        options = dict(solver_options)
        if deadline is not None and deadline.budget is not None:
            # Whatever budget the escalation loop has left bounds this
            # solve; every exact backend honours ``time_limit``.
            options["time_limit"] = deadline.remaining()
        seeded_objective: Optional[float] = None
        if self.backend in _SEEDABLE_BACKENDS:
            options.setdefault("presolve", self.presolve)
            if self.seed_incumbent and "incumbent" not in options:
                seed = greedy_repair(translation, deadline=deadline)
                if seed is not None:
                    options["incumbent"] = seed.assignment
                    seeded_objective = seed.objective
        solution, stats = solve_with_stats(
            translation.model,
            backend=self.backend,
            cache=self.solve_cache,
            cache_semantics=self._cache_semantics,
            certify=self.certify,
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
