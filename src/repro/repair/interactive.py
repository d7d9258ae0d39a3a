"""The supervised validation loop of Section 6.3.

DART does not apply repairs blindly: the computed repair is shown to a
human *operator*, update by update.  For each suggested update the
operator compares the suggested value with the source document and

- **accepts** it (the values coincide), which pins the database item to
  the suggested value, or
- **rejects** it and reveals the actual source value, which pins the
  item to that value.

Pins become equality constraints of the next MILP instance and a new
repair is computed; the loop ends when a proposed repair consists
entirely of already-validated values.  Updates are displayed in
*involvement order* -- items occurring in more ground constraints
first -- the paper's heuristic for converging in few iterations when
the operator validates only a prefix of each proposal.

The :class:`OracleOperator` simulates the human against a known
ground-truth database (exactly the comparison the paper's operator
performs against the source document), which makes
"iterations to acceptance" and "values inspected" measurable at scale.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Protocol, Sequence, Tuple as PyTuple

logger = logging.getLogger(__name__)

from repro.constraints.grounding import Cell, GroundConstraint
from repro.relational.database import Database
from repro.repair.engine import RepairEngine, RepairOutcome, UnrepairableError
from repro.repair.translation import ConflictReport
from repro.repair.updates import AtomicUpdate, Repair


@dataclass(frozen=True)
class Verdict:
    """The operator's answer for one suggested update."""

    accepted: bool
    #: On rejection, the actual source value the operator read.
    actual_value: Optional[float] = None


class Operator(Protocol):
    """Anything that can play the operator role."""

    def review(self, update: AtomicUpdate) -> Verdict:
        """Compare *update*'s suggested value against the source."""
        ...


class OracleOperator:
    """An operator that reads the source values from a ground-truth DB.

    When the acquired database is supplied, tuples are matched to the
    ground truth through the relation's declared *key* (e.g.
    ``(Year, Subsection)`` for the running example) -- robust even when
    the wrapper dropped or reordered rows, because the key attributes
    are lexical values the msi binding already normalised.  Without an
    acquired database (or without a declared key) matching falls back
    to tuple ids, which assumes identical insertion order.
    """

    def __init__(
        self, ground_truth: Database, acquired: Optional[Database] = None
    ) -> None:
        self.ground_truth = ground_truth
        self.acquired = acquired
        self.reviews = 0

    def _truth_value(self, update: AtomicUpdate) -> float:
        schema = self.ground_truth.schema.relation(update.relation)
        if self.acquired is not None and schema.key is not None:
            acquired_tuple = self.acquired.relation(update.relation).get(
                update.tuple_id
            )
            key = acquired_tuple.key_values()
            for candidate in self.ground_truth.relation(update.relation):
                if candidate.key_values() == key:
                    return float(candidate[update.attribute])
            raise KeyError(
                f"ground truth has no {update.relation} tuple with key {key}"
            )
        return float(
            self.ground_truth.get_value(
                update.relation, update.tuple_id, update.attribute
            )
        )

    def review(self, update: AtomicUpdate) -> Verdict:
        self.reviews += 1
        true_value = self._truth_value(update)
        if true_value == float(update.new_value):
            return Verdict(accepted=True)
        return Verdict(accepted=False, actual_value=true_value)


class FallibleOperator:
    """An oracle operator that makes mistakes at a configurable rate.

    The paper assumes a perfect operator; real data-entry clerks
    occasionally wave a wrong value through or mistype the value they
    read off the source.  With probability ``slip_rate`` a review goes
    wrong: an update that should be accepted is rejected with a
    slightly perturbed "source" value, or one that should be rejected
    is accepted.  Used to measure how gracefully the validation loop
    degrades (garbage verdicts do poison pins -- the loop is exactly
    as reliable as its operator, which the tests make explicit).
    """

    def __init__(
        self, ground_truth: Database, *, slip_rate: float = 0.05, seed: int = 0,
        acquired: Optional[Database] = None,
    ) -> None:
        if not 0.0 <= slip_rate <= 1.0:
            raise ValueError("slip_rate must be in [0, 1]")
        self._oracle = OracleOperator(ground_truth, acquired=acquired)
        self.slip_rate = slip_rate
        self.slips = 0
        import random

        self._rng = random.Random(seed)

    @property
    def reviews(self) -> int:
        return self._oracle.reviews

    def review(self, update: AtomicUpdate) -> Verdict:
        verdict = self._oracle.review(update)
        if self._rng.random() >= self.slip_rate:
            return verdict
        self.slips += 1
        if verdict.accepted:
            # Misread the source: reject with a perturbed value.
            true_value = float(update.new_value)
            return Verdict(accepted=False, actual_value=true_value + 1.0)
        # Wave the wrong value through.
        return Verdict(accepted=True)


def involvement_order(
    grounds: Sequence[GroundConstraint], updates: Sequence[AtomicUpdate]
) -> List[AtomicUpdate]:
    """Sort *updates* by decreasing ground-constraint involvement.

    The paper displays update ``u1`` before ``u2`` if the item changed
    by ``u1`` occurs in more ground (in)equalities.  Ties break on the
    cell key for determinism.
    """
    counts: Dict[Cell, int] = {}
    for ground in grounds:
        for cell in ground.coefficients:
            counts[cell] = counts.get(cell, 0) + 1
    return sorted(
        updates, key=lambda u: (-counts.get(u.cell, 0), u.cell)
    )


@dataclass
class IterationLog:
    """What happened in one round of the loop.

    An *infeasible* round has no proposal: the accumulated pins made
    the MILP unrepairable.  ``failure`` records the engine's message,
    ``conflict`` the IIS mapped back to constraints and pins (when
    forensics could produce one), and ``retracted`` any pins the loop
    withdrew to continue.
    """

    proposal: Optional[Repair]
    reviewed: List[PyTuple[AtomicUpdate, Verdict]]
    pins_after: Dict[Cell, float]
    infeasible: bool = False
    failure: Optional[str] = None
    conflict: Optional[ConflictReport] = None
    retracted: List[Cell] = field(default_factory=list)


@dataclass
class ValidationSession:
    """Outcome of a full validation loop."""

    accepted_repair: Repair
    repaired_database: Database
    iterations: int
    values_inspected: int
    log: List[IterationLog] = field(default_factory=list)
    converged: bool = True
    #: The terminal failure message when the session ended on an
    #: unrecoverable infeasibility instead of converging.
    failure: Optional[str] = None
    #: How many conflicting pins the loop withdrew to keep going.
    retractions: int = 0

    def render_transcript(self) -> str:
        """A human-readable replay of the session (the text the paper's
        validation interface would have shown)."""
        lines: List[str] = []
        for round_number, entry in enumerate(self.log, start=1):
            if entry.infeasible:
                lines.append(
                    f"iteration {round_number}: INFEASIBLE -- "
                    f"{entry.failure or 'no repair exists under the pins'}"
                )
                if entry.conflict is not None:
                    for detail in entry.conflict.describe().splitlines():
                        lines.append(f"  {detail}")
                for cell in entry.retracted:
                    relation, tuple_id, attribute = cell
                    lines.append(
                        f"  pin on {relation}[{tuple_id}].{attribute} RETRACTED"
                    )
                continue
            lines.append(
                f"iteration {round_number}: proposed repair with "
                f"{entry.proposal.cardinality} update(s)"
            )
            for update, verdict in entry.reviewed:
                if verdict.accepted:
                    lines.append(f"  {update}  -- operator ACCEPTED")
                else:
                    lines.append(
                        f"  {update}  -- operator REJECTED, source value is "
                        f"{verdict.actual_value:g}"
                    )
        if self.failure is not None:
            status = "FAILED (infeasible)"
        elif self.converged:
            status = "accepted"
        else:
            status = "NOT converged"
        lines.append(
            f"result: repair {status} after {self.iterations} iteration(s); "
            f"{self.values_inspected} value(s) inspected; final repair has "
            f"{self.accepted_repair.cardinality} update(s)"
        )
        return "\n".join(lines)


class ValidationLoop:
    """Drive propose -> review -> pin -> re-solve until acceptance."""

    def __init__(
        self,
        engine: RepairEngine,
        operator: Operator,
        *,
        reviews_per_iteration: Optional[int] = None,
        order_updates: bool = True,
        max_iterations: int = 100,
        retract_conflicting_pins: bool = True,
    ) -> None:
        """``reviews_per_iteration`` caps how many updates the operator
        examines before the repair is recomputed (the paper allows
        re-starting "after validating only some of the suggested
        updates"); ``None`` reviews every update of each proposal.
        ``order_updates=False`` disables the involvement heuristic
        (used by the A2 ablation bench).

        ``retract_conflicting_pins`` controls what happens when the
        accumulated pins make the next iteration infeasible (e.g. the
        operator revealed a source value that contradicts a steady
        constraint): when True the loop extracts the conflict, offers
        it to the operator (an optional ``choose_retraction(cells,
        conflict)`` method on the operator picks the pin to withdraw;
        without one the most recent conflicting pin is retracted) and
        continues; when False the session ends cleanly with the failed
        iteration recorded in the transcript.  Either way the loop
        never propagates the engine's error and never loses the
        session log."""
        self.engine = engine
        self.operator = operator
        self.reviews_per_iteration = reviews_per_iteration
        self.order_updates = order_updates
        self.max_iterations = max_iterations
        self.retract_conflicting_pins = retract_conflicting_pins

    def _failed_session(
        self,
        pins: Dict[Cell, float],
        log: List[IterationLog],
        iterations: int,
        values_inspected: int,
        retractions: int,
        failure: str,
    ) -> ValidationSession:
        """End cleanly on an unrecoverable infeasibility: empty repair,
        untouched database, transcript intact."""
        logger.warning("validation session failed: %s", failure)
        return ValidationSession(
            accepted_repair=Repair([]),
            repaired_database=self.engine.database,
            iterations=iterations,
            values_inspected=values_inspected,
            log=log,
            converged=False,
            failure=failure,
            retractions=retractions,
        )

    def _handle_infeasible(
        self,
        error: UnrepairableError,
        pins: Dict[Cell, float],
        pin_order: List[Cell],
        retracted: set,
        log: List[IterationLog],
    ) -> bool:
        """Record the failed iteration; retract a conflicting pin if
        allowed.  Returns True when the loop can continue."""
        conflict = None
        if pins:
            try:
                conflict = self.engine.explain_infeasible(pins=pins)
            except Exception:  # forensics are best-effort here
                pass
        entry = IterationLog(
            proposal=None,
            reviewed=[],
            pins_after=dict(pins),
            infeasible=True,
            failure=str(error),
            conflict=conflict,
        )
        log.append(entry)
        if not self.retract_conflicting_pins or conflict is None:
            return False
        conflicting = [cell for cell in conflict.pins if cell in pins]
        if not conflicting:
            return False
        cell: Optional[Cell] = None
        chooser = getattr(self.operator, "choose_retraction", None)
        if callable(chooser):
            chosen = chooser(list(conflicting), conflict)
            if chosen in conflicting:
                cell = chosen
        if cell is None:
            # Most recent conflicting pin: the freshest verdict is the
            # likeliest data-entry slip, and LIFO preserves the older
            # validations the operator has already invested in.
            cell = max(conflicting, key=pin_order.index)
        del pins[cell]
        retracted.add(cell)
        entry.retracted = [cell]
        entry.pins_after = dict(pins)
        logger.info(
            "retracted conflicting pin on %s[%s].%s; continuing",
            cell[0], cell[1], cell[2],
        )
        return True

    def run(
        self, first_outcome: Optional[RepairOutcome] = None
    ) -> ValidationSession:
        """Propose, review and re-solve until the operator accepts.

        *first_outcome* is ``engine.find_card_minimal_repair()``'s
        result when the caller already holds it: iteration 1 proposes
        it instead of solving the same unpinned problem again.
        """
        pins: Dict[Cell, float] = {}
        pin_order: List[Cell] = []
        retracted: set = set()
        log: List[IterationLog] = []
        values_inspected = 0
        iterations = 0
        retractions = 0

        while iterations < self.max_iterations:
            iterations += 1
            try:
                outcome = (
                    first_outcome
                    if iterations == 1 and first_outcome is not None
                    else self.engine.find_card_minimal_repair(pins=pins)
                )
            except UnrepairableError as error:
                if self._handle_infeasible(
                    error, pins, pin_order, retracted, log
                ):
                    retractions += 1
                    continue
                return self._failed_session(
                    pins, log, iterations, values_inspected, retractions,
                    str(error),
                )
            proposal = outcome.repair
            pending = [
                u for u in proposal
                if u.cell not in pins and u.cell not in retracted
            ]
            logger.debug(
                "validation iteration %d: proposal has %d update(s), "
                "%d pending review",
                iterations, proposal.cardinality, len(pending),
            )
            if not pending:
                # Every suggested update was validated in an earlier
                # round (or its pin was retracted): the repair is
                # accepted.
                logger.info(
                    "repair accepted after %d iteration(s), %d value(s) "
                    "inspected", iterations, values_inspected,
                )
                return ValidationSession(
                    accepted_repair=proposal,
                    repaired_database=self.engine.apply(proposal),
                    iterations=iterations,
                    values_inspected=values_inspected,
                    log=log,
                    converged=True,
                    retractions=retractions,
                )
            if self.order_updates:
                pending = involvement_order(self.engine.ground_system, pending)
            if self.reviews_per_iteration is not None:
                pending = pending[: self.reviews_per_iteration]

            reviewed: List[PyTuple[AtomicUpdate, Verdict]] = []
            all_accepted = True
            for update in pending:
                verdict = self.operator.review(update)
                values_inspected += 1
                reviewed.append((update, verdict))
                if verdict.accepted:
                    # Accepting u pins the item to the suggested value.
                    pins[update.cell] = float(update.new_value)
                else:
                    # Rejecting u pins the item to the revealed value.
                    assert verdict.actual_value is not None
                    pins[update.cell] = float(verdict.actual_value)
                    all_accepted = False
                if update.cell not in pin_order:
                    pin_order.append(update.cell)
            log.append(IterationLog(proposal, reviewed, dict(pins)))

            reviewed_all_of_proposal = len(reviewed) == len(
                [u for u in proposal if u.cell is not None]
            ) or self.reviews_per_iteration is None
            if all_accepted and reviewed_all_of_proposal and not [
                u for u in proposal
                if u.cell not in pins and u.cell not in retracted
            ]:
                logger.info(
                    "repair accepted after %d iteration(s), %d value(s) "
                    "inspected", iterations, values_inspected,
                )
                return ValidationSession(
                    accepted_repair=proposal,
                    repaired_database=self.engine.apply(proposal),
                    iterations=iterations,
                    values_inspected=values_inspected,
                    log=log,
                    converged=True,
                    retractions=retractions,
                )

        # Out of iterations: return the best effort, flagged.
        try:
            outcome = self.engine.find_card_minimal_repair(pins=pins)
        except UnrepairableError as error:
            log.append(
                IterationLog(
                    proposal=None,
                    reviewed=[],
                    pins_after=dict(pins),
                    infeasible=True,
                    failure=str(error),
                )
            )
            return self._failed_session(
                pins, log, iterations, values_inspected, retractions,
                str(error),
            )
        return ValidationSession(
            accepted_repair=outcome.repair,
            repaired_database=self.engine.apply(outcome.repair),
            iterations=iterations,
            values_inspected=values_inspected,
            log=log,
            converged=False,
            retractions=retractions,
        )
