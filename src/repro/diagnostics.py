"""Typed failure taxonomy for the acquisition -> constraints -> repair path.

The pipeline used to surface failures as whatever exception happened to
escape (``ValueError`` from a float conversion, ``RuntimeError`` from a
solver, a bare ``AssertionError`` from numpy).  For an operator tool
that is useless: the batch engine cannot decide whether to retry, fall
back, or quarantine without knowing *what kind* of failure it saw, and
the CLI cannot render an actionable message from a stack trace.

Every diagnostic below carries

- a stable machine-readable ``code`` (the batch report and the
  checkpoint journal store it verbatim),
- a ``details`` mapping of structured context (cell coordinates, the
  offending value, the solver status, ...),
- the standard message for humans.

The taxonomy:

``InvalidValueError``
    A numeric cell is NaN, +/-inf, or overflows the magnitude the MILP
    lowering can represent.  Raised at the acquisition -> repair
    boundary with the exact ``(relation, tuple_id, attribute)``
    coordinates, *before* the value can poison a solve.
``DegenerateTableError``
    The instance has no measure cells to repair (empty tables, or
    constraints that ground to nothing).
``MalformedConstraintError``
    A constraint failed validation (non-steady, unknown attribute,
    parse error) -- the designer's metadata is wrong, not the data.
``InfeasibleSystemError``
    No repair exists: the ground system is infeasible even after Big-M
    escalation.  ``repro.repair.engine.UnrepairableError`` subclasses
    this for backwards compatibility.
``UnboundedObjectiveError``
    The MILP relaxation is unbounded -- a modelling bug (a measure
    variable escaped its Big-M box), never a data problem.
``SolveTimeoutError``
    A wall-clock or node budget expired before any feasible incumbent
    was found.  (With an incumbent the solver returns a
    ``feasible_gap`` solution instead of raising -- see
    :mod:`repro.milp.branch_and_bound`.)
``WorkerCrashError``
    A batch worker process died (crash, OOM kill) while running a
    task; raised in-process by the sequential path when fault
    injection simulates the same event.
``NumericInstabilityError``
    Every rung of the numerics degradation ladder produced an answer
    that failed exact-arithmetic certification (see
    :mod:`repro.milp.certify`).  The details carry the per-rung
    certificate failures; retrying on the alternate backend is allowed
    (a genuinely different code path may still certify).
``StoreCorruptError``
    The durable result store (:mod:`repro.repair.store`) detected
    damage it could not transparently self-heal -- a bad row is
    normally just evicted and re-solved, so this surfaces only when
    the store *file* itself is unusable.  Always retryable: the store
    rebuilds itself and the solve proceeds cacheless.
``OverloadedError``
    The repair service's intake queue is above its admission watermark
    (:mod:`repro.repair.service`).  Carries ``retry_after`` seconds in
    its details -- the caller should back off and resubmit, never
    block: bounded backpressure instead of unbounded memory.
``BreakerOpenError``
    Every backend that could run the task currently has an open
    circuit breaker (:mod:`repro.repair.service`): recent dispatches
    to it failed, and the cooldown has not elapsed.  Transient by
    construction -- a half-open probe re-closes the breaker as soon as
    the backend recovers.

Retry policy lives with the taxonomy: :func:`is_retryable_on_fallback`
says whether retrying a failure on the alternate MILP backend can
possibly change the outcome.  Input errors (invalid values, degenerate
tables, malformed constraints) are deterministic properties of the
task -- retrying them is pure waste.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

#: Magnitude above which a cell value is declared an overflow: the
#: practical Big-M machinery squares such values into ``inf`` and the
#: dense lowering loses all precision long before.
OVERFLOW_LIMIT = 1e100


class DiagnosticError(Exception):
    """Base of the typed failure taxonomy.

    ``code`` is the stable identifier stored in batch reports and
    checkpoint journals; ``details`` holds structured context.
    """

    code = "error"

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.details: Dict[str, Any] = details

    def as_dict(self) -> Dict[str, Any]:
        return {"code": self.code, "message": str(self), "details": self.details}


class InvalidValueError(DiagnosticError):
    """A NaN/inf/overflow numeric cell at the acquisition boundary."""

    code = "invalid_value"

    def __init__(
        self,
        message: str,
        *,
        relation: Optional[str] = None,
        tuple_id: Optional[int] = None,
        attribute: Optional[str] = None,
        value: Optional[float] = None,
    ) -> None:
        super().__init__(
            message,
            relation=relation,
            tuple_id=tuple_id,
            attribute=attribute,
            value=None if value is None else repr(value),
        )
        self.cell: Tuple[Optional[str], Optional[int], Optional[str]] = (
            relation, tuple_id, attribute,
        )
        self.value = value


class DegenerateTableError(DiagnosticError):
    """No measure cells: nothing the repair machinery could change."""

    code = "degenerate_table"


class MalformedConstraintError(DiagnosticError):
    """A constraint is unusable (non-steady, bad reference, parse error)."""

    code = "malformed_constraint"


class InfeasibleSystemError(DiagnosticError):
    """No repair exists within the escalated Big-M bounds."""

    code = "infeasible_system"


class UnboundedObjectiveError(DiagnosticError):
    """The MILP is unbounded -- a modelling invariant was violated."""

    code = "unbounded_objective"


class SolveTimeoutError(DiagnosticError):
    """A time/node budget expired with no feasible incumbent to return."""

    code = "timeout"


class WorkerCrashError(DiagnosticError):
    """A batch worker process died mid-task (or fault injection said so)."""

    code = "worker_crash"


class NumericInstabilityError(DiagnosticError):
    """The whole degradation ladder failed exact certification.

    Raised by :func:`repro.milp.solver.solve_with_stats` only after
    every rung — down to the independent scipy backend — returned an answer the exact-arithmetic certifier
    rejected.  ``details["ladder"]`` records the per-rung failures.
    """

    code = "numeric_instability"


class StoreCorruptError(DiagnosticError):
    """The durable result store is damaged beyond row-level self-healing."""

    code = "store_corrupt"


class OverloadedError(DiagnosticError):
    """The service intake queue is above its admission watermark.

    ``retry_after`` (seconds) tells the caller when resubmission is
    likely to be admitted; it is also stored in ``details``.
    """

    code = "overloaded"

    def __init__(self, message: str, *, retry_after: float = 1.0, **details: Any) -> None:
        super().__init__(message, retry_after=retry_after, **details)
        self.retry_after = float(retry_after)


class BreakerOpenError(DiagnosticError):
    """Every eligible backend's circuit breaker is currently open."""

    code = "breaker_open"

    def __init__(self, message: str, *, retry_after: float = 1.0, **details: Any) -> None:
        super().__init__(message, retry_after=retry_after, **details)
        self.retry_after = float(retry_after)


#: Codes whose failures are deterministic properties of the *input*:
#: retrying them on the alternate MILP backend cannot succeed.
_INPUT_ERROR_CODES = frozenset(
    {
        InvalidValueError.code,
        DegenerateTableError.code,
        MalformedConstraintError.code,
    }
)


def is_retryable_on_fallback(error: BaseException) -> bool:
    """Can retrying *error* on the alternate backend change the outcome?"""
    if isinstance(error, DiagnosticError):
        return error.code not in _INPUT_ERROR_CODES
    return True


def classify_failure(error: BaseException) -> str:
    """The batch-report status string for a raised failure."""
    if isinstance(error, SolveTimeoutError):
        return "timeout"
    if isinstance(error, InfeasibleSystemError):
        return "unrepairable"
    if isinstance(error, InvalidValueError):
        return "invalid_input"
    if isinstance(error, DegenerateTableError):
        return "degenerate"
    if isinstance(error, MalformedConstraintError):
        return "malformed"
    if isinstance(error, UnboundedObjectiveError):
        return "unbounded"
    if isinstance(error, WorkerCrashError):
        return "crashed"
    if isinstance(error, NumericInstabilityError):
        return "uncertified"
    if isinstance(error, StoreCorruptError):
        return "store_corrupt"
    if isinstance(error, OverloadedError):
        return "overloaded"
    if isinstance(error, BreakerOpenError):
        return "breaker_open"
    return "error"


def ensure_finite_cell(
    value: float, relation: str, tuple_id: int, attribute: str
) -> float:
    """Validate one numeric cell; returns the value as ``float``.

    Raises :class:`InvalidValueError` with the cell's coordinates when
    the value is NaN, infinite, or beyond :data:`OVERFLOW_LIMIT` --
    the typed replacement for letting such values reach the MILP
    lowering, where they surface as inscrutable solver errors.
    """
    number = float(value)
    where = f"{relation}[{tuple_id}].{attribute}"
    if math.isnan(number):
        raise InvalidValueError(
            f"cell {where} is NaN; the acquisition produced a non-number",
            relation=relation, tuple_id=tuple_id, attribute=attribute,
            value=number,
        )
    if math.isinf(number):
        raise InvalidValueError(
            f"cell {where} is {'+' if number > 0 else '-'}inf; no finite "
            f"repair can involve it",
            relation=relation, tuple_id=tuple_id, attribute=attribute,
            value=number,
        )
    if abs(number) > OVERFLOW_LIMIT:
        raise InvalidValueError(
            f"cell {where} has magnitude {abs(number):.3e}, beyond the "
            f"representable limit {OVERFLOW_LIMIT:.0e} of the MILP lowering",
            relation=relation, tuple_id=tuple_id, attribute=attribute,
            value=number,
        )
    return number
