"""Exact-arithmetic certification and the numerics degradation ladder.

The sparse revised simplex, the cut separators, and the warm-started
node LPs (PR 6) are exactly the machinery where floating-point drift
can silently produce a *wrong* repair: a GMI cut derived from a noisy
tableau row can shave off the true optimum, a stale eta-file basis can
declare an infeasible incumbent feasible.  DART's contract is a
*card-minimal* repair, and a minimality claim is only worth anything
if the answer is exact — so every answer re-verifies itself here, in
:mod:`fractions` rational arithmetic, against the **original** model
(pre-presolve, pre-cut, pre-warm-start).  A bug anywhere in the
lowering / presolve / cut / search stack then cannot escape as a
silently wrong repair: it surfaces as a failed certificate.

Two layers of defence:

- :func:`certify_solution` replays an incumbent against every row,
  bound, and integrality requirement of the :class:`MILPModel` in
  ``Fraction`` arithmetic (``Fraction(float)`` is exact), and
  re-derives the objective.
- :func:`certify_repair` / :func:`certify_database` independently
  re-check the *document*: the repaired cell values against the
  paper-level ground constraints, pins, and integer-typed cells.  This
  layer does not trust the MILP translation either — a bug in the
  lowering itself is caught here.

When certification fails, :class:`NumericsGovernor` steps down a
declared degradation ladder — fancy pricing → Dantzig → Bland,
cuts on → cuts off, and finally the independent scipy/HiGHS
backend — re-solving with the suspect
artifact disabled instead of raising.  Only a fully exhausted ladder
raises (:class:`repro.diagnostics.NumericInstabilityError`).

Tolerances are *scale-relative*: a row is accepted when::

    violation <= feas_tol * (1 + |rhs| + sum|a_ij| + sum|a_ij * x_j|)

The ``sum|a_ij|`` term covers the up-to-``int_tol`` snap applied to
each integral variable; the ``sum|a_ij * x_j|`` term covers honest
accumulation noise in the floats the solver handed back.  All the
comparisons themselves are exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.milp.model import MILPModel, Sense, Solution

#: Default certification tolerances, matched to the solvers' own
#: 1e-6-flavoured feasibility / integrality tolerances.
CERT_FEAS_TOL = Fraction(1, 10**6)
CERT_INT_TOL = Fraction(1, 10**6)

#: The maximum number of failure messages kept on a certificate.
_MAX_FAILURES = 8

#: Ladder steps in order; each entry is ``(name, option_overrides)``.
#: Overrides accumulate down the ladder: by the time the cuts are
#: disabled the pricing has already been pinned to Bland's rule.
_PRICING_LADDER: Tuple[Tuple[str, str], ...] = (
    ("pricing:dantzig", "dantzig"),
    ("pricing:bland", "bland"),
)

#: Options meaningful only to the branch-and-bound backends; stripped
#: when the ladder falls all the way back to the scipy/HiGHS backend.
_BNB_ONLY_OPTIONS = frozenset(
    {
        "max_nodes",
        "gap_tolerance",
        "presolve",
        "warm_start",
        "pricing",
        "incumbent",
        "cuts",
    }
)


@dataclass
class Certificate:
    """The outcome of one exact-arithmetic verification pass.

    ``level`` says what was verified: ``"milp"`` (solver incumbent vs
    the original model), ``"document"`` (repaired cells vs the ground
    constraints via the translation), ``"database"`` (a finished
    database vs ground constraints, used by the cascade), or
    ``"not-applicable"`` (nothing to verify — e.g. an INFEASIBLE
    verdict carries no incumbent).  ``checks`` counts individual facts
    verified; ``failures`` holds human-readable descriptions of the
    first few violations.  ``objective_exact`` is the re-derived
    objective as an exact rational string (``"7"``, ``"3/2"``).
    """

    certified: bool
    level: str
    checks: int = 0
    failures: List[str] = field(default_factory=list)
    objective_exact: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "certified": self.certified,
            "level": self.level,
            "checks": self.checks,
            "failures": list(self.failures),
            "objective_exact": self.objective_exact,
        }

    def __str__(self) -> str:
        verdict = "certified" if self.certified else "REJECTED"
        detail = f"; {self.failures[0]}" if self.failures else ""
        return f"{verdict} ({self.level}, {self.checks} check(s){detail})"


def _frac(value: object) -> Fraction:
    """Exact rational image of a float/int (``Fraction(float)`` is exact)."""
    return Fraction(value)  # type: ignore[arg-type]


def _nearest_int(value: Fraction) -> int:
    """Round half away from zero (matches ``round()`` on .5 floats closely
    enough for snap purposes: the snapped value only has to be *an*
    integer within ``int_tol``)."""
    floor = value.numerator // value.denominator
    return int(floor) if value - floor < Fraction(1, 2) else int(floor) + 1


def _row_tolerance(
    feas_tol: Fraction,
    rhs: Fraction,
    terms: Iterable[Tuple[Fraction, Fraction]],
) -> Fraction:
    """Scale-relative acceptance slack for one row (see module docstring)."""
    scale = Fraction(1) + abs(rhs)
    for coefficient, value in terms:
        scale += abs(coefficient) + abs(coefficient * value)
    return feas_tol * scale


def certify_solution(
    model: MILPModel,
    solution: Solution,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
    int_tol: Fraction = CERT_INT_TOL,
) -> Certificate:
    """Replay *solution* against the original *model* in rationals.

    Verifies, for every variable and every constraint of the model as
    the caller built it (before presolve, cuts, or any backend saw
    it): integrality of integer/binary variables (values are snapped
    to the nearest integer when within ``int_tol``), variable bounds,
    row feasibility under a scale-relative tolerance, and the reported
    objective value.  Solutions without a usable incumbent
    (INFEASIBLE, UNBOUNDED, budget-expired without an incumbent) have
    nothing to verify and certify trivially at level
    ``"not-applicable"``.
    """
    if not solution.is_usable:
        return Certificate(certified=True, level="not-applicable")

    failures: List[str] = []
    checks = 0

    def fail(message: str) -> None:
        if len(failures) < _MAX_FAILURES:
            failures.append(message)

    values: Dict[int, Fraction] = {}
    for variable in model.variables:
        checks += 1
        raw = solution.values.get(variable.name)
        if raw is None:
            fail(f"variable {variable.name!r} missing from the solution")
            values[variable.index] = Fraction(0)
            continue
        value = _frac(raw)
        if variable.var_type.is_integral:
            nearest = _nearest_int(value)
            if abs(value - nearest) > int_tol:
                fail(
                    f"integer variable {variable.name!r} = {float(value)!r} "
                    f"is {float(abs(value - nearest)):.3e} from integral"
                )
            else:
                value = Fraction(nearest)
        lower, upper = variable.lower, variable.upper
        bound_tol = feas_tol * (Fraction(1) + abs(value))
        if lower != float("-inf") and value < _frac(lower) - bound_tol:
            fail(f"variable {variable.name!r} below lower bound {lower}")
        if upper != float("inf") and value > _frac(upper) + bound_tol:
            fail(f"variable {variable.name!r} above upper bound {upper}")
        values[variable.index] = value

    for constraint in model.constraints:
        checks += 1
        terms = [
            (_frac(coefficient), values[index])
            for index, coefficient in constraint.expr.coefficients.items()
        ]
        lhs = _frac(constraint.expr.constant)
        for coefficient, value in terms:
            lhs += coefficient * value
        rhs = _frac(constraint.rhs)
        tolerance = _row_tolerance(feas_tol, rhs, terms)
        if constraint.sense is Sense.LE:
            bad = lhs > rhs + tolerance
        elif constraint.sense is Sense.GE:
            bad = lhs < rhs - tolerance
        else:
            bad = abs(lhs - rhs) > tolerance
        if bad:
            name = constraint.name or "<unnamed>"
            fail(
                f"row {name!r} violated: lhs={float(lhs)!r} "
                f"{constraint.sense.value} rhs={float(rhs)!r}"
            )

    objective = _frac(model.objective.constant)
    obj_terms = []
    for index, coefficient in model.objective.coefficients.items():
        term = (_frac(coefficient), values[index])
        obj_terms.append(term)
        objective += term[0] * term[1]
    if solution.objective is not None:
        checks += 1
        tolerance = _row_tolerance(feas_tol, objective, obj_terms)
        if abs(objective - _frac(solution.objective)) > tolerance:
            fail(
                f"objective mismatch: reported {solution.objective!r}, "
                f"exact recompute {float(objective)!r}"
            )

    return Certificate(
        certified=not failures,
        level="milp",
        checks=checks,
        failures=failures,
        objective_exact=str(objective),
    )


def _certify_grounds(
    grounds: Sequence[object],
    cell_values: Dict[Tuple[str, int, str], Fraction],
    *,
    feas_tol: Fraction,
    failures: List[str],
) -> int:
    """Check every ground constraint over exact *cell_values*; returns
    the number of rows checked, appending failures in place."""
    # Imported here: repro.constraints imports sit above repro.milp in
    # the layering and a module-level import would be cyclic.
    from repro.constraints.constraint import Relop

    checks = 0
    for ground in grounds:
        checks += 1
        terms = []
        lhs = _frac(ground.constant)
        for cell, coefficient in ground.coefficients.items():
            term = (_frac(coefficient), cell_values[cell])
            terms.append(term)
            lhs += term[0] * term[1]
        rhs = _frac(ground.rhs)
        tolerance = _row_tolerance(feas_tol, rhs, terms)
        if ground.relop == Relop.LE:
            bad = lhs > rhs + tolerance
        elif ground.relop == Relop.GE:
            bad = lhs < rhs - tolerance
        else:
            bad = abs(lhs - rhs) > tolerance
        if bad and len(failures) < _MAX_FAILURES:
            failures.append(
                f"ground constraint {ground.source!r} violated: "
                f"lhs={float(lhs)!r} {ground.relop} rhs={float(rhs)!r}"
            )
    return checks


def certify_repair(
    translation: object,
    repair: object,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
) -> Certificate:
    """Document-level certificate: the repaired cells vs the grounds.

    Takes the :class:`~repro.repair.translation.MILPTranslation` (for
    the original cell values, ground constraints, pins, and integer
    typing) and the extracted :class:`~repro.repair.updates.Repair`,
    applies the repair over exact rational images of the original
    values, and verifies every paper-level ground constraint, pin, and
    integer-typed cell.  This is deliberately independent of
    :func:`certify_solution`: it would catch a bug in the MILP
    translation itself.
    """
    failures: List[str] = []
    checks = 0

    cell_values: Dict[Tuple[str, int, str], Fraction] = {
        cell: _frac(value)
        for cell, value in zip(translation.cells, translation.values)
    }
    integral = {
        cell: flag
        for cell, flag in zip(translation.cells, translation.integer_cells)
    }
    for update in repair.updates:
        cell = update.cell
        value = _frac(update.new_value)
        cell_values[cell] = value
        checks += 1
        if integral.get(cell) and value.denominator != 1:
            if len(failures) < _MAX_FAILURES:
                failures.append(
                    f"integer cell {cell!r} repaired to non-integer "
                    f"{update.new_value!r}"
                )

    for cell, pinned in translation.pins.items():
        checks += 1
        if cell in cell_values and cell_values[cell] != _frac(pinned):
            if len(failures) < _MAX_FAILURES:
                failures.append(
                    f"pin on {cell!r} not preserved: "
                    f"{float(cell_values[cell])!r} != {pinned!r}"
                )

    checks += _certify_grounds(
        translation.grounds, cell_values, feas_tol=feas_tol, failures=failures
    )
    return Certificate(
        certified=not failures,
        level="document",
        checks=checks,
        failures=failures,
    )


def certify_database(
    grounds: Sequence[object],
    database: object,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
) -> Certificate:
    """Certify a finished database against ground constraints.

    Used by the cascade (whose tiers mutate a working database rather
    than extracting a single MILP repair) for the final exactness
    gate.  Every cell mentioned by any ground constraint is read back
    from *database* and each ground row verified in rationals.
    """
    failures: List[str] = []
    cell_values: Dict[Tuple[str, int, str], Fraction] = {}
    for ground in grounds:
        for cell in ground.coefficients:
            if cell not in cell_values:
                relation, tuple_id, attribute = cell
                cell_values[cell] = _frac(
                    float(database.get_value(relation, tuple_id, attribute))
                )
    checks = _certify_grounds(
        grounds, cell_values, feas_tol=feas_tol, failures=failures
    )
    return Certificate(
        certified=not failures,
        level="database",
        checks=checks,
        failures=failures,
    )


# ----------------------------------------------------------------------
# Cut admission: exact witness replay
# ----------------------------------------------------------------------


def cut_excludes_point(
    coefficients: Iterable[Tuple[int, float]],
    rhs: float,
    point: Sequence[float],
    *,
    tol: Fraction = CERT_FEAS_TOL,
) -> bool:
    """Exact test: does the ``<=`` cut exclude integer *point*?

    Replayed in rationals so tableau noise in the cut cannot hide a
    violation.  Used at cut admission: a separated GMI/cover row that
    excludes a known integer-feasible witness (the incumbent) is
    provably invalid and must be rejected — cuts may only remove
    fractional points.
    """
    lhs = Fraction(0)
    scale = Fraction(1) + abs(_frac(rhs))
    for index, coefficient in coefficients:
        c = _frac(coefficient)
        v = _frac(float(point[index]))
        lhs += c * v
        scale += abs(c * v)
    return lhs > _frac(rhs) + tol * scale


# ----------------------------------------------------------------------
# The degradation ladder
# ----------------------------------------------------------------------


class NumericsGovernor:
    """The declared numerics degradation ladder for one solve.

    Yields ``(step_name, backend, options)`` triples, starting from
    the solve exactly as requested and then disabling one numerical
    risk at a time, cumulatively:

    ========================  ================================================
    step                      what is disabled
    ========================  ================================================
    ``as-requested``          nothing — the solve as configured
    ``pricing:dantzig``       steepest-edge pricing (textbook Dantzig)
    ``pricing:bland``         Dantzig pricing (Bland's anti-cycling rule)
    ``cuts:off``              GMI/cover cutting planes
    ``backend:scipy``         our solver entirely (independent HiGHS)
    ========================  ================================================

    Steps that do not apply to the requested backend are skipped: the
    pricing/cut rungs only exist for the branch-and-bound
    backends, and a solve already running on ``scipy`` has an empty
    ladder (it *is* the last resort).  The governor is consumed by
    :func:`repro.milp.solver.solve_with_stats` under ``certify=True``,
    which re-solves down the ladder until a rung's answer passes
    :func:`certify_solution`.
    """

    def __init__(self, backend: str, options: Dict[str, object]) -> None:
        self.backend = backend
        self.options = dict(options)
        self.taken: List[str] = []

    def steps(self):
        yield "as-requested", self.backend, dict(self.options)
        current = dict(self.options)
        if self.backend in ("bnb", "bnb-simplex"):
            if self.backend == "bnb-simplex":
                for name, rule in _PRICING_LADDER:
                    if current.get("pricing", "dantzig") != rule:
                        current = {**current, "pricing": rule}
                        yield name, self.backend, dict(current)
            if current.get("cuts", True):
                current = {**current, "cuts": False}
                yield "cuts:off", self.backend, dict(current)
        if self.backend != "scipy":
            scipy_options = {
                key: value
                for key, value in current.items()
                if key not in _BNB_ONLY_OPTIONS
            }
            yield "backend:scipy", "scipy", scipy_options

    def ladder(self) -> List[str]:
        """The step names this governor would walk, in order."""
        return [name for name, _backend, _options in self.steps()]
