"""Exact-arithmetic certification and the numerics degradation ladder.

The sparse revised simplex and the warm-started node LPs are exactly
the machinery where floating-point drift can silently produce a
*wrong* repair: a stale eta-file basis can declare an infeasible
incumbent feasible.  DART's contract is a *card-minimal* repair, and a
minimality claim is only worth anything if the answer is exact — so
every answer re-verifies itself here, against the **original** model
(as the caller built it, before lowering or any warm start).  A bug
anywhere in the lowering / search stack then cannot escape as a
silently wrong repair: it surfaces as a failed certificate.

Two layers of defence:

- :func:`certify_solution` checks an incumbent against every row,
  bound, and integrality requirement of the :class:`MILPModel`, and
  re-derives the objective in ``Fraction`` arithmetic
  (``Fraction(float)`` is exact).
- :func:`certify_repair` / :func:`certify_database` independently
  re-check the *document*: the repaired cell values against the
  paper-level ground constraints, pins, and integer-typed cells.  This
  layer does not trust the MILP translation either — a bug in the
  lowering itself is caught here.

When certification fails, :class:`NumericsGovernor` steps down a
declared degradation ladder — fancy pricing → Dantzig → Bland, and
finally the independent scipy/HiGHS backend — re-solving with the
suspect artifact disabled instead of raising.  Only a fully exhausted
ladder raises (:class:`repro.diagnostics.NumericInstabilityError`).

Tolerances are *scale-relative*: a row is accepted when::

    violation <= feas_tol * (1 + |rhs| + sum|a_ij| + sum|a_ij * x_j|)

The ``sum|a_ij|`` term covers the up-to-``int_tol`` snap applied to
each integral variable; the ``sum|a_ij * x_j|`` term covers honest
accumulation noise in the floats the solver handed back.

Settling in floating point, replaying in ``Fraction`` on doubt
--------------------------------------------------------------

The reference verdict is the ``Fraction`` replay
(:func:`_replay_solution`, :func:`_replay_repair`,
:func:`_replay_database`): every comparison in exact rationals.  It
costs microseconds per term, so each public certifier first decides
the certificate in one float64 pass over the same rows, bounds and
values, each row carrying a rigorous a-priori rounding-error bound,
and hands the *whole* certificate to the replay as soon as one fact
is not settled with a margin.  The pass can only answer "certified":
every rejection, every exception and every borderline acceptance
comes from the replay, so verdict, level, ``checks``, failure texts
and ``objective_exact`` are the replay's on every input.  Only
``Certificate.replayed`` tells the two apart.

- *Values.*  A value is read as a float only when the read is exact:
  a finite float (``numpy.float64`` included) or an int within
  ``±2**53``.  Anything else -- missing, non-finite, another type --
  is doubt.  Model data (coefficients, constants, right-hand sides)
  is read the same way.  An integral variable settles
  when ``|x - r| <= int_tol / 2`` for ``r = round(x)``; the
  difference is exact in binary64 (Sterbenz), ``r`` is then the only
  integer within ``int_tol`` and so the one the replay snaps to, and
  ``x`` snaps to it.  Bounds settle when ``lower <= x <= upper`` holds
  outright on the snapped value; Python compares floats and ints
  exactly.
- *Rows.*  With ``n`` terms, ``d = fl(c + sum a_j*x_j - b)`` is
  computed in the row's own term order.  By Higham's inner-product
  bound (*Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
  §3.1) the exact residual ``D`` satisfies ``|d - D| <= gamma_{n+2} *
  (|c| + sum|a_j*x_j| + |b|)``, ``gamma_k = k*u / (1 - k*u)`` with
  ``u = 2**-53``, plus at most ``2**-1075`` of underflow per product.
  The pass bounds that by::

      E = 2.1 * (n + 2) * u * (|c| + sum|fl(a_j*x_j)| + |b|) + (n + 1) * 2**-1074

  The factor 2.1 covers ``gamma_{n+2}``, the rounding of the float sum
  of magnitudes and the rounding of ``E`` itself, as long as
  ``(n + 2) * u <= 1e-3``; a longer row is doubt.  Let ``tau_f`` be the
  tolerance above computed in float.  A ``<=`` row settles when
  ``d + E <= tau_f / 2``, a ``>=`` row when ``-d + E <= tau_f / 2``, and
  an ``=`` row when ``|d| + E <= tau_f / 2``.  The halving absorbs the
  three roundings between that test and the exact one: the float image
  of ``feas_tol``, the rounding inside ``tau_f`` (a relative
  ``gamma_{2n+4}`` at most) and the last addition.  Overflow yields inf
  or nan, which never settle: the magnitudes are summed in the same
  order as ``d``, so they overflow whenever ``d`` does, and an
  infinite ``tau_f`` is doubt as well.
- *Tolerances.*  ``feas_tol`` and ``int_tol`` must be non-negative,
  and the float image of ``feas_tol`` zero or normal; otherwise every
  certificate is replayed.
- *Objective.*  It stays exact: ``objective_exact`` and the objective
  check run in ``Fraction`` over the objective's own terms, on the
  snapped values.  That is one row.

The float pass reads the original :class:`MILPModel` rows and the
ground rows, never the CSR lowering: the certifier exists to catch a
bug in the lowering.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.milp.model import MILPModel, Sense, Solution, VarType

#: Default certification tolerances, matched to the solvers' own
#: 1e-6-flavoured feasibility / integrality tolerances.
CERT_FEAS_TOL = Fraction(1, 10**6)
CERT_INT_TOL = Fraction(1, 10**6)

#: The maximum number of failure messages kept on a certificate.
_MAX_FAILURES = 8

#: Unit roundoff of binary64, its smallest subnormal and its smallest
#: normal number.
_UNIT = 2.0**-53
_TINY = 2.0**-1074
_NORMAL = 2.0**-1022
_INF = float("inf")

#: Ints in ``[-2**53, 2**53]`` convert to float exactly.
_EXACT_INT = 2**53

#: The longest row the float error bound covers: ``(n + 2) * u <= 1e-3``.
_MAX_TERMS = int(1e-3 / _UNIT) - 2

#: What odd input can raise inside the float pass.  Any of them sends
#: the certificate to the replay, which fails or raises on its own.
_DOUBT_ERRORS = (
    ArithmeticError,
    AttributeError,
    LookupError,
    TypeError,
    ValueError,
)

#: Pricing steps in order; each entry is ``(name, pricing_rule)``.
#: Overrides accumulate down the ladder: by the time the solve falls
#: back to scipy the pricing has already been pinned to Bland's rule.
#: A rung is skipped when the pricing already sits at or below it.
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
        "warm_start",
        "pricing",
        "incumbent",
    }
)


@dataclass
class Certificate:
    """The outcome of one certification pass.

    ``level`` says what was verified: ``"milp"`` (solver incumbent vs
    the original model), ``"document"`` (repaired cells vs the ground
    constraints via the translation), ``"database"`` (a finished
    database vs ground constraints, used by the cascade), or
    ``"not-applicable"`` (nothing to verify — e.g. an INFEASIBLE
    verdict carries no incumbent).  ``checks`` counts individual facts
    verified; ``failures`` holds human-readable descriptions of the
    first few violations.  ``objective_exact`` is the re-derived
    objective as an exact rational string (``"7"``, ``"3/2"``).
    ``replayed`` is True when the ``Fraction`` replay decided the
    certificate, False when the float pass settled it (or there was
    nothing to verify).
    """

    certified: bool
    level: str
    checks: int = 0
    failures: List[str] = field(default_factory=list)
    objective_exact: Optional[str] = None
    replayed: bool = False

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def __str__(self) -> str:
        verdict = "certified" if self.certified else "REJECTED"
        detail = f"; {self.failures[0]}" if self.failures else ""
        return f"{verdict} ({self.level}, {self.checks} check(s){detail})"


# ----------------------------------------------------------------------
# The public certifiers: float pass first, Fraction replay on doubt
# ----------------------------------------------------------------------


def _settled_or_replayed(settle, replay, *args, **tolerances) -> Certificate:
    """The float pass's certificate, or the replay's when it doubts."""
    try:
        certificate = settle(*args, **tolerances)
    except _DOUBT_ERRORS:
        certificate = None
    if certificate is None:
        certificate = replay(*args, **tolerances)
    return certificate


def certify_solution(
    model: MILPModel,
    solution: Solution,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
    int_tol: Fraction = CERT_INT_TOL,
) -> Certificate:
    """Certify *solution* against the original *model*.

    Verifies, for every variable and every constraint of the model as
    the caller built it (before any backend saw it):
    integrality of integer/binary variables (values are snapped to the
    nearest integer when within ``int_tol``), variable bounds,
    row feasibility under a scale-relative tolerance, and the reported
    objective value.  Solutions without a usable incumbent
    (INFEASIBLE, UNBOUNDED, budget-expired without an incumbent) have
    nothing to verify and certify trivially at level
    ``"not-applicable"``.  The float pass decides clean answers; the
    ``Fraction`` replay decides the rest (module docstring).
    """
    return _settled_or_replayed(
        _settle_solution, _replay_solution, model, solution,
        feas_tol=feas_tol, int_tol=int_tol,
    )


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
    applies the repair over the original values, and verifies every
    paper-level ground constraint, pin, and integer-typed cell.  This
    is deliberately independent of :func:`certify_solution`: it would
    catch a bug in the MILP translation itself.
    """
    return _settled_or_replayed(
        _settle_repair, _replay_repair, translation, repair,
        feas_tol=feas_tol,
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
    from *database* and each ground row verified.
    """
    return _settled_or_replayed(
        _settle_database, _replay_database, grounds, database,
        feas_tol=feas_tol,
    )


# ----------------------------------------------------------------------
# The float pass
# ----------------------------------------------------------------------


def _read(value: object) -> Optional[float]:
    """*value* as a float when that read is exact and finite, else None."""
    if isinstance(value, float) or (
        type(value) is int and -_EXACT_INT <= value <= _EXACT_INT
    ):
        value = float(value)
        if value - value == 0.0:
            return value
    return None


def _float_feas_tol(feas_tol: Fraction) -> Optional[float]:
    """The float image of *feas_tol*, or None if the pass cannot use it."""
    if not feas_tol >= 0:
        return None
    feas = float(feas_tol)
    return feas if feas == 0.0 or _NORMAL <= feas < _INF else None


def _row_settles(
    coefficients: Dict[object, float],
    values: Dict[object, float],
    constant: float,
    rhs: float,
    relop: str,
    feas: float,
) -> bool:
    """Does ``sum(a * values) + constant <relop> rhs`` hold with a margin?

    *relop* is ``"<="``, ``">="`` or anything else for equality, the
    strings of both :class:`Sense` and ``Relop``.  See the module
    docstring for the error bound.
    """
    constant, rhs = _read(constant), _read(rhs)
    n = len(coefficients)
    if constant is None or rhs is None or n > _MAX_TERMS:
        return False
    residual = constant
    magnitude = abs(constant)
    scale = 1.0 + abs(rhs)
    for key, coefficient in coefficients.items():
        if type(coefficient) is not float:
            coefficient = _read(coefficient)
            if coefficient is None:
                return False
        product = coefficient * values[key]
        residual += product
        product = abs(product)
        magnitude += product
        scale += abs(coefficient) + product
    residual -= rhs
    magnitude += abs(rhs)
    error = magnitude * (2.1 * (n + 2) * _UNIT) + (n + 1) * _TINY
    half = feas * scale * 0.5
    if relop == "<=":
        slack = residual
    elif relop == ">=":
        slack = -residual
    else:
        slack = abs(residual)
    return slack + error <= half < _INF


def _exact_row(
    constant: float,
    coefficients: Dict[int, float],
    values: Dict[int, float],
) -> Optional[Tuple[Fraction, Fraction]]:
    """``constant + sum(a * value)`` and ``sum(|a| + |a * value|)``, exactly.

    Every float is a dyadic rational, and so is each product, so both
    sums run in integers over one power-of-two denominator and become
    Fractions once: the same rationals the replay accumulates term by
    term, without a gcd per term.  None for data :func:`_read` refuses.
    """
    constant = _read(constant)
    if constant is None:
        return None
    total, denominator = constant.as_integer_ratio()
    magnitude = 0
    for index, coefficient in coefficients.items():
        if type(coefficient) is not float:
            coefficient = _read(coefficient)
            if coefficient is None:
                return None
        a_num, a_den = coefficient.as_integer_ratio()
        x_num, x_den = values[index].as_integer_ratio()
        p_num, p_den = a_num * x_num, a_den * x_den
        if p_den > denominator:
            factor = p_den // denominator
            total *= factor
            magnitude *= factor
            denominator = p_den
        p_num *= denominator // p_den
        total += p_num
        magnitude += abs(a_num) * (denominator // a_den) + abs(p_num)
    return Fraction(total, denominator), Fraction(magnitude, denominator)


def _settle_grounds(
    grounds: Iterable[object], cell_values: Dict[object, float], feas: float
) -> Optional[int]:
    """The number of ground rows checked, or None on the first doubt."""
    checks = 0
    for ground in grounds:
        checks += 1
        if not _row_settles(
            ground.coefficients, cell_values, ground.constant, ground.rhs,
            ground.relop, feas,
        ):
            return None
    return checks


def _settle_solution(
    model: MILPModel,
    solution: Solution,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
    int_tol: Fraction = CERT_INT_TOL,
) -> Optional[Certificate]:
    """:func:`certify_solution`'s float pass: a certificate, or None."""
    if not solution.is_usable:
        return Certificate(certified=True, level="not-applicable")
    feas = _float_feas_tol(feas_tol)
    if feas is None or not int_tol >= 0:
        return None
    int_half = float(int_tol) / 2
    raw_values = solution.values
    values: Dict[int, float] = {}
    for variable in model.variables:
        value = _read(raw_values.get(variable.name))
        if value is None:
            return None
        kind = variable.var_type
        if kind is not VarType.REAL:
            if kind is not VarType.INTEGER and kind is not VarType.BINARY:
                return None
            nearest = round(value)
            if not abs(value - nearest) <= int_half:
                return None
            value = float(nearest)
        if not variable.lower <= value <= variable.upper:
            return None
        values[variable.index] = value

    for constraint in model.constraints:
        expr = constraint.expr
        sense = constraint.sense
        if not _row_settles(
            expr.coefficients, values, expr.constant, constraint.rhs,
            "<=" if sense is Sense.LE else ">=" if sense is Sense.GE else "=",
            feas,
        ):
            return None

    exact = _exact_row(
        model.objective.constant, model.objective.coefficients, values
    )
    if exact is None:
        return None
    objective, magnitude = exact
    checks = len(model.variables) + len(model.constraints)
    if solution.objective is not None:
        checks += 1
        tolerance = feas_tol * (1 + abs(objective) + magnitude)
        if abs(objective - _frac(solution.objective)) > tolerance:
            return None
    return Certificate(
        certified=True,
        level="milp",
        checks=checks,
        objective_exact=str(objective),
    )


def _settle_repair(
    translation: object,
    repair: object,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
) -> Optional[Certificate]:
    """:func:`certify_repair`'s float pass: a certificate, or None."""
    feas = _float_feas_tol(feas_tol)
    if feas is None:
        return None
    cell_values: Dict[Tuple[str, int, str], float] = {}
    for cell, value in zip(translation.cells, translation.values):
        value = _read(value)
        if value is None:
            return None
        cell_values[cell] = value
    integral = dict(zip(translation.cells, translation.integer_cells))
    checks = 0
    for update in repair.updates:
        cell = update.cell
        value = _read(update.new_value)
        if value is None:
            return None
        cell_values[cell] = value
        checks += 1
        if integral.get(cell) and not value.is_integer():
            return None

    for cell, pinned in translation.pins.items():
        checks += 1
        if cell in cell_values and cell_values[cell] != _read(pinned):
            return None

    grounds = _settle_grounds(translation.grounds, cell_values, feas)
    if grounds is None:
        return None
    return Certificate(certified=True, level="document", checks=checks + grounds)


def _settle_database(
    grounds: Sequence[object],
    database: object,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
) -> Optional[Certificate]:
    """:func:`certify_database`'s float pass: a certificate, or None."""
    feas = _float_feas_tol(feas_tol)
    if feas is None:
        return None
    cell_values: Dict[Tuple[str, int, str], float] = {}
    for ground in grounds:
        for cell in ground.coefficients:
            if cell not in cell_values:
                relation, tuple_id, attribute = cell
                value = float(database.get_value(relation, tuple_id, attribute))
                if value - value != 0.0:
                    return None
                cell_values[cell] = value
    checks = _settle_grounds(grounds, cell_values, feas)
    if checks is None:
        return None
    return Certificate(certified=True, level="database", checks=checks)


# ----------------------------------------------------------------------
# The Fraction replay: the reference verdict
# ----------------------------------------------------------------------


def _frac(value: object) -> Fraction:
    """Exact rational image of a float/int (``Fraction(float)`` is exact)."""
    return Fraction(value)  # type: ignore[arg-type]


def _nearest_int(value: Fraction) -> int:
    """Round half up: the nearest integer, ties to the larger one
    (``-2.5 -> -2``).  Only the snapped value's distance matters: it
    has to be *an* integer within ``int_tol``."""
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


def _replay_solution(
    model: MILPModel,
    solution: Solution,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
    int_tol: Fraction = CERT_INT_TOL,
) -> Certificate:
    """Replay *solution* against the original *model* in rationals."""
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
        replayed=True,
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


def _replay_repair(
    translation: object,
    repair: object,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
) -> Certificate:
    """Replay the repaired document against its grounds in rationals."""
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
        replayed=True,
    )


def _replay_database(
    grounds: Sequence[object],
    database: object,
    *,
    feas_tol: Fraction = CERT_FEAS_TOL,
) -> Certificate:
    """Replay a finished database against ground constraints in rationals."""
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
        replayed=True,
    )


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
    ``backend:scipy``         our solver entirely (independent HiGHS)
    ========================  ================================================

    Steps that do not apply to the requested backend are skipped: the
    pricing rungs only exist for ``bnb-simplex``, whose LP core they
    steer, and a solve already running on ``scipy`` has an empty
    ladder (it *is* the last resort).  The governor is consumed by
    :func:`repro.milp.solver.solve_with_stats`, which re-solves down the ladder until a rung's answer passes
    :func:`certify_solution`.
    """

    def __init__(self, backend: str, options: Dict[str, object]) -> None:
        self.backend = backend
        self.options = dict(options)
        self.taken: List[str] = []

    def steps(self):
        yield "as-requested", self.backend, dict(self.options)
        current = dict(self.options)
        if self.backend == "bnb-simplex":
            rules = [rule for _name, rule in _PRICING_LADDER]
            for position, (name, rule) in enumerate(_PRICING_LADDER):
                if current.get("pricing", "dantzig") not in rules[position:]:
                    current = {**current, "pricing": rule}
                    yield name, self.backend, dict(current)
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
