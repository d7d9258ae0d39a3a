"""The MILP construction of Section 5.

Given a database ``D`` and steady aggregate constraints ``AC``:

1. ``S(AC)`` -- every ground constraint becomes one linear
   (in)equality over per-cell variables ``z_i`` (done symbolically in
   :mod:`repro.constraints.grounding`);
2. ``S'(AC)`` -- difference variables ``y_i = z_i - v_i`` where ``v_i``
   is the current database value;
3. ``S''(AC)`` -- binary indicators ``delta_i`` linked by the Big-M
   rows ``y_i - M delta_i <= 0`` and ``-y_i - M delta_i <= 0``;
4. ``S*(AC)`` -- minimise ``sum(delta_i)``.

Any optimal solution of ``S*(AC)`` is an M-bounded card-minimal repair,
and by Lemma 1 of [Flesca-Furfaro-Parisi, DBPL 2005] an M-bounded
card-minimal repair exists whenever any repair exists, for M the
theoretical bound below.

Two Big-M regimes are provided:

- :func:`theoretical_big_m` computes the paper's bound
  ``n * (m a)^(2m + 1)`` (from Papadimitriou's integer-programming
  bound [22]) in exact integer arithmetic.  For the running example it
  is ``20 * (28 * 250)^57`` -- about 10^219 -- which documents why the
  bound is a *theoretical* device: no floating-point solver can use it.
- :func:`practical_big_m` computes a data-dependent bound: the sum of
  the absolute values of every involved cell, every right-hand side and
  every frozen constant, scaled by a safety factor.  For
  balance-sheet-style equality systems (where every repaired value is a
  signed combination of existing values and constants) this bound is
  ample; the engine additionally verifies the solved repair against the
  constraints and escalates M if the solve comes back infeasible or
  suspiciously tight.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple as PyTuple

from repro.constraints.constraint import AggregateConstraint, Relop
from repro.constraints.grounding import Cell, GroundConstraint, ground_constraints
from repro.diagnostics import (
    DegenerateTableError,
    InvalidValueError,
    ensure_finite_cell,
)
from repro.milp.iis import IISResult
from repro.milp.model import MILPModel, Sense, Solution, VarType
from repro.relational.database import Database
from repro.relational.domains import Domain
from repro.repair.updates import AtomicUpdate, Repair


class TranslationError(ValueError):
    """Raised when the repair problem cannot be translated."""


class DegenerateTranslationError(DegenerateTableError, TranslationError):
    """No measure cells to repair.

    Subclasses both :class:`TranslationError` (historical contract:
    callers catch it around :func:`translate`) and the taxonomy's
    :class:`~repro.diagnostics.DegenerateTableError` (the batch engine
    classifies it as a deterministic input failure, never retried on
    the fallback backend).
    """


class BigMStrategy(enum.Enum):
    """How the Big-M constant of ``S''(AC)`` is chosen."""

    #: The data-dependent bound of :func:`practical_big_m` (default).
    PRACTICAL = "practical"
    #: The paper's exact bound; usable only when it fits in a float.
    THEORETICAL = "theoretical"
    #: A caller-supplied constant.
    FIXED = "fixed"


class RepairObjective(enum.Enum):
    """Which notion of minimality the MILP optimises.

    The paper's semantics is :attr:`CARDINALITY` (Definition 5).  The
    others are natural alternatives from the repair literature and are
    compared in the A4 ablation bench:

    - :attr:`WEIGHTED_CARDINALITY` -- ``min sum(w_i * delta_i)``:
      cells carry per-cell weights; DART-specific use: weights derived
      from the wrapper's cell matching scores, so low-confidence
      acquisitions are cheaper to change (a confidence prior);
    - :attr:`TOTAL_CHANGE` -- ``min sum(|y_i|)``: the minimum
      total-value-modification semantics of cost-based repairing
      (Bohannon et al., SIGMOD 2005 [7] in the paper's references).
    """

    CARDINALITY = "cardinality"
    WEIGHTED_CARDINALITY = "weighted-cardinality"
    TOTAL_CHANGE = "total-change"


def theoretical_big_m(
    n_variables: int, m_equalities: int, max_abs_coefficient: int
) -> int:
    """The paper's bound ``n * (m a)^(2m + 1)`` as an exact integer.

    ``m`` counts the equalities of the augmented system ``S'(AC)``
    (``N + r`` in the paper's notation), ``n`` its variables
    (``2N + r``), and ``a`` the largest absolute value among the system
    coefficients -- which includes the current database values ``v_i``,
    since they appear as constants in ``y_i = z_i - v_i``.
    """
    if n_variables < 1 or m_equalities < 1:
        raise TranslationError("theoretical bound needs n >= 1 and m >= 1")
    a = max(1, int(math.ceil(max_abs_coefficient)))
    return n_variables * (m_equalities * a) ** (2 * m_equalities + 1)


def practical_big_m(
    values: Sequence[float],
    grounds: Sequence[GroundConstraint],
    *,
    safety_factor: float = 4.0,
) -> float:
    """A data-dependent Big-M: ample for balance-style equality systems.

    Sum of |current values|, |right-hand sides| and |frozen constants|,
    times ``safety_factor``, floor 1000.  The engine cross-checks every
    solution and escalates if the bound ever binds.
    """
    total = sum(abs(float(v)) for v in values)
    total += sum(abs(g.rhs) + abs(g.constant) for g in grounds)
    max_coeff = max(
        (abs(c) for g in grounds for c in g.coefficients.values()), default=1.0
    )
    return max(1000.0, safety_factor * total * max(1.0, max_coeff))


@dataclass
class MILPTranslation:
    """The instance ``S*(AC)`` plus the bookkeeping to read repairs back.

    ``cells`` fixes the index order: ``cells[i]`` corresponds to the
    paper's variables ``z_{i+1}``, ``y_{i+1}``, ``delta_{i+1}``, and
    ``values[i]`` is the current database value ``v_{i+1}``.
    """

    model: MILPModel
    cells: List[Cell]
    values: List[float]
    big_m: float
    grounds: List[GroundConstraint]
    pins: Dict[Cell, float]
    integer_cells: List[bool]
    objective: "RepairObjective" = None  # set by translate()
    weights: Optional[List[float]] = None

    @property
    def n(self) -> int:
        """The paper's ``N``: number of involved database values."""
        return len(self.cells)

    def index_of(self, cell: Cell) -> int:
        return self.cells.index(cell)

    def extract_repair(self, solution: Solution) -> Repair:
        """Read the repair ``rho(s*)`` out of a usable solution.

        Accepts proven optima and anytime (``feasible_gap``) incumbents
        -- both carry a feasible assignment; anything else has no point
        to read a repair from.
        """
        if not solution.is_usable:
            raise TranslationError(
                f"cannot extract a repair from a {solution.status.value} solution"
            )
        updates: List[AtomicUpdate] = []
        for i, cell in enumerate(self.cells):
            z_value = solution.values[f"z{i + 1}"]
            if self.integer_cells[i]:
                z_value = round(z_value)
            original = self.values[i]
            if abs(z_value - original) > 1e-6:
                updates.append(
                    AtomicUpdate(
                        relation=cell[0],
                        tuple_id=cell[1],
                        attribute=cell[2],
                        old_value=original,
                        new_value=z_value,
                    )
                )
        return Repair(updates)

    def binding_deltas(self, solution: Solution, slack: float = 0.05) -> List[Cell]:
        """Cells whose ``|y_i|`` landed within ``slack * M`` of the bound.

        A non-empty answer suggests M was too tight and the engine
        should escalate.
        """
        if solution.values is None:
            return []
        tight: List[Cell] = []
        for i, cell in enumerate(self.cells):
            y_value = abs(solution.values[f"y{i + 1}"])
            if y_value >= (1.0 - slack) * self.big_m:
                tight.append(cell)
        return tight

    def format_like_figure4(self) -> str:
        """Render the instance in the layout of the paper's Figure 4."""
        lines: List[str] = []
        if self.objective is RepairObjective.TOTAL_CHANGE:
            terms = " + ".join(f"t{i + 1}" for i in range(self.n))
        elif self.objective is RepairObjective.WEIGHTED_CARDINALITY:
            assert self.weights is not None
            terms = " + ".join(
                f"{_fmt(w)}*d{i + 1}" for i, w in enumerate(self.weights)
            )
        else:
            terms = " + ".join(f"d{i + 1}" for i in range(self.n))
        lines.append(f"min ({terms})")
        lines.append("subject to:")
        for ground in self.grounds:
            lines.append("  " + self._format_ground(ground))
        for i in range(self.n):
            lines.append(f"  y{i + 1} = z{i + 1} - {_fmt(self.values[i])}")
        if self.objective is RepairObjective.TOTAL_CHANGE:
            for i in range(self.n):
                lines.append(f"  t{i + 1} >= y{i + 1},  t{i + 1} >= -y{i + 1}")
        else:
            for i in range(self.n):
                lines.append(f"  y{i + 1} - M*d{i + 1} <= 0")
                lines.append(f"  -y{i + 1} - M*d{i + 1} <= 0")
        for cell, value in sorted(self.pins.items()):
            lines.append(f"  z{self.index_of(cell) + 1} = {_fmt(value)}   (operator pin)")
        integral = all(self.integer_cells)
        domain = "Z" if integral else "Z or R (per attribute)"
        if self.objective is RepairObjective.TOTAL_CHANGE:
            lines.append(
                f"  z_i, y_i in {domain},  t_i >= 0,  i in [1..{self.n}]"
            )
        else:
            lines.append(
                f"  z_i, y_i in {domain},  d_i in {{0,1}},  i in [1..{self.n}]"
            )
        lines.append(f"  M = {_fmt(self.big_m)}")
        return "\n".join(lines)

    def _format_ground(self, ground: GroundConstraint) -> str:
        parts: List[str] = []
        for cell in sorted(ground.coefficients, key=self.cells.index):
            coefficient = ground.coefficients[cell]
            name = f"z{self.cells.index(cell) + 1}"
            if not parts:
                if coefficient == 1:
                    parts.append(name)
                elif coefficient == -1:
                    parts.append(f"-{name}")
                else:
                    parts.append(f"{_fmt(coefficient)}*{name}")
            else:
                sign = "+" if coefficient > 0 else "-"
                magnitude = abs(coefficient)
                rendered = name if magnitude == 1 else f"{_fmt(magnitude)}*{name}"
                parts.append(f"{sign} {rendered}")
        lhs = " ".join(parts) if parts else "0"
        rhs = ground.rhs - ground.constant
        return f"{lhs} {ground.relop} {_fmt(rhs)}"


    def structural_rows(self) -> List[int]:
        """Indices of model rows that are neither grounds nor pins.

        The ``y_i`` definitions, Big-M links and ``t_i`` absolute-value
        rows are satisfiable in isolation for any ``z``; IIS extraction
        probes them as one batch (they only ever ride along with a
        ground/pin conflict, they never *are* the conflict).
        """
        structural: List[int] = []
        for index, constraint in enumerate(self.model.constraints):
            kind, _ = _classify_row_name(constraint.name)
            if kind == "structural":
                structural.append(index)
        return structural

    def conflict_report(self, iis: "IISResult") -> "ConflictReport":
        """Map an IIS over ``self.model`` back to paper-level objects."""
        grounds: List[GroundConstraint] = []
        pins: Dict[Cell, float] = {}
        structural: List[str] = []
        for member in iis.members:
            kind, index = _classify_row_name(member.name)
            if kind == "ground" and index is not None and index < len(self.grounds):
                grounds.append(self.grounds[index])
            elif kind == "pin" and index is not None and 1 <= index <= self.n:
                cell = self.cells[index - 1]
                pins[cell] = self.pins.get(cell, self.values[index - 1])
            else:
                structural.append(member.name or f"row#{member.index}")
        return ConflictReport(
            grounds=grounds,
            pins=pins,
            structural=structural,
            proven_minimal=iis.proven_minimal,
            probes=iis.probes,
        )


def _classify_row_name(name: str) -> PyTuple[str, Optional[int]]:
    """Classify a translation row name: ground / pin / structural.

    Returns ``(kind, index)`` where index is the ground index (into
    ``MILPTranslation.grounds``) or the 1-based cell number of a pin.
    """
    if name.startswith("g") and ":" in name:
        prefix = name[1:].split(":", 1)[0]
        if prefix.isdigit():
            return "ground", int(prefix)
    if name.startswith("pin") and name[3:].isdigit():
        return "pin", int(name[3:])
    return "structural", None


@dataclass
class ConflictReport:
    """An IIS translated back to ground constraints, pins and cells.

    This is the payload behind ``--explain-infeasible`` and the
    validation loop's pin retraction: the smallest set of paper-level
    facts that cannot hold together.
    """

    grounds: List[GroundConstraint] = field(default_factory=list)
    pins: Dict[Cell, float] = field(default_factory=dict)
    structural: List[str] = field(default_factory=list)
    proven_minimal: bool = True
    probes: int = 0

    @property
    def cells(self) -> List[Cell]:
        """Every cell touched by the conflict, sorted."""
        involved: Dict[Cell, None] = {}
        for ground in self.grounds:
            for cell in ground.coefficients:
                involved.setdefault(cell)
        for cell in self.pins:
            involved.setdefault(cell)
        return sorted(involved)

    def summary(self) -> str:
        parts = [
            f"{len(self.grounds)} ground constraint(s)",
            f"{len(self.pins)} pin(s)",
        ]
        if self.structural:
            parts.append(f"{len(self.structural)} structural row(s)")
        minimal = "minimal" if self.proven_minimal else "not proven minimal"
        return f"conflict over {', '.join(parts)} ({minimal})"

    def describe(self) -> str:
        """Multi-line, operator-facing rendering of the conflict."""
        lines = [self.summary()]
        for ground in self.grounds:
            lines.append(f"  constraint [{ground.source}]: {ground}")
        for cell, value in sorted(self.pins.items()):
            relation, tuple_id, attribute = cell
            lines.append(
                f"  pin: {relation}[{tuple_id}].{attribute} = {_fmt(value)}"
            )
        for name in self.structural:
            lines.append(f"  structural row: {name}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, object]:
        """The report as a JSON-safe dict."""
        return {
            "grounds": [
                {
                    "source": g.source,
                    "constraint": str(g),
                    "relop": str(g.relop),
                    "rhs": g.rhs,
                }
                for g in self.grounds
            ],
            "pins": [
                {
                    "relation": cell[0],
                    "tuple_id": cell[1],
                    "attribute": cell[2],
                    "value": value,
                }
                for cell, value in sorted(self.pins.items())
            ],
            "cells": [list(cell) for cell in self.cells],
            "structural_rows": list(self.structural),
            "proven_minimal": self.proven_minimal,
            "probes": self.probes,
        }


def ensure_finite_grounds(grounds: Sequence[GroundConstraint]) -> None:
    """Raise :class:`~repro.diagnostics.InvalidValueError` for a ground
    row whose frozen constant or bound is NaN or infinite."""
    for ground in grounds:
        if not (math.isfinite(ground.constant) and math.isfinite(ground.rhs)):
            # A non-measure numeric attribute (folded into the frozen
            # constant) or a constraint bound was NaN/inf.
            raise InvalidValueError(
                f"ground constraint from {ground.source!r} has a non-finite "
                f"constant ({ground.constant!r}) or bound ({ground.rhs!r}); "
                f"a non-measure numeric cell or constraint constant is invalid",
                relation=ground.source,
            )


def _fmt(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:g}"


def translate(
    database: Database,
    constraints: Sequence[AggregateConstraint],
    *,
    pins: Optional[Mapping[Cell, float]] = None,
    strategy: BigMStrategy = BigMStrategy.PRACTICAL,
    big_m: Optional[float] = None,
    grounds: Optional[Sequence[GroundConstraint]] = None,
    objective: RepairObjective = RepairObjective.CARDINALITY,
    weights: Optional[Mapping[Cell, float]] = None,
) -> MILPTranslation:
    """Build the instance ``S*(AC)`` for *database* and *constraints*.

    ``pins`` are operator-imposed exact values for individual cells
    (Section 6.3): each pin adds the equality ``z_i = v``.  A
    pre-computed ground system may be passed via ``grounds`` (the
    validation loop reuses it across iterations).

    ``objective`` selects the minimality notion (see
    :class:`RepairObjective`); ``weights`` supplies per-cell weights
    for :attr:`RepairObjective.WEIGHTED_CARDINALITY` (missing cells
    default to weight 1; weights must be positive).
    """
    if grounds is None:
        grounds = ground_constraints(constraints, database, require_steady=True)
    pins = dict(pins or {})

    # Index the involved cells; keep a stable tuple order so z indices
    # match the paper's presentation (z_i follows the i-th tuple).
    seen: Dict[Cell, None] = {}
    for ground in grounds:
        for cell in ground.coefficients:
            seen.setdefault(cell)
    for cell in pins:
        seen.setdefault(cell)
    cells = sorted(seen, key=lambda c: (c[0], c[1], c[2]))
    if not cells:
        raise DegenerateTranslationError(
            "no measure cells are involved in the constraints; nothing to repair"
        )

    values: List[float] = []
    integer_cells: List[bool] = []
    schema = database.schema
    for relation, tuple_id, attribute in cells:
        # Acquisition -> repair boundary: reject NaN/inf/overflow here,
        # with coordinates, instead of letting them poison the lowering.
        values.append(
            ensure_finite_cell(
                database.get_value(relation, tuple_id, attribute),
                relation, tuple_id, attribute,
            )
        )
        domain = schema.relation(relation).domain_of(attribute)
        integer_cells.append(domain is Domain.INTEGER)

    ensure_finite_grounds(grounds)

    if strategy is BigMStrategy.FIXED:
        if big_m is None:
            raise TranslationError("BigMStrategy.FIXED requires big_m")
        chosen_m = float(big_m)
    elif strategy is BigMStrategy.THEORETICAL:
        n_vars = 2 * len(cells) + len(grounds)
        m_rows = len(cells) + len(grounds)
        max_abs = max(
            [abs(v) for v in values]
            + [abs(g.rhs) + abs(g.constant) for g in grounds]
            + [abs(c) for g in grounds for c in g.coefficients.values()]
            + [1.0]
        )
        exact = theoretical_big_m(n_vars, m_rows, int(math.ceil(max_abs)))
        if exact > 1e15:
            raise TranslationError(
                f"theoretical Big-M is {exact:.3e}-ish ({exact.bit_length()} bits); "
                f"it cannot be used numerically -- use BigMStrategy.PRACTICAL"
            )
        chosen_m = float(exact)
    else:
        chosen_m = practical_big_m(values, grounds)
    if big_m is not None and strategy is not BigMStrategy.FIXED:
        chosen_m = float(big_m)

    cell_weights: List[float] = []
    if objective is RepairObjective.WEIGHTED_CARDINALITY:
        weight_map = dict(weights or {})
        for cell in cells:
            weight = float(weight_map.get(cell, 1.0))
            if weight <= 0:
                raise TranslationError(
                    f"weight for cell {cell} must be positive, got {weight}"
                )
            cell_weights.append(weight)
    elif weights:
        raise TranslationError(
            "weights are only meaningful with "
            "RepairObjective.WEIGHTED_CARDINALITY"
        )

    model = MILPModel("S*(AC)")
    z_vars = []
    y_vars = []
    d_vars = []
    t_vars = []
    use_deltas = objective is not RepairObjective.TOTAL_CHANGE
    for i, (cell, is_integer) in enumerate(zip(cells, integer_cells)):
        var_type = VarType.INTEGER if is_integer else VarType.REAL
        # Intersect the Big-M box with the schema's declared value
        # bounds (e.g. Price >= 0): no repair may leave them.
        declared_lower, declared_upper = schema.bounds_of(cell[0], cell[2])
        lower = -chosen_m if declared_lower is None else max(-chosen_m, declared_lower)
        upper = chosen_m if declared_upper is None else min(chosen_m, declared_upper)
        if lower > upper:
            raise TranslationError(
                f"declared bounds on {cell[0]}.{cell[2]} leave no feasible "
                f"value within the Big-M box"
            )
        z_vars.append(
            model.add_variable(f"z{i + 1}", var_type, lower=lower, upper=upper)
        )
    for i, is_integer in enumerate(integer_cells):
        var_type = VarType.INTEGER if is_integer else VarType.REAL
        y_vars.append(model.add_variable(f"y{i + 1}", var_type))
    if use_deltas:
        for i in range(len(cells)):
            d_vars.append(model.add_variable(f"d{i + 1}", VarType.BINARY))
    else:
        # |y_i| linearised as t_i >= +/- y_i; no binaries needed.
        for i in range(len(cells)):
            t_vars.append(model.add_variable(f"t{i + 1}", VarType.REAL, lower=0.0))

    index_of = {cell: i for i, cell in enumerate(cells)}

    # S(AC): the ground system over the z variables.
    for g_index, ground in enumerate(grounds):
        expr = sum(
            (coefficient * z_vars[index_of[cell]]
             for cell, coefficient in ground.coefficients.items()),
            start=0,
        )
        rhs = ground.rhs - ground.constant
        if not ground.coefficients:
            # An empty trivially-false ground constraint: unrepairable.
            if not Relop.holds(ground.relop, ground.constant, ground.rhs):
                raise TranslationError(
                    f"ground constraint {ground.source!r} is constant-false; "
                    f"no repair of measure values can satisfy it"
                )
            continue
        if ground.relop == Relop.LE:
            constraint = expr <= rhs
        elif ground.relop == Relop.GE:
            constraint = expr >= rhs
        else:
            constraint = expr == rhs
        model.add_constraint(constraint, name=f"g{g_index}:{ground.source}")

    # S'(AC): y_i = z_i - v_i.
    for i in range(len(cells)):
        model.add_constraint(
            y_vars[i] - z_vars[i] == -values[i], name=f"y{i + 1}_def"
        )

    if use_deltas:
        # S''(AC): the Big-M link rows.
        for i in range(len(cells)):
            model.add_constraint(
                y_vars[i] - chosen_m * d_vars[i] <= 0, name=f"link+{i + 1}"
            )
            model.add_constraint(
                -1 * y_vars[i] - chosen_m * d_vars[i] <= 0, name=f"link-{i + 1}"
            )
    else:
        for i in range(len(cells)):
            model.add_constraint(t_vars[i] - y_vars[i] >= 0, name=f"abs+{i + 1}")
            model.add_constraint(t_vars[i] + y_vars[i] >= 0, name=f"abs-{i + 1}")

    # Operator pins (Section 6.3): z_i = pinned value.
    for cell, pinned_value in pins.items():
        i = index_of[cell]
        model.add_constraint(z_vars[i] == float(pinned_value), name=f"pin{i + 1}")

    # The objective: S*(AC) minimises the number of changed values;
    # the alternative semantics minimise weighted count / total change.
    if objective is RepairObjective.CARDINALITY:
        model.set_objective(sum(d_vars, start=0))
    elif objective is RepairObjective.WEIGHTED_CARDINALITY:
        model.set_objective(
            sum((w * d for w, d in zip(cell_weights, d_vars)), start=0)
        )
    else:
        model.set_objective(sum(t_vars, start=0))

    return MILPTranslation(
        model=model,
        cells=cells,
        values=values,
        big_m=chosen_m,
        grounds=list(grounds),
        pins=pins,
        integer_cells=integer_cells,
        objective=objective,
        weights=cell_weights or None,
    )
