"""Free-form MPS reading/writing for MILP models.

MPS is the lingua franca of LP/MILP solvers (LINDO -- the paper's
solver -- reads it, as do HiGHS, CPLEX, Gurobi, CBC, ...).  Supporting
it makes the repair instances portable: ``S*(AC)`` can be exported,
inspected, or solved by an external solver, and regression instances
can be checked in as plain text.

Supported subset (ample for the models this library builds):

- sections ``NAME``, ``ROWS``, ``COLUMNS`` (with ``MARKER`` /
  ``INTORG`` / ``INTEND`` integrality markers), ``RHS``, ``RANGES``
  (read only), ``BOUNDS``, ``ENDATA``;
- row types ``N`` (objective; the first N row wins), ``L``, ``G``,
  ``E``;
- bound types ``LO``, ``UP``, ``FX``, ``FR``, ``MI``, ``PL``, ``BV``,
  ``LI``, ``UI``.

Free-form (whitespace-separated) syntax only; fixed-column MPS from
the 1960s is not a goal.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.milp.model import (
    Constraint,
    LinExpr,
    MILPModel,
    ModelError,
    Sense,
    VarType,
)

INF = math.inf


class MpsError(ValueError):
    """Raised on malformed MPS input."""


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

_SENSE_TO_ROW = {Sense.LE: "L", Sense.GE: "G", Sense.EQ: "E"}


def write_mps(model: MILPModel, destination: Optional[Union[str, Path]] = None) -> str:
    """Serialise *model* as free-form MPS; returns the text.

    Constraint names are made unique (MPS requires it); anonymous
    constraints get ``c<i>`` names.  The objective constant, which MPS
    cannot express, is emitted as a comment so round-trips can warn.
    """
    lines: List[str] = [f"NAME {model.name or 'model'}"]
    if model.objective.constant:
        lines.append(f"* OBJSENSE MIN; objective constant {model.objective.constant:g}"
                     " (not representable in MPS)")

    row_names: List[str] = []
    used = set()
    for index, constraint in enumerate(model.constraints):
        base = constraint.name or f"c{index}"
        name = base
        suffix = 1
        while name in used:
            name = f"{base}_{suffix}"
            suffix += 1
        used.add(name)
        row_names.append(name)

    lines.append("ROWS")
    lines.append(" N obj")
    for name, constraint in zip(row_names, model.constraints):
        lines.append(f" {_SENSE_TO_ROW[constraint.sense]} {name}")

    # Column-major coefficient map.
    lines.append("COLUMNS")
    in_integer_block = False
    marker_count = 0
    for variable in model.variables:
        should_be_integer = variable.var_type.is_integral
        if should_be_integer and not in_integer_block:
            lines.append(f" MARKER{marker_count} 'MARKER' 'INTORG'")
            marker_count += 1
            in_integer_block = True
        elif not should_be_integer and in_integer_block:
            lines.append(f" MARKER{marker_count} 'MARKER' 'INTEND'")
            marker_count += 1
            in_integer_block = False
        entries: List[Tuple[str, float]] = []
        objective_coefficient = model.objective.coefficients.get(variable.index, 0.0)
        if objective_coefficient:
            entries.append(("obj", objective_coefficient))
        for name, constraint in zip(row_names, model.constraints):
            coefficient = constraint.expr.coefficients.get(variable.index, 0.0)
            if coefficient:
                entries.append((name, coefficient))
        if not entries:
            # Emit a zero objective entry so the column exists.
            entries.append(("obj", 0.0))
        for row, value in entries:
            lines.append(f" {variable.name} {row} {value:.12g}")
    if in_integer_block:
        lines.append(f" MARKER{marker_count} 'MARKER' 'INTEND'")

    lines.append("RHS")
    for name, constraint in zip(row_names, model.constraints):
        if constraint.rhs:
            lines.append(f" rhs {name} {constraint.rhs:.12g}")

    lines.append("BOUNDS")
    for variable in model.variables:
        if variable.var_type is VarType.BINARY:
            lines.append(f" BV bnd {variable.name}")
            continue
        lower, upper = variable.lower, variable.upper
        if lower == 0.0 and upper == INF:
            continue  # the MPS default
        if lower == -INF and upper == INF:
            lines.append(f" FR bnd {variable.name}")
            continue
        if lower == upper:
            lines.append(f" FX bnd {variable.name} {lower:.12g}")
            continue
        if lower == -INF:
            lines.append(f" MI bnd {variable.name}")
        elif lower != 0.0:
            lines.append(f" LO bnd {variable.name} {lower:.12g}")
        if upper != INF:
            lines.append(f" UP bnd {variable.name} {upper:.12g}")

    lines.append("ENDATA")
    text = "\n".join(lines) + "\n"
    if destination is not None:
        Path(destination).write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

_ROW_TO_SENSE = {"L": Sense.LE, "G": Sense.GE, "E": Sense.EQ}


def read_mps(source: Union[str, Path], *, is_text: bool = False) -> MILPModel:
    """Parse free-form MPS text (or a file) into a :class:`MILPModel`."""
    if is_text:
        text = source if isinstance(source, str) else Path(source).read_text()
    else:
        text = Path(source).read_text(encoding="utf-8")

    name = "mps"
    objective_row: Optional[str] = None
    row_sense: Dict[str, Sense] = {}
    row_order: List[str] = []
    columns: Dict[str, Dict[str, float]] = {}
    column_order: List[str] = []
    integer_columns: set = set()
    rhs: Dict[str, float] = {}
    ranges: Dict[str, float] = {}
    bounds: Dict[str, List[Tuple[str, Optional[float]]]] = {}

    section = None
    in_integer_block = False
    for line_number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("*"):
            continue
        upper = stripped.upper()
        if upper.startswith("NAME"):
            parts = stripped.split(None, 1)
            if len(parts) > 1:
                name = parts[1].strip()
            section = "NAME"
            continue
        if upper in ("ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
            section = upper
            if section == "ENDATA":
                break
            continue

        fields = stripped.split()
        if section == "ROWS":
            if len(fields) != 2:
                raise MpsError(f"line {line_number}: bad ROWS entry {stripped!r}")
            row_type, row_name = fields[0].upper(), fields[1]
            if row_type == "N":
                if objective_row is None:
                    objective_row = row_name
                continue
            if row_type not in _ROW_TO_SENSE:
                raise MpsError(f"line {line_number}: unknown row type {row_type!r}")
            row_sense[row_name] = _ROW_TO_SENSE[row_type]
            row_order.append(row_name)
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1].strip("'\"").upper() == "MARKER":
                marker = fields[2].strip("'\"").upper()
                if marker == "INTORG":
                    in_integer_block = True
                elif marker == "INTEND":
                    in_integer_block = False
                continue
            if len(fields) not in (3, 5):
                raise MpsError(f"line {line_number}: bad COLUMNS entry {stripped!r}")
            column = fields[0]
            if column not in columns:
                columns[column] = {}
                column_order.append(column)
            if in_integer_block:
                integer_columns.add(column)
            pairs = list(zip(fields[1::2], fields[2::2]))
            for row, value in pairs:
                columns[column][row] = columns[column].get(row, 0.0) + float(value)
        elif section == "RHS":
            if len(fields) not in (3, 5):
                raise MpsError(f"line {line_number}: bad RHS entry {stripped!r}")
            for row, value in zip(fields[1::2], fields[2::2]):
                rhs[row] = float(value)
        elif section == "RANGES":
            for row, value in zip(fields[1::2], fields[2::2]):
                ranges[row] = float(value)
        elif section == "BOUNDS":
            bound_type = fields[0].upper()
            if bound_type in ("FR", "MI", "PL", "BV"):
                if len(fields) != 3:
                    raise MpsError(f"line {line_number}: bad BOUNDS entry {stripped!r}")
                bounds.setdefault(fields[2], []).append((bound_type, None))
            else:
                if len(fields) != 4:
                    raise MpsError(f"line {line_number}: bad BOUNDS entry {stripped!r}")
                bounds.setdefault(fields[2], []).append(
                    (bound_type, float(fields[3]))
                )
        elif section in (None, "NAME"):
            raise MpsError(f"line {line_number}: data before a section header")

    model = MILPModel(name)
    variables = {}
    for column in column_order:
        lower, upper = 0.0, INF
        var_type = VarType.INTEGER if column in integer_columns else VarType.REAL
        is_binary = False
        for bound_type, value in bounds.get(column, ()):
            if bound_type == "LO":
                lower = value  # type: ignore[assignment]
            elif bound_type == "UP":
                upper = value  # type: ignore[assignment]
                # Classic MPS quirk: UP with a negative value and no LO
                # implies a free-below variable; we keep lower at 0 for
                # predictability (free-form consumers agree).
            elif bound_type == "FX":
                lower = upper = value  # type: ignore[assignment]
            elif bound_type == "FR":
                lower, upper = -INF, INF
            elif bound_type == "MI":
                lower = -INF
            elif bound_type == "PL":
                upper = INF
            elif bound_type == "BV":
                is_binary = True
            elif bound_type == "LI":
                lower = value  # type: ignore[assignment]
                var_type = VarType.INTEGER
            elif bound_type == "UI":
                upper = value  # type: ignore[assignment]
                var_type = VarType.INTEGER
            else:
                raise MpsError(f"unknown bound type {bound_type!r}")
        if is_binary:
            variables[column] = model.add_variable(column, VarType.BINARY)
        else:
            variables[column] = model.add_variable(column, var_type, lower, upper)

    objective = LinExpr()
    for column, coefficients in columns.items():
        for row, value in coefficients.items():
            if row == objective_row:
                objective.add_term(variables[column], value)
    model.set_objective(objective)

    for row in row_order:
        expr = LinExpr()
        for column, coefficients in columns.items():
            if row in coefficients:
                expr.add_term(variables[column], coefficients[row])
        sense = row_sense[row]
        rhs_value = rhs.get(row, 0.0)
        if row not in ranges:
            if sense is Sense.LE:
                constraint = expr <= rhs_value
            elif sense is Sense.GE:
                constraint = expr >= rhs_value
            else:
                constraint = expr == rhs_value
            model.add_constraint(constraint, name=row)
            continue
        # RANGES turn a row into a two-sided constraint (standard MPS
        # conventions): L -> [rhs-|r|, rhs]; G -> [rhs, rhs+|r|];
        # E -> [rhs, rhs+r] for r >= 0, [rhs+r, rhs] for r < 0.
        r = ranges[row]
        if sense is Sense.LE:
            low, high = rhs_value - abs(r), rhs_value
        elif sense is Sense.GE:
            low, high = rhs_value, rhs_value + abs(r)
        else:
            low, high = sorted((rhs_value, rhs_value + r))
        companion = LinExpr(dict(expr.coefficients))
        model.add_constraint(expr <= high, name=f"{row}__hi")
        model.add_constraint(companion >= low, name=f"{row}__lo")
    return model
