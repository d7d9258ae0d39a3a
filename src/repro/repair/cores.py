"""Card-minimal repairs from a core-guided hitting-set loop (no Big-M).

Section 5 of the paper computes a card-minimal repair by solving the
Big-M MILP ``S*(AC)``.  This module reaches the same optimum without
it, as an implicit hitting-set loop (Davies & Bacchus, CP 2011) whose
cuts are combinatorial Benders cuts (Codato & Fischetti, Oper. Res.
54, 2006) -- the set-cover view of fixing numerical attributes that
Bertossi & Bravo give (cs/0503032), under the card-minimal semantics of
Flesca, Furfaro & Parisi (cs/0505059):

- A **support** is the set of cells a repair may change.  A **core** is
  a set of cells every repair must touch.  Each violated ground row is
  a core.
- **Master:** an exact minimum hitting set of the cores
  (:class:`_Master`, a bitmask branch and bound with a disjoint-core
  bound).  Its size is a lower bound on repair cardinality.
- **Subproblem:** can the ground rows hold when only the support
  changes, every other cell at its acquired value or its pin?  The
  equality rows are eliminated over the support in exact integer
  arithmetic; inequality rows and declared bounds ride along and are
  reduced by the same pivots.
- **New core:** when the rows cannot hold, the elimination leaves a row
  combination ``y^T A`` that is zero on the support and does not hold
  at the fixed cells.  The fixed cells it mentions form a new core: a
  repair that keeps all of them breaks ``y^T A x = y^T b`` whatever
  else it changes.

A new core never lowers the hitting number, so the first feasible
support has exactly that size and the repair is card-minimal by
construction.  On equality rows the repaired values are unique: a
second solution would give a line of solutions along which some
support cell reaches its acquired value, a smaller feasible support.
Equality-only inputs therefore get one repair, whatever the backend.

The ground system splits into connected components (rows link the
cells they share; pinned cells are constants and link nothing), and
each component runs its own loop.  A cash budget splits into one
component per year.

Two cases leave the exact elimination, and the component is handed
back to the caller, which solves it through ``S*(AC)``
(:attr:`CoreStats.bigm_fallbacks` counts these):

- the equality rows leave a support column free, possible only when
  inequality rows or declared bounds hold the values in (on equality
  rows alone a free column at a minimum support would give a smaller
  feasible support);
- a fractional value on an integer cell.

A deadline that expires inside the loop leaves the components it has
not settled to the caller, with the hitting number proved on the one
in progress (:attr:`CoreResult.expired`).

The module also holds the exact hitting-set searches of the cascade's
tier T3 (:func:`minimum_hitting_sets`, :func:`hitting_sets_of_size`,
:func:`repair_lower_bound`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple as PyTuple,
    Union,
)

from repro.constraints.constraint import Relop
from repro.constraints.grounding import Cell, GroundConstraint
from repro.diagnostics import SolveTimeoutError, ensure_finite_cell
from repro.milp.deadline import Deadline
from repro.relational.database import Database
from repro.relational.domains import Domain
from repro.repair.translation import (
    DegenerateTranslationError,
    TranslationError,
    ensure_finite_grounds,
)

#: Backends whose card-minimal repairs come from this loop.  ``scipy``
#: keeps the Big-M MILP: compiled HiGHS beats the pure-Python master on
#: the dense balance sheets.
CORE_BACKENDS = frozenset({"bnb", "bnb-simplex"})

#: A ground row whose residual is within this of holding holds: the
#: tolerance of :meth:`GroundConstraint.holds`, so the loop and the
#: engine's consistency check agree on which rows are violated.
ROW_TOL = 1e-9

#: Node interval at which the master checks the deadline.
_DEADLINE_EVERY = 256

Exact = Union[int, Fraction]


class CoreInfeasible(Exception):
    """No repair exists: a core has no cell the repair may change."""


@dataclass
class CoreStats:
    """Counters of one core-loop repair."""

    #: Connected components of the ground system.
    components: int = 0
    #: Master solves: each returns one minimum hitting set.
    master_rounds: int = 0
    #: Cores learned from infeasible supports (violated rows excluded).
    cores: int = 0
    #: Components handed back to ``S*(AC)``.
    bigm_fallbacks: int = 0


@dataclass
class CoreResult:
    """The new value of every cell the repair changes, pins included,
    and the components left to ``S*(AC)`` (as their ground rows)."""

    assignment: Dict[Cell, Union[int, float]]
    fallback: List[List[GroundConstraint]] = field(default_factory=list)
    #: Components the deadline left unrepaired: the one in progress and
    #: every later one.
    expired: List[List[GroundConstraint]] = field(default_factory=list)
    #: The hitting number proved on the component in progress: a lower
    #: bound on the changes the expired components need.
    expired_bound: int = 0
    stats: CoreStats = field(default_factory=CoreStats)


# ----------------------------------------------------------------------
# Exact rows
# ----------------------------------------------------------------------


def _exact(value: float) -> Exact:
    """*value* as an int when it is integral, else as an exact Fraction."""
    if type(value) is int:
        return value
    value = float(value)
    if value.is_integer():
        return int(value)
    return Fraction(value)


class _Row:
    """``sum(coefs[j] * d_j) <relop> rhs`` over a component's changes.

    ``d_j`` is the change of column ``j`` (new value minus acquired
    value), so a support leaves every other ``d_j`` at 0.  Coefficients
    and right-hand side are integers (the row is scaled by the common
    denominator); ``equality`` is False for a ``<=`` row.
    """

    __slots__ = ("coefs", "rhs", "equality")

    def __init__(self, coefs: Dict[int, int], rhs: int, equality: bool) -> None:
        self.coefs = coefs
        self.rhs = rhs
        self.equality = equality

    def copy(self) -> "_Row":
        return _Row(dict(self.coefs), self.rhs, self.equality)

    def eliminate(self, pivot: "_Row", column: int) -> None:
        """Clear *column* with the equality row *pivot*, then reduce.

        The multiplier on this row stays positive, so a ``<=`` row
        keeps its direction.
        """
        p = pivot.coefs[column]
        q = self.coefs[column]
        if p < 0:
            p, q = -p, -q
        coefs = self.coefs
        for j in coefs:
            coefs[j] *= p
        for j, a in pivot.coefs.items():
            value = coefs.get(j, 0) - q * a
            if value:
                coefs[j] = value
            else:
                coefs.pop(j, None)
        self.rhs = self.rhs * p - q * pivot.rhs
        divisor = math.gcd(self.rhs, *coefs.values())
        if divisor > 1:
            for j in coefs:
                coefs[j] //= divisor
            self.rhs //= divisor


def _scaled(coefs: Dict[int, Exact], rhs: Exact, equality: bool) -> _Row:
    denominators = [
        x.denominator for x in (rhs, *coefs.values()) if type(x) is Fraction
    ]
    scale = math.lcm(*denominators) if denominators else 1
    return _Row(
        {j: int(a * scale) for j, a in coefs.items() if a},
        int(rhs * scale),
        equality,
    )


class _Component:
    """One connected component of the ground system, in change space."""

    def __init__(
        self,
        grounds: List[GroundConstraint],
        cells: List[Cell],
        values: Mapping[Cell, Exact],
        pins: Mapping[Cell, Exact],
        database: Database,
    ) -> None:
        schema = database.schema
        self.cells = cells
        index = {cell: j for j, cell in enumerate(cells)}
        self.values = [values[cell] for cell in cells]
        self.integer = []
        #: Declared bounds in change space (``None`` = unbounded).
        self.lower: List[Optional[Exact]] = []
        self.upper: List[Optional[Exact]] = []
        #: Cores before any subproblem: violated rows, and cells whose
        #: acquired value lies outside their declared bounds.
        self.initial_cores: List[int] = []
        for j, (relation, _, attribute) in enumerate(cells):
            self.integer.append(
                schema.relation(relation).domain_of(attribute) is Domain.INTEGER
            )
            lower, upper = schema.bounds_of(relation, attribute)
            value = self.values[j]
            self.lower.append(None if lower is None else _exact(lower) - value)
            self.upper.append(None if upper is None else _exact(upper) - value)
            if (lower is not None and self.lower[j] > 0) or (
                upper is not None and self.upper[j] < 0
            ):
                self.initial_cores.append(1 << j)
        self.rows: List[_Row] = []
        self.by_column: List[List[int]] = [[] for _ in cells]
        for ground in grounds:
            coefs: Dict[int, Exact] = {}
            residual = _exact(ground.constant) - _exact(ground.rhs)
            for cell, coefficient in ground.coefficients.items():
                coefficient = _exact(coefficient)
                if cell in pins:
                    residual += coefficient * pins[cell]
                else:
                    coefs[index[cell]] = coefficient
                    residual += coefficient * self.values[index[cell]]
            if ground.relop == Relop.GE:
                coefs = {j: -a for j, a in coefs.items()}
                residual = -residual
            equality = ground.relop == Relop.EQ
            # Within the engine's tolerance a row holds: it stays as it
            # is, exactly, unless the support changes it.
            if (abs(residual) if equality else residual) <= ROW_TOL:
                residual = 0 if equality else min(residual, 0)
            else:
                self.initial_cores.append(sum(1 << j for j in coefs))
            row = _scaled(coefs, -residual, equality)
            for j in row.coefs:
                self.by_column[j].append(len(self.rows))
            self.rows.append(row)


# ----------------------------------------------------------------------
# The master: minimum hitting sets over bitmasks
# ----------------------------------------------------------------------


def _bits(mask: int) -> List[int]:
    """The set bits of *mask*, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Master:
    """Exact minimum hitting sets of a growing list of cores.

    :attr:`size` is the hitting number proved so far; a new core never
    lowers it, so each round searches for a hitting set of that size
    first and climbs only when none exists.  The search branches on the
    smallest live core, cell by cell in column order, and bans a cell
    once its branch is exhausted, so no set is visited twice.  A branch
    dies when its disjoint live cores outnumber the cells it may still
    choose.
    """

    def __init__(self, deadline: Deadline) -> None:
        self.cores: List[int] = []
        self.size = 0
        self._deadline = deadline
        self._nodes = 0

    def add(self, core: int) -> None:
        if any(kept & core == kept for kept in self.cores):
            return  # a superset of a kept core adds nothing
        self.cores = [kept for kept in self.cores if kept & core != core]
        count = core.bit_count()
        position = len(self.cores)
        while position and self.cores[position - 1].bit_count() > count:
            position -= 1
        self.cores.insert(position, core)

    def solve(self) -> int:
        """A minimum hitting set of the cores, as a bitmask."""
        while True:
            found = self._search(0, 0, self.size)
            if found is not None:
                return found
            self.size += 1

    def _search(self, chosen: int, banned: int, budget: int) -> Optional[int]:
        self._nodes += 1
        if self._nodes % _DEADLINE_EVERY == 0:
            self._deadline.check("core-loop master")
        branch = 0
        branch_count = 0
        used = 0
        disjoint = 0
        for core in self.cores:
            if core & chosen:
                continue
            live = core & ~banned
            if not live:
                return None
            if not live & used:
                used |= live
                disjoint += 1
                if disjoint > budget:
                    return None
            count = live.bit_count()
            if not branch or count < branch_count:
                branch, branch_count = live, count
        if not branch:
            return chosen
        for bit in _bits(branch):
            cell = 1 << bit
            found = self._search(chosen | cell, banned, budget - 1)
            if found is not None:
                return found
            banned |= cell
        return None


# ----------------------------------------------------------------------
# The subproblem
# ----------------------------------------------------------------------

#: Subproblem verdicts besides a feasible assignment and a core.
_FALLBACK = "fallback"


def _subproblem(
    component: _Component, support: int
) -> Union[Dict[int, Exact], int, str]:
    """Can the rows hold when only *support* changes?

    Returns the change of every support column when they can, a new
    core (a bitmask of fixed columns; 0 proves no repair exists) when
    they cannot, or :data:`_FALLBACK` when only ``S*(AC)`` can tell.
    """
    columns = _bits(support)
    touched = sorted({r for j in columns for r in component.by_column[j]})
    equalities: List[_Row] = []
    passive: List[_Row] = []  # <= rows: reduced, never pivots
    for r in touched:
        row = component.rows[r]
        (equalities if row.equality else passive).append(row.copy())
    for j in columns:
        upper, lower = component.upper[j], component.lower[j]
        if upper is not None:
            passive.append(_scaled({j: 1}, upper, False))
        if lower is not None:
            passive.append(_scaled({j: -1}, -lower, False))

    pivots: Dict[int, _Row] = {}
    free: List[int] = []
    open_rows = list(equalities)
    for j in columns:
        candidates = [row for row in open_rows if j in row.coefs]
        if not candidates:
            free.append(j)
            continue
        pivot = min(candidates, key=lambda row: (abs(row.coefs[j]), len(row.coefs)))
        open_rows.remove(pivot)
        for row in (*equalities, *passive):
            if row is not pivot and j in row.coefs:
                row.eliminate(pivot, j)
        pivots[j] = pivot

    # A combined row with no support column that does not hold at the
    # fixed cells: its fixed cells are a core.  Take the smallest.
    core: Optional[int] = None
    for row in (*open_rows, *passive):
        if any(j in row.coefs for j in free):
            continue
        if (row.rhs != 0) if row.equality else (row.rhs < 0):
            mask = sum(1 << j for j in row.coefs)
            if core is None or mask.bit_count() < core.bit_count():
                core = mask
    if core is not None:
        return core
    if free:
        return _FALLBACK  # bounds or <= rows hold a column in

    changes: Dict[int, Exact] = {}
    for j, row in pivots.items():
        change = Fraction(row.rhs, row.coefs[j])
        if change.denominator == 1:
            change = change.numerator
        elif component.integer[j]:
            return _FALLBACK  # fractional on an integer cell
        if change == 0:
            return _FALLBACK  # cannot happen on a minimum hitting set
        changes[j] = change
    return changes


# ----------------------------------------------------------------------
# The loop
# ----------------------------------------------------------------------


def _components(
    grounds: Sequence[GroundConstraint], pins: Mapping[Cell, Exact]
) -> PyTuple[List[PyTuple[List[GroundConstraint], List[Cell]]], List[GroundConstraint]]:
    """Connected components (rows, sorted cells), and the rows with no
    free cell.  Components come in order of their first cell."""
    parent: Dict[Cell, Cell] = {}

    def find(cell: Cell) -> Cell:
        root = cell
        while parent[root] != root:
            root = parent[root]
        while parent[cell] != root:
            parent[cell], cell = root, parent[cell]
        return root

    constant: List[GroundConstraint] = []
    linked: List[PyTuple[GroundConstraint, Cell]] = []
    for ground in grounds:
        free = [cell for cell in ground.coefficients if cell not in pins]
        if not free:
            constant.append(ground)
            continue
        for cell in free:
            parent.setdefault(cell, cell)
        root = find(free[0])
        for cell in free[1:]:
            other = find(cell)
            if other != root:
                parent[other] = root
        linked.append((ground, free[0]))
    rows: Dict[Cell, List[GroundConstraint]] = {}
    cells: Dict[Cell, List[Cell]] = {}
    for cell in parent:
        cells.setdefault(find(cell), []).append(cell)
    for ground, cell in linked:
        rows.setdefault(find(cell), []).append(ground)
    components = [(rows[root], sorted(members)) for root, members in cells.items()]
    components.sort(key=lambda component: component[1][0])
    return components, constant


def solve_cores(
    grounds: Sequence[GroundConstraint],
    database: Database,
    *,
    pins: Optional[Mapping[Cell, float]] = None,
    deadline: Optional[Deadline] = None,
) -> CoreResult:
    """A card-minimal repair of *database* under *grounds* and *pins*.

    Raises :class:`CoreInfeasible` when no repair exists, and the
    translation's typed errors on the inputs it refuses (non-finite
    values, a constant-false row, no cells at all).  Components listed
    in :attr:`CoreResult.fallback` are left unrepaired: the caller
    solves them through ``S*(AC)``.  So are those in
    :attr:`CoreResult.expired` when *deadline* expires inside the loop.
    """
    deadline = deadline if deadline is not None else Deadline(None)
    ensure_finite_grounds(grounds)
    exact_pins = {cell: _exact(value) for cell, value in (pins or {}).items()}
    involved: Dict[Cell, None] = {}
    for ground in grounds:
        involved.update(dict.fromkeys(ground.coefficients))
    involved.update(dict.fromkeys(exact_pins))
    if not involved:
        raise DegenerateTranslationError(
            "no measure cells are involved in the constraints; nothing to repair"
        )
    for cell in sorted(involved):
        ensure_finite_cell(database.get_value(*cell), *cell)
    values = {cell: _exact(database.get_value(*cell)) for cell in involved}

    assignment: Dict[Cell, Union[int, float]] = {}
    schema = database.schema
    for cell, pinned in exact_pins.items():
        relation, _, attribute = cell
        integer = schema.relation(relation).domain_of(attribute) is Domain.INTEGER
        lower, upper = schema.bounds_of(relation, attribute)
        if (
            (integer and type(pinned) is Fraction)
            or (lower is not None and pinned < lower)
            or (upper is not None and pinned > upper)
        ):
            raise CoreInfeasible(
                f"the pin on {cell} leaves the cell's domain or declared bounds"
            )
        if pinned != values[cell]:
            assignment[cell] = pinned if integer else float(pinned)

    components, constant = _components(grounds, exact_pins)
    for ground in constant:
        lhs = _exact(ground.constant) + sum(
            _exact(a) * exact_pins[cell] for cell, a in ground.coefficients.items()
        )
        if Relop.holds(ground.relop, float(lhs), ground.rhs):
            continue
        if not ground.coefficients:
            raise TranslationError(
                f"ground constraint {ground.source!r} is constant-false; "
                f"no repair of measure values can satisfy it"
            )
        raise CoreInfeasible(
            f"ground constraint {ground.source!r} is violated and every "
            f"cell it mentions is pinned"
        )

    result = CoreResult(assignment)
    stats = result.stats
    stats.components = len(components)
    for position, (rows, cells) in enumerate(components):
        master: Optional[_Master] = None
        try:
            deadline.check("core loop")
            component = _Component(rows, cells, values, exact_pins, database)
            if not component.initial_cores:
                continue
            master = _Master(deadline)
            for core in component.initial_cores:
                master.add(core)
            while True:
                stats.master_rounds += 1
                verdict = _subproblem(component, master.solve())
                if verdict is _FALLBACK:
                    stats.bigm_fallbacks += 1
                    result.fallback.append(rows)
                    break
                if isinstance(verdict, dict):
                    for j, change in verdict.items():
                        new = component.values[j] + change
                        new = int(new) if component.integer[j] else float(new)
                        if new != database.get_value(*cells[j]):
                            # A real change below a float's resolution
                            # is none.
                            assignment[cells[j]] = new
                    break
                if not verdict:
                    raise CoreInfeasible(
                        "the ground rows cannot hold whatever cells change"
                    )
                stats.cores += 1
                master.add(verdict)
                deadline.check("core loop")
        except SolveTimeoutError:
            result.expired = [rows for rows, _ in components[position:]]
            result.expired_bound = master.size if master is not None else 0
            break
    return result


# ----------------------------------------------------------------------
# The hitting-set searches of the cascade's tier T3
# ----------------------------------------------------------------------


def repair_lower_bound(
    grounds: Sequence[GroundConstraint], database: Database
) -> int:
    """A sound lower bound on repair cardinality for *database*.

    Every violated ground row needs at least one of its cells changed;
    rows with pairwise-disjoint cell sets therefore force pairwise-
    distinct changes.  A greedy packing (fewest-cells rows first) of
    cell-disjoint violated rows is thus a valid -- if not maximal --
    lower bound on ``|lambda(rho)|`` for any repair ``rho``.
    """
    violated = [g for g in grounds if not g.holds(database)]
    violated.sort(key=lambda g: len(g.coefficients))
    used: Set[Cell] = set()
    bound = 0
    for ground in violated:
        cells = set(ground.cells())
        if not cells:
            # An empty violated row witnesses unrepairability; it forces
            # no cell change, so it contributes nothing to the bound.
            continue
        if cells & used:
            continue
        used |= cells
        bound += 1
    return bound


#: Search caps for the exact hitting-set machinery.  Residues reaching
#: T3 are tiny (a handful of violated rows over a few dozen cells); the
#: caps exist so a pathological instance degrades to "fall through to
#: T4" instead of stalling the cascade.
HITTING_SET_MAX_NODES = 50_000
HITTING_SET_MAX_SOLUTIONS = 64


class _HittingSetCapped(Exception):
    """Internal: the hitting-set search blew its node budget."""


def minimum_hitting_sets(
    row_cells: Sequence[FrozenSet[Cell]],
    *,
    max_nodes: int = HITTING_SET_MAX_NODES,
    max_solutions: int = HITTING_SET_MAX_SOLUTIONS,
) -> PyTuple[int, List[FrozenSet[Cell]], bool, bool]:
    """Exact minimum hitting sets of the violated-row cell sets.

    Returns ``(h, solutions, certified, complete)``.  When *certified*
    is True, ``h`` is the exact minimum number of cells needed to
    intersect every row in *row_cells* -- a sound lower bound on repair
    cardinality, since any repair must change at least one cell of
    every violated row -- and *solutions* holds hitting sets of size
    exactly ``h``.  *complete* is True when *solutions* provably lists
    **every** size-``h`` hitting set (no node or solution cap was hit);
    the certified support search needs that completeness for its
    infeasibility proofs, while the greedy gate only needs ``h``.
    When the branch-and-bound node cap is hit during the minimum-size
    phase, the search gives up entirely: ``certified`` is False and
    callers must fall back to a weaker bound
    (:func:`repair_lower_bound`).

    The branching rule (pick an un-hit row, branch on each of its
    cells) is complete: every hitting set contains some cell of every
    row, so every minimum solution appears on some branch.
    """
    rows = [cells for cells in row_cells if cells]
    if not rows:
        return 0, [frozenset()], True, True
    nodes = 0
    best = len(set().union(*rows))  # hitting everything is an upper bound

    def search(
        chosen: Set[Cell],
        limit: int,
        collect: Optional[Set[FrozenSet[Cell]]],
    ) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > max_nodes:
            raise _HittingSetCapped
        open_rows = [cells for cells in rows if not (cells & chosen)]
        if not open_rows:
            if collect is None:
                best = min(best, len(chosen))
            else:
                if len(collect) >= max_solutions:
                    raise _HittingSetCapped
                collect.add(frozenset(chosen))
            return
        if len(chosen) >= (min(limit, best) if collect is None else limit):
            return
        # Branch on the most-constrained row: fewest candidate cells.
        pivot = min(open_rows, key=lambda cells: (len(cells), sorted(cells)))
        for cell in sorted(pivot):
            chosen.add(cell)
            search(chosen, limit, collect)
            chosen.remove(cell)

    try:
        # Phase 1: find the minimum size h (depth capped at incumbent).
        search(set(), best, None)
    except _HittingSetCapped:
        return 0, [], False, False
    h = best
    # Phase 2: collect the size-h hitting sets.  A cap here only
    # truncates the candidate list -- h itself stays certified, but
    # completeness (and with it the certified support search) is lost.
    solutions: Set[FrozenSet[Cell]] = set()
    complete = True
    nodes = 0
    try:
        search(set(), h, solutions)
    except _HittingSetCapped:
        complete = False
    return h, sorted(solutions, key=sorted), True, complete


def hitting_sets_of_size(
    row_cells: Sequence[FrozenSet[Cell]],
    size: int,
    *,
    max_nodes: int = HITTING_SET_MAX_NODES,
    max_solutions: int = HITTING_SET_MAX_SOLUTIONS,
) -> PyTuple[List[FrozenSet[Cell]], bool]:
    """All *irredundant* hitting sets of exactly *size* cells.

    Irredundant means every chosen cell was picked to hit a row no
    earlier pick hit -- the branch rule never extends an already-
    complete hitting set, so redundant supersets (minimal set plus idle
    cells) are excluded by construction; the certified support search
    reaches those through its interacting-cell expansion instead.
    Returns ``(solutions, complete)``; *complete* is False when a cap
    was hit, in which case the list may be missing solutions.
    """
    rows = [cells for cells in row_cells if cells]
    if not rows:
        return ([frozenset()] if size == 0 else []), True
    nodes = 0
    solutions: Set[FrozenSet[Cell]] = set()

    def search(chosen: Set[Cell]) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise _HittingSetCapped
        open_rows = [cells for cells in rows if not (cells & chosen)]
        if not open_rows:
            if len(chosen) == size:
                if len(solutions) >= max_solutions:
                    raise _HittingSetCapped
                solutions.add(frozenset(chosen))
            return
        if len(chosen) >= size:
            return
        pivot = min(open_rows, key=lambda cells: (len(cells), sorted(cells)))
        for cell in sorted(pivot):
            chosen.add(cell)
            search(chosen)
            chosen.remove(cell)

    try:
        search(set())
    except _HittingSetCapped:
        return sorted(solutions, key=sorted), False
    return sorted(solutions, key=sorted), True
