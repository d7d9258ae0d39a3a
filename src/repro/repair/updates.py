"""Atomic updates, consistent database updates, repairs (Defs. 2-5).

An *atomic update* ``u = <t, A, v'>`` replaces the value of measure
attribute ``A`` in tuple ``t`` with ``v'``.  Updates address tuples by
``(relation, tuple_id)`` -- the stable identity assigned at insertion
-- so ``lambda(u) = <tuple, attribute>`` is the triple
``(relation, tuple_id, attribute)``, exactly the *cell* of the
grounding layer.

A set of atomic updates is a *consistent database update* iff no two
updates touch the same cell; a *repair* is a consistent database
update whose application satisfies the constraints.  Cardinality of a
repair = number of updates = the paper's ``|lambda(rho)|``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Set

from repro.constraints.grounding import Cell
from repro.relational.database import Database
from repro.relational.domains import Domain, DomainError, coerce_value


class RepairError(ValueError):
    """Raised for ill-formed updates or repairs."""


@dataclass(frozen=True, slots=True)
class AtomicUpdate:
    """``<t, A, v'>``: set measure attribute *attribute* of the tuple
    identified by ``(relation, tuple_id)`` to *new_value*.

    Slotted: callers keep repairs by the thousand (the benchmark
    harness keeps every item's answer, the service every result)."""

    relation: str
    tuple_id: int
    attribute: str
    old_value: float
    new_value: float

    @property
    def cell(self) -> Cell:
        """``lambda(u)``: the (tuple, attribute) pair this update touches."""
        return (self.relation, self.tuple_id, self.attribute)

    @property
    def delta(self) -> float:
        """``y_i = z_i - v_i``: the signed change of the value."""
        return self.new_value - self.old_value

    def __post_init__(self) -> None:
        if self.new_value == self.old_value:
            raise RepairError(
                f"atomic update on {self.cell} must change the value "
                f"(both are {self.old_value!r})"
            )

    def __str__(self) -> str:
        return (
            f"{self.relation}[{self.tuple_id}].{self.attribute}: "
            f"{_fmt(self.old_value)} -> {_fmt(self.new_value)}"
        )


def _fmt(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return str(value)


class Repair:
    """A consistent database update (Definition 3) -- possibly a repair.

    The constructor enforces consistency: two updates may not address
    the same cell.  Whether the update set actually *repairs* a given
    database w.r.t. given constraints is checked by the engine
    (:meth:`repro.repair.engine.RepairEngine.is_repair`).
    """

    __slots__ = ("_updates",)

    def __init__(self, updates: Iterable[AtomicUpdate]) -> None:
        self._updates: List[AtomicUpdate] = []
        seen: Set[Cell] = set()
        for update in updates:
            cell = update.cell
            if cell in seen:
                raise RepairError(
                    f"two atomic updates address the same cell {cell}"
                )
            seen.add(cell)
            self._updates.append(update)
        # Canonical order: by cell, so repairs compare and print stably.
        self._updates.sort(key=lambda u: u.cell)

    @property
    def updates(self) -> List[AtomicUpdate]:
        return list(self._updates)

    def cells(self) -> List[Cell]:
        """``lambda(U)``: the set of cells touched, in canonical order."""
        return [update.cell for update in self._updates]

    @property
    def cardinality(self) -> int:
        """``|lambda(rho)|``: the number of values changed."""
        return len(self._updates)

    def update_for(self, cell: Cell) -> Optional[AtomicUpdate]:
        """The update touching *cell*, or None (a scan: repairs are small)."""
        for update in self._updates:
            if update.cell == cell:
                return update
        return None

    def restricted_to(self, cells: Iterable[Cell]) -> "Repair":
        """The sub-update touching only *cells* (used by the validator)."""
        wanted = set(cells)
        return Repair(u for u in self._updates if u.cell in wanted)

    def __iter__(self) -> Iterator[AtomicUpdate]:
        return iter(self._updates)

    def __len__(self) -> int:
        return len(self._updates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Repair):
            return NotImplemented
        return self._updates == other._updates

    def __hash__(self) -> int:
        return hash(tuple(self._updates))

    def __str__(self) -> str:
        if not self._updates:
            return "Repair(empty)"
        body = "; ".join(str(u) for u in self._updates)
        return f"Repair({self.cardinality} updates: {body})"

    def __repr__(self) -> str:
        return str(self)


def apply_repair(database: Database, repair: Repair) -> Database:
    """Return ``rho(D)``: a copy of *database* with *repair* applied.

    The original instance is never mutated.  Values are coerced into
    the attribute domain, so applying a repair with a fractional value
    to an integer attribute raises.
    """
    repaired = database.copy()
    for update in repair:
        schema = repaired.schema.relation(update.relation)
        domain = schema.domain_of(update.attribute)
        if not repaired.schema.is_measure(update.relation, update.attribute):
            raise RepairError(
                f"{update.relation}.{update.attribute} is not a measure "
                f"attribute; repairs only change measure values"
            )
        current = repaired.get_value(update.relation, update.tuple_id, update.attribute)
        if current != update.old_value:
            raise RepairError(
                f"update {update} expected old value {update.old_value!r}, "
                f"database holds {current!r}"
            )
        try:
            new_value = coerce_value(update.new_value, domain)
        except DomainError as exc:
            raise RepairError(
                f"update {update}: value does not fit domain {domain}: {exc}"
            ) from exc
        repaired.set_value(
            update.relation, update.tuple_id, update.attribute, new_value
        )
    return repaired
