"""Relation and database instances.

A :class:`Relation` is a bag of tuples over one relational scheme; a
:class:`Database` is an instance of a :class:`~repro.relational.schema.
DatabaseSchema`.  Tuples receive stable integer ids on insertion so
that atomic updates (``<t, A, v'>``) can address "the same row" across
repairs.

Databases support the operations the DART pipeline needs:

- insertion (used by the database generator of the extraction module),
- selection with :class:`~repro.relational.predicates.Condition`
  predicates (used when grounding constraints),
- sum-aggregation over a selected set of tuples (the aggregation
  functions of Section 3.1),
- applying attribute-level updates, producing a *new* database (the
  repair primitives of Section 3.2 never mutate in place).
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple as PyTuple,
)

from repro.relational.predicates import Binding, Condition, TRUE
from repro.relational.schema import DatabaseSchema, RelationSchema, SchemaError
from repro.relational.tuples import Tuple


class Relation:
    """An instance of one relational scheme."""

    def __init__(self, schema: RelationSchema) -> None:
        self.schema = schema
        self._tuples: Dict[int, Tuple] = {}
        self._next_id = 0

    @property
    def name(self) -> str:
        return self.schema.name

    def insert(self, values: Sequence[Any]) -> Tuple:
        """Insert a new tuple built from positional *values*; return it."""
        row = Tuple(self.schema, values, tuple_id=self._next_id)
        self._tuples[self._next_id] = row
        self._next_id += 1
        return row

    def insert_dict(self, record: Mapping[str, Any]) -> Tuple:
        """Insert a tuple from an attribute-name -> value mapping."""
        missing = [n for n in self.schema.attribute_names if n not in record]
        if missing:
            raise SchemaError(
                f"record for {self.name!r} is missing attributes {missing}"
            )
        values = [record[name] for name in self.schema.attribute_names]
        return self.insert(values)

    def get(self, tuple_id: int) -> Tuple:
        try:
            return self._tuples[tuple_id]
        except KeyError:
            raise KeyError(
                f"relation {self.name!r} has no tuple with id {tuple_id}"
            ) from None

    def replace(self, tuple_id: int, new_tuple: Tuple) -> None:
        """Replace the stored tuple with *new_tuple* (same id required)."""
        if tuple_id not in self._tuples:
            raise KeyError(
                f"relation {self.name!r} has no tuple with id {tuple_id}"
            )
        if new_tuple.tuple_id != tuple_id:
            raise ValueError(
                f"replacement tuple id {new_tuple.tuple_id} != {tuple_id}"
            )
        self._tuples[tuple_id] = new_tuple

    def select(
        self, condition: Condition = TRUE, binding: Binding = {}
    ) -> List[Tuple]:
        """All tuples satisfying *condition* under *binding*, in id order."""
        return [
            row for row in self._tuples.values() if condition.holds(row, binding)
        ]

    def sum(
        self,
        expression: Callable[[Tuple], float],
        condition: Condition = TRUE,
        binding: Binding = {},
    ) -> float:
        """``SELECT sum(expression) FROM self WHERE condition``.

        Following SQL semantics an empty selection sums to 0 (the
        paper's aggregation functions are total in the same way: an
        empty T_chi contributes an empty linear sum).
        """
        return sum(expression(row) for row in self.select(condition, binding))

    def __iter__(self) -> Iterator[Tuple]:
        # The store is in id order: ``insert`` appends increasing ids,
        # ``replace`` keeps a key's position and ``copy`` keeps the order.
        return iter(self._tuples.values())

    def __len__(self) -> int:
        return len(self._tuples)

    def copy(self) -> "Relation":
        clone = Relation(self.schema)
        clone._tuples = dict(self._tuples)
        clone._next_id = self._next_id
        return clone

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {len(self)} tuples)"


class Database:
    """An instance of a database scheme."""

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self._relations: Dict[str, Relation] = {
            rs.name: Relation(rs) for rs in schema
        }

    def relation(self, name: str) -> Relation:
        try:
            return self._relations[name]
        except KeyError:
            raise SchemaError(f"no relation named {name!r}") from None

    def insert(self, relation_name: str, values: Sequence[Any]) -> Tuple:
        return self.relation(relation_name).insert(values)

    def insert_dict(self, relation_name: str, record: Mapping[str, Any]) -> Tuple:
        return self.relation(relation_name).insert_dict(record)

    def tuples(self, relation_name: Optional[str] = None) -> Iterator[Tuple]:
        """Iterate tuples of one relation, or of every relation in order."""
        if relation_name is not None:
            yield from self.relation(relation_name)
            return
        for name in self.schema.relation_names:
            yield from self._relations[name]

    def total_tuples(self) -> int:
        return sum(len(r) for r in self._relations.values())

    def copy(self) -> "Database":
        """A value-level copy sharing schemas but not tuple stores."""
        clone = Database(self.schema)
        clone._relations = {
            name: relation.copy() for name, relation in self._relations.items()
        }
        return clone

    def set_value(self, relation_name: str, tuple_id: int, attribute: str, value: Any) -> Tuple:
        """Apply one attribute-level update in place; return the new tuple.

        Callers that need repair semantics (immutability of the
        original instance) should ``copy()`` first -- the repair engine
        does.
        """
        relation = self.relation(relation_name)
        old = relation.get(tuple_id)
        new = old.replacing(attribute, value)
        relation.replace(tuple_id, new)
        return new

    def get_value(self, relation_name: str, tuple_id: int, attribute: str) -> Any:
        return self.relation(relation_name).get(tuple_id)[attribute]

    def measure_cells(self) -> List[PyTuple[str, int, str]]:
        """Every ``(relation, tuple_id, attribute)`` holding a measure value.

        These are the database items a repair is allowed to touch; the
        MILP translation creates one ``z`` variable per cell.
        """
        cells: List[PyTuple[str, int, str]] = []
        for relation_name in self.schema.relation_names:
            measure_names = self.schema.measures_of(relation_name)
            if not measure_names:
                continue
            for row in self._relations[relation_name]:
                assert row.tuple_id is not None
                for attribute in measure_names:
                    cells.append((relation_name, row.tuple_id, attribute))
        return cells

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        if self.schema.relation_names != other.schema.relation_names:
            return False
        for name in self.schema.relation_names:
            if list(self.relation(name)) != list(other.relation(name)):
                return False
        return True

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}:{len(rel)}" for name, rel in self._relations.items()
        )
        return f"Database({parts})"


def diff_databases(original: Database, repaired: Database) -> List[PyTuple[str, int, str, Any, Any]]:
    """Cells whose values differ between two instances of the same scheme.

    Returns ``(relation, tuple_id, attribute, old, new)`` records; used
    by tests and by the metrics kit to compare a repair against ground
    truth.
    """
    differences: List[PyTuple[str, int, str, Any, Any]] = []
    for relation_name in original.schema.relation_names:
        original_relation = original.relation(relation_name)
        repaired_relation = repaired.relation(relation_name)
        for row in original_relation:
            assert row.tuple_id is not None
            other = repaired_relation.get(row.tuple_id)
            for attribute in row.schema.attribute_names:
                if row[attribute] != other[attribute]:
                    differences.append(
                        (relation_name, row.tuple_id, attribute,
                         row[attribute], other[attribute])
                    )
    return differences
