"""Unit tests for relation/database instances."""

import pytest

from repro.relational.database import Database, Relation, diff_databases
from repro.relational.domains import Domain
from repro.relational.predicates import equals, var
from repro.relational.schema import DatabaseSchema, RelationSchema, SchemaError


@pytest.fixture
def db_schema():
    relation = RelationSchema.build(
        "R",
        [("Name", Domain.STRING), ("Group", Domain.STRING), ("Value", Domain.INTEGER)],
    )
    return DatabaseSchema([relation], measure_attributes=[("R", "Value")])


@pytest.fixture
def database(db_schema):
    db = Database(db_schema)
    db.insert("R", ["a", "g1", 1])
    db.insert("R", ["b", "g1", 2])
    db.insert("R", ["c", "g2", 3])
    return db


class TestInsertion:
    def test_tuple_ids_are_sequential(self, database):
        ids = [t.tuple_id for t in database.relation("R")]
        assert ids == [0, 1, 2]

    def test_insert_dict(self, db_schema):
        db = Database(db_schema)
        t = db.insert_dict("R", {"Name": "x", "Group": "g", "Value": 9})
        assert t["Value"] == 9

    def test_insert_dict_missing_attribute(self, db_schema):
        db = Database(db_schema)
        with pytest.raises(SchemaError):
            db.insert_dict("R", {"Name": "x"})

    def test_unknown_relation(self, database):
        with pytest.raises(SchemaError):
            database.insert("X", [1])


class TestSelection:
    def test_select_all(self, database):
        assert len(database.relation("R").select()) == 3

    def test_select_with_condition(self, database):
        rows = database.relation("R").select(equals("Group", "g1"))
        assert [t["Name"] for t in rows] == ["a", "b"]

    def test_select_with_binding(self, database):
        rows = database.relation("R").select(equals("Group", var("g")), {"g": "g2"})
        assert [t["Name"] for t in rows] == ["c"]

    def test_sum(self, database):
        total = database.relation("R").sum(
            lambda t: t["Value"], equals("Group", "g1")
        )
        assert total == 3

    def test_sum_of_empty_selection_is_zero(self, database):
        assert database.relation("R").sum(lambda t: t["Value"], equals("Group", "zz")) == 0


class TestUpdatesAndCopies:
    def test_set_value(self, database):
        database.set_value("R", 1, "Value", 20)
        assert database.get_value("R", 1, "Value") == 20

    def test_set_value_preserves_identity(self, database):
        database.set_value("R", 1, "Value", 20)
        assert database.relation("R").get(1).tuple_id == 1

    def test_copy_is_independent(self, database):
        clone = database.copy()
        clone.set_value("R", 0, "Value", 99)
        assert database.get_value("R", 0, "Value") == 1
        assert clone.get_value("R", 0, "Value") == 99

    def test_copy_preserves_equality(self, database):
        assert database.copy() == database

    def test_replace_checks_id(self, database):
        relation = database.relation("R")
        row = relation.get(0)
        with pytest.raises(KeyError):
            relation.replace(99, row)

    def test_unknown_tuple_id(self, database):
        with pytest.raises(KeyError):
            database.get_value("R", 42, "Value")

    def test_iteration_and_selection_stay_in_id_order(self, database):
        def order(db):
            relation = db.relation("R")
            return [t.tuple_id for t in relation], [
                t.tuple_id for t in relation.select()
            ]

        # Update the first and the last tuple, then insert: an updated
        # tuple keeps its place, an inserted one comes last.
        database.set_value("R", 0, "Value", 10)
        relation = database.relation("R")
        relation.replace(2, relation.get(2).replacing("Value", 30))
        database.insert("R", ["d", "g2", 4])
        assert order(database) == ([0, 1, 2, 3], [0, 1, 2, 3])
        clone = database.copy()
        clone.set_value("R", 1, "Value", 20)
        clone.insert("R", ["e", "g1", 5])
        assert order(clone) == ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])
        assert [t["Value"] for t in clone.relation("R")] == [10, 20, 30, 4, 5]
        assert order(database) == ([0, 1, 2, 3], [0, 1, 2, 3])


class TestMeasureCells:
    def test_measure_cells_enumerates_all(self, database):
        cells = database.measure_cells()
        assert cells == [("R", 0, "Value"), ("R", 1, "Value"), ("R", 2, "Value")]

    def test_total_tuples(self, database):
        assert database.total_tuples() == 3

    def test_tuples_iterator(self, database):
        assert len(list(database.tuples())) == 3
        assert len(list(database.tuples("R"))) == 3


class TestDiff:
    def test_diff_empty_for_copies(self, database):
        assert diff_databases(database, database.copy()) == []

    def test_diff_reports_changed_cell(self, database):
        clone = database.copy()
        clone.set_value("R", 2, "Value", 30)
        diff = diff_databases(database, clone)
        assert diff == [("R", 2, "Value", 3, 30)]

    def test_equality_detects_value_change(self, database):
        clone = database.copy()
        clone.set_value("R", 0, "Value", 5)
        assert database != clone
