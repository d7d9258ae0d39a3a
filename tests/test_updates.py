"""Unit tests for atomic updates and repairs (Definitions 2-4)."""

import pickle

import pytest

from repro.repair.updates import AtomicUpdate, Repair, RepairError, apply_repair


def update(tuple_id=3, attribute="Value", old=250, new=220, relation="CashBudget"):
    return AtomicUpdate(relation, tuple_id, attribute, old, new)


class TestAtomicUpdate:
    def test_cell_is_lambda(self):
        u = update()
        assert u.cell == ("CashBudget", 3, "Value")

    def test_delta(self):
        assert update().delta == -30

    def test_identity_update_rejected(self):
        with pytest.raises(RepairError):
            update(old=100, new=100)

    def test_str(self):
        assert "250 -> 220" in str(update())


class TestRepair:
    def test_cardinality(self):
        repair = Repair([update(), update(tuple_id=4, old=1, new=2)])
        assert repair.cardinality == 2
        assert len(repair) == 2

    def test_consistent_database_update_enforced(self):
        # Two updates on the same <tuple, attribute> violate Definition 3.
        with pytest.raises(RepairError):
            Repair([update(new=220), update(new=230)])

    def test_same_tuple_different_attribute_allowed(self):
        # lambda(u1) != lambda(u2) even though the tuple is shared.
        u1 = update(attribute="Value")
        u2 = AtomicUpdate("CashBudget", 3, "Other", 1, 2)
        assert Repair([u1, u2]).cardinality == 2

    def test_canonical_ordering(self):
        u1 = update(tuple_id=9, old=1, new=2)
        u2 = update(tuple_id=2, old=1, new=2)
        repair = Repair([u1, u2])
        assert repair.cells() == [("CashBudget", 2, "Value"), ("CashBudget", 9, "Value")]

    def test_update_lookup(self):
        u = update()
        repair = Repair([u])
        assert repair.update_for(u.cell) == u
        assert repair.update_for(("CashBudget", 99, "Value")) is None

    def test_restriction(self):
        u1 = update(tuple_id=1, old=1, new=2)
        u2 = update(tuple_id=2, old=1, new=2)
        restricted = Repair([u1, u2]).restricted_to([u1.cell])
        assert restricted.cardinality == 1

    def test_empty_repair(self):
        repair = Repair([])
        assert repair.cardinality == 0
        assert "empty" in str(repair)

    def test_equality_and_hash(self):
        assert Repair([update()]) == Repair([update()])
        assert hash(Repair([update()])) == hash(Repair([update()]))


class TestKeptRepairs:
    """Callers keep repairs by the thousand, and batch workers pickle
    them: slotted objects, no per-repair cell map."""

    def test_no_instance_dict(self):
        u = update()
        assert not hasattr(u, "__dict__")
        assert not hasattr(Repair([u]), "__dict__")

    def test_pickle_round_trip(self):
        repair = Repair([update(), update(tuple_id=4, old=1, new=2.5)])
        clone = pickle.loads(pickle.dumps(repair))
        assert clone == repair
        assert clone.updates == repair.updates
        assert clone.update_for(("CashBudget", 4, "Value")).new_value == 2.5

    def test_update_for_present_and_absent_cells(self):
        first = update(tuple_id=1, old=1, new=2)
        second = update(tuple_id=7, old=3, new=4)
        repair = Repair([second, first])
        assert repair.update_for(("CashBudget", 7, "Value")) is second
        assert repair.update_for(("CashBudget", 1, "Value")) is first
        assert repair.update_for(("CashBudget", 1, "Other")) is None
        assert Repair([]).update_for(first.cell) is None

    def test_duplicate_cell_names_the_cell(self):
        with pytest.raises(RepairError, match=r"same cell \('CashBudget', 3"):
            Repair([update(new=220), update(tuple_id=4, old=1, new=2),
                    update(new=230)])


class TestApplyRepair:
    def test_example6_repair(self, acquired, ground_truth):
        # rho = {<t, Value, 220>} on the 'total cash receipts' 2003 tuple.
        repaired = apply_repair(acquired, Repair([update()]))
        assert repaired == ground_truth

    def test_original_untouched(self, acquired):
        apply_repair(acquired, Repair([update()]))
        assert acquired.get_value("CashBudget", 3, "Value") == 250

    def test_stale_old_value_rejected(self, acquired):
        with pytest.raises(RepairError):
            apply_repair(acquired, Repair([update(old=999, new=220)]))

    def test_non_measure_attribute_rejected(self, acquired):
        bad = AtomicUpdate("CashBudget", 3, "Year", 2003, 2004)
        with pytest.raises(RepairError):
            apply_repair(acquired, Repair([bad]))

    def test_fractional_value_on_integer_domain_rejected(self, acquired):
        bad = AtomicUpdate("CashBudget", 3, "Value", 250, 220.5)
        with pytest.raises(RepairError):
            apply_repair(acquired, Repair([bad]))

    def test_empty_repair_is_identity(self, acquired):
        assert apply_repair(acquired, Repair([])) == acquired
