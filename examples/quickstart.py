#!/usr/bin/env python3
"""Quickstart: the paper's running example, end to end.

Reproduces Examples 1-11 of the paper:

1. the acquired cash budget of Figure 3, with the recognition error
   (total cash receipts 2003 read as 250 instead of 220);
2. consistency checking against Constraints 1-3 (the two violations of
   Example 1);
3. the MILP instance S*(AC) of Figure 4;
4. the card-minimal repair of Example 6 (change one value: 250 -> 220);
5. the supervised validation loop accepting it in one iteration.

Run:  python examples/quickstart.py
"""

from repro.datasets import (
    cash_budget_constraints,
    paper_acquired_instance,
    paper_ground_truth,
)
from repro.repair import OracleOperator, RepairEngine, ValidationLoop


def main() -> None:
    acquired = paper_acquired_instance()
    constraints = cash_budget_constraints()

    print("=== The acquired instance (Figure 3) ===")
    for row in acquired.relation("CashBudget"):
        print(f"  {row}")

    print("\n=== Steady aggregate constraints ===")
    for constraint in constraints:
        steady = constraint.is_steady(acquired.schema)
        print(f"  [{constraint.name}] steady={steady}")
        print(f"    {constraint}")

    engine = RepairEngine(acquired, constraints)

    print("\n=== Inconsistency detection ===")
    for violation in engine.violations():
        print(f"  violated: {violation}")

    print("\n=== The MILP instance S*(AC) (Figure 4) ===")
    outcome = engine.find_card_minimal_repair()
    print(outcome.translation.format_like_figure4())

    print("\n=== Card-minimal repair (Example 6) ===")
    print(f"  objective (number of changed values): {outcome.objective:.0f}")
    for update in outcome.repair:
        print(f"  suggested update: {update}")

    print("\n=== Supervised validation (Section 6.3) ===")
    operator = OracleOperator(paper_ground_truth(), acquired=acquired)
    session = ValidationLoop(engine, operator).run(first_outcome=outcome)
    print(f"  iterations: {session.iterations}")
    print(f"  values inspected by the operator: {session.values_inspected}")
    print(f"  repaired instance equals the source document: "
          f"{session.repaired_database == paper_ground_truth()}")


if __name__ == "__main__":
    main()
