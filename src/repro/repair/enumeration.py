"""Enumerating card-minimal repairs.

A database may admit *several* card-minimal repairs (the paper notes
this right after Definition 5); DART's validation loop exists to let a
human choose among them.  For analysis -- and for the CQA module's
intuition -- it is useful to materialise them.

Enumeration is by *support* (the set of cells a repair changes), using
the standard no-good-cut loop:

1. solve ``S*(AC)``; record the optimal cardinality ``k*`` and the
   support ``S`` of the found repair;
2. add the cut ``sum_{i in S} delta_i <= |S| - 1`` (any further repair
   must differ from S in at least one cell);
3. re-solve; stop when the objective exceeds ``k*`` (all card-minimal
   supports exhausted) or the model becomes infeasible.

Within one support the witness values may not be unique for
under-constrained systems; the returned repair is the solver's
witness.  For the equality systems of the balance-sheet family the
values per support are uniquely determined, which the tests check.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Optional, Sequence

from repro.constraints.grounding import Cell
from repro.milp.model import SolveStatus
from repro.milp.solver import solve
from repro.repair.engine import RepairEngine, UnrepairableError
from repro.repair.translation import RepairObjective, TranslationError, translate
from repro.repair.updates import Repair


def enumerate_card_minimal_repairs(
    engine: RepairEngine,
    *,
    limit: int = 100,
    pins: Optional[Mapping[Cell, float]] = None,
) -> List[Repair]:
    """All card-minimal repairs (by support), up to *limit*.

    Returns repairs in solver order; every returned repair is verified
    against the constraints.  Raises
    :class:`~repro.repair.engine.UnrepairableError` if no repair
    exists at all.
    """
    if engine.objective is not RepairObjective.CARDINALITY:
        raise TranslationError(
            "repair enumeration is defined for the card-minimal objective"
        )
    # The Big-M path: the exclusion rounds below reuse its M.
    first = engine.find_big_m_repair(pins=pins)
    optimal_cardinality = first.cardinality
    found: List[Repair] = [first.repair]
    if limit <= 1:
        return found

    excluded_supports: List[List[Cell]] = [first.repair.cells()]
    big_m = first.translation.big_m

    while len(found) < limit:
        translation = translate(
            engine.database,
            engine.constraints,
            pins=pins,
            grounds=engine.ground_system,
            big_m=big_m,
        )
        model = translation.model
        index_of = {cell: i for i, cell in enumerate(translation.cells)}
        for support in excluded_supports:
            deltas = [model.variable(f"d{index_of[cell] + 1}") for cell in support]
            if not deltas:
                # The empty repair was optimal: nothing else can be
                # card-minimal.
                return found
            model.add_constraint(
                sum(deltas, start=0) <= float(len(support) - 1)
            )
        solution = solve(model, backend=engine.backend)
        if solution.status is SolveStatus.INFEASIBLE:
            break
        if not solution.is_optimal or solution.objective is None:
            raise UnrepairableError(
                f"enumeration solve returned {solution.status.value}"
            )
        if round(solution.objective) > optimal_cardinality:
            break  # only super-minimal repairs remain
        repair = translation.extract_repair(solution)
        if not engine.is_repair(repair):
            raise UnrepairableError(
                "enumeration produced a candidate failing verification"
            )
        found.append(repair)
        excluded_supports.append(repair.cells())
    return found


def count_card_minimal_supports(
    engine: RepairEngine, *, limit: int = 100
) -> int:
    """Convenience: how many distinct card-minimal supports exist
    (saturating at *limit*)."""
    return len(enumerate_card_minimal_repairs(engine, limit=limit))
