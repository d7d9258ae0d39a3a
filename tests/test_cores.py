"""The core-guided hitting-set loop (``repro.repair.cores``).

On the in-repo backends the engine's card-minimal repair comes from the
loop, not from the Big-M MILP.  The suite checks it against independent
references:

- the certified Big-M answers (``scipy`` through the engine, and the
  branch and bound through ``find_big_m_repair``) on seeded cash
  budgets, balance sheets, bounded catalogs and orders, with and
  without pins.  A Big-M solve can overshoot the optimum (HiGHS accepts
  a tiny ``delta`` under a large M), so the reference is the smaller of
  the two certified cardinalities;
- brute force (``repair/bruteforce.py``) on hypothesis-generated
  grounded systems, and as the soundness oracle for every learned core.

Components whose minimum support the equality rows leave underdetermined
(declared bounds, ``<=`` rows) and fractional supports on integer cells
are handed to ``S*(AC)``; the hand-off has its own tests.

Seeds honour ``REPRO_TEST_SEED`` (``tests/_seeds.py``).
"""

from __future__ import annotations

import importlib.util
import itertools
import random
from pathlib import Path
from typing import Dict, List, Optional

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import repro.repair.cores as cores_module
from repro.acquisition.ocr import OcrChannel, inject_value_errors
from repro.constraints.grounding import GroundConstraint
from repro.core.scenarios import balance_sheet_scenario
from repro.core.system import DartSystem
from repro.datasets import (
    cash_budget_constraints,
    generate_balance_sheet,
    generate_cash_budget,
    generate_catalog,
    generate_orders,
    paper_acquired_instance,
)
from repro.diagnostics import SolveTimeoutError
from repro.milp.certify import certify_database
from repro.relational.database import Database
from repro.relational.domains import Domain
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.repair.bruteforce import _subset_feasible
from repro.repair.cores import CoreInfeasible, solve_cores
from repro.repair.engine import RepairEngine, UnrepairableError
from repro.repair.updates import apply_repair

from tests._seeds import derived_seeds, describe_seed

BACKENDS = ("bnb", "bnb-simplex")


def _corrupted(kind: str, seed: int):
    """(database, constraints, injected) for one seeded input."""
    rng = random.Random(seed)
    n_errors = rng.randint(1, 4)
    if kind == "cash":
        workload = generate_cash_budget(n_years=rng.randint(2, 3), seed=seed)
    elif kind == "sheet":
        workload = generate_balance_sheet(depth=2, branching=2, seed=seed)
    elif kind == "catalog":
        workload = generate_catalog(
            n_categories=3, products_per_category=3, seed=seed,
            with_price_bounds=True,
        )
    else:
        workload = generate_orders(
            n_customers=2, n_orders=4, lines_per_order=2, seed=seed
        )
    database, injected = inject_value_errors(
        workload.ground_truth, n_errors, seed=seed + 1
    )
    return database, workload.constraints, injected


def _reference_cardinality(database, constraints, pins) -> Optional[int]:
    """The smaller certified Big-M cardinality; None when unrepairable."""
    found = []
    for backend in ("scipy", "bnb"):
        engine = RepairEngine(database, constraints, backend=backend)
        try:
            outcome = engine.find_big_m_repair(pins=pins)
        except UnrepairableError:
            continue
        assert outcome.certified is True
        found.append(outcome.cardinality)
    return min(found) if found else None


def _cells_of(grounds, pins) -> List:
    return sorted({c for g in grounds for c in g.coefficients} | set(pins))


def _support_feasible(database, grounds, free, pins) -> bool:
    """Brute force: can the rows hold when only *free* cells change?"""
    cells = _cells_of(grounds, pins)
    schema = database.schema
    return (
        _subset_feasible(
            grounds,
            cells,
            {c: float(database.get_value(*c)) for c in cells},
            {
                c: schema.relation(c[0]).domain_of(c[2]) is Domain.INTEGER
                for c in cells
            },
            list(free),
            1e9,
            dict(pins),
            {c: schema.bounds_of(c[0], c[2]) for c in cells},
        )
        is not None
    )


# ---------------------------------------------------------------------------
# (a) Differential against the certified Big-M answers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cash", "sheet", "catalog", "orders"])
@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
@pytest.mark.parametrize("seed", derived_seeds(6), ids=lambda s: f"seed{s}")
def test_cardinality_matches_the_big_m_optimum(kind, pinned, seed):
    database, constraints, injected = _corrupted(kind, seed)
    pins: Dict = {}
    if pinned and injected:
        # An operator who read the source value of one corrupted cell,
        # and one who accepted a cell the errors did not touch.
        cell, true_value, _ = injected[0]
        pins[cell] = true_value
        engine = RepairEngine(database, constraints)
        untouched = [
            c for c in engine.involved_cells()
            if c not in {i[0] for i in injected}
        ]
        if untouched:
            pins[untouched[0]] = database.get_value(*untouched[0])
    note = describe_seed(seed)
    reference = _reference_cardinality(database, constraints, pins or None)
    for backend in BACKENDS:
        engine = RepairEngine(database, constraints, backend=backend)
        if reference is None:
            with pytest.raises(UnrepairableError):
                engine.find_card_minimal_repair(pins=pins or None)
            continue
        outcome = engine.find_card_minimal_repair(pins=pins or None)
        assert outcome.cardinality == reference, note
        assert outcome.objective == float(reference)
        assert outcome.certified is True and outcome.certificate.certified
        assert engine.is_repair(outcome.repair), note
        for cell, value in pins.items():
            update = outcome.repair.update_for(cell)
            assert (update.new_value if update else database.get_value(*cell)) == value
        assert outcome.translation is None and outcome.solution is None
        record = engine.solve_stats[-1]
        assert record.phase == "cores" and record.status == "optimal"
        assert record.components >= 1
        if kind in ("cash", "sheet"):  # equality rows only: no hand-off
            assert engine.solve_stats == [record]
            assert record.bigm_fallbacks == 0


def _integer_database(values) -> Database:
    relation = RelationSchema.build(
        "R", [("Id", Domain.INTEGER), ("V", Domain.INTEGER)], key=("Id",)
    )
    database = Database(DatabaseSchema([relation], measure_attributes=[("R", "V")]))
    for index, value in enumerate(values):
        database.insert("R", [index, value])
    return database


@st.composite
def equality_systems(draw):
    """A small grounded system: signed unit rows over integer cells,
    some of them violated by a perturbed right-hand side."""
    n = draw(st.integers(min_value=2, max_value=6))
    values = draw(st.lists(st.integers(-30, 30), min_size=n, max_size=n))
    database = _integer_database(values)
    grounds = []
    for index in range(draw(st.integers(min_value=1, max_value=4))):
        support = draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
        )
        coefficients = {
            ("R", j, "V"): float(draw(st.sampled_from([-1, 1]))) for j in support
        }
        current = sum(
            a * values[cell[1]] for cell, a in coefficients.items()
        )
        shift = draw(st.sampled_from([0, 0, 1, -3, 7]))
        grounds.append(
            GroundConstraint(
                f"h{index}", (), coefficients, 0.0, "=", float(current + shift)
            )
        )
    return database, grounds


def _engine_on(database, grounds, backend) -> RepairEngine:
    """An engine whose ground system is *grounds* (no constraints)."""
    engine = RepairEngine(database, [], backend=backend)
    engine._grounding._system = list(grounds)
    return engine


def _hands_off(database, grounds) -> bool:
    """Does the loop leave a component to S*(AC)?"""
    try:
        return bool(solve_cores(grounds, database).fallback)
    except CoreInfeasible:
        return False


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(equality_systems())
def test_generated_equality_systems_match_brute_force(system):
    """Brute force over every support decides the minimum."""
    database, grounds = system
    # Random signed rows need not be totally unimodular: a support whose
    # unique values are fractional goes to the Big-M branch and bound,
    # which can take minutes to prove a parity contradiction.  That
    # hand-off has its own tests below.
    assume(not _hands_off(database, grounds))
    cells = _cells_of(grounds, {})
    minimum = next(
        (
            size
            for size in range(len(cells) + 1)
            if any(
                _support_feasible(database, grounds, free, {})
                for free in itertools.combinations(cells, size)
            )
        ),
        None,
    )
    repairs = []
    for backend in BACKENDS:
        engine = _engine_on(database, grounds, backend)
        if minimum is None:
            with pytest.raises(UnrepairableError):
                engine.find_card_minimal_repair()
            continue
        outcome = engine.find_card_minimal_repair()
        assert outcome.cardinality == minimum
        assert outcome.certified is True
        assert certify_database(
            grounds, apply_repair(database, outcome.repair)
        ).certified
        repairs.append(outcome.repair)
    assert len(set(repairs)) <= 1


# ---------------------------------------------------------------------------
# (b) One repair per equality-only input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["cash", "sheet"])
@pytest.mark.parametrize("seed", derived_seeds(8), ids=lambda s: f"seed{s}")
def test_both_backends_return_the_same_repair(kind, seed):
    database, constraints, _ = _corrupted(kind, seed)
    repairs = [
        RepairEngine(database, constraints, backend=backend)
        .find_card_minimal_repair()
        .repair
        for backend in BACKENDS
    ]
    assert repairs[0] == repairs[1], describe_seed(seed)


# ---------------------------------------------------------------------------
# (c) Unrepairable inputs, (d) the deadline
# ---------------------------------------------------------------------------

CONTRADICTORY_PINS = {
    ("CashBudget", 1, "Value"): 100,
    ("CashBudget", 2, "Value"): 50,
    ("CashBudget", 3, "Value"): 999,
}


@pytest.mark.parametrize("backend", BACKENDS)
def test_contradictory_pins_are_unrepairable_and_explained(backend):
    engine = RepairEngine(
        paper_acquired_instance(), cash_budget_constraints(), backend=backend
    )
    with pytest.raises(UnrepairableError, match="under the given pins"):
        engine.find_card_minimal_repair(pins=CONTRADICTORY_PINS)
    conflict = engine.explain_infeasible(pins=CONTRADICTORY_PINS)
    assert set(conflict.pins) <= set(CONTRADICTORY_PINS) and conflict.pins
    assert any(g.source == "detail_vs_aggregate" for g in conflict.grounds)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pin_outside_the_declared_bounds_is_unrepairable(backend):
    database, constraints, _ = _corrupted("catalog", derived_seeds(1)[0])
    engine = RepairEngine(database, constraints, backend=backend)
    with pytest.raises(UnrepairableError):
        engine.find_card_minimal_repair(pins={("Catalog", 0, "Price"): -5})


@pytest.mark.parametrize("backend", BACKENDS)
def test_expired_budget_raises_typed_timeout(backend):
    database, constraints, _ = _corrupted("sheet", derived_seeds(1)[0])
    engine = RepairEngine(database, constraints, backend=backend)
    with pytest.raises(SolveTimeoutError) as info:
        engine.find_card_minimal_repair(time_limit=1e-9)
    assert info.value.code == "timeout"


# ---------------------------------------------------------------------------
# (e) Every learned core is sound
# ---------------------------------------------------------------------------


def _learned_cores(monkeypatch, run) -> List[frozenset]:
    """Run *run* and return every core the subproblem produced, as cells."""
    learned: List[frozenset] = []
    original = cores_module._subproblem

    def recording(component, support):
        verdict = original(component, support)
        if isinstance(verdict, int) and verdict:
            learned.append(
                frozenset(
                    component.cells[j] for j in cores_module._bits(verdict)
                )
            )
        return verdict

    monkeypatch.setattr(cores_module, "_subproblem", recording)
    run()
    return learned


@pytest.mark.parametrize("kind", ["cash", "sheet", "catalog"])
@pytest.mark.parametrize("seed", derived_seeds(6), ids=lambda s: f"seed{s}")
def test_every_core_is_sound(kind, seed, monkeypatch):
    """A support that misses a core is infeasible: freeing every cell
    but the core's (the largest such support) leaves no repair."""
    database, constraints, injected = _corrupted(kind, seed)
    pins = {injected[0][0]: injected[0][1]} if injected else {}
    engine = RepairEngine(database, constraints, backend="bnb")
    grounds = engine.ground_system
    learned = _learned_cores(
        monkeypatch, lambda: engine.find_card_minimal_repair(pins=pins or None)
    )
    cells = _cells_of(grounds, pins)
    for core in learned:
        free = [cell for cell in cells if cell not in core]
        assert not _support_feasible(database, grounds, free, pins), (
            sorted(core), describe_seed(seed)
        )


# ---------------------------------------------------------------------------
# The hand-off to S*(AC)
# ---------------------------------------------------------------------------


def _capped_system():
    """x + y - w = 0 holds; x <= 1 and y <= 1 are violated.  The only
    size-2 support {x, y} leaves y free in the equality row: only the
    caps hold it in, so the component goes to S*(AC), whose optimum
    changes x, y and w."""
    database = _integer_database([5, 5, 10])
    x, y, w = (("R", i, "V") for i in range(3))
    grounds = [
        GroundConstraint("sum", (), {x: 1.0, y: 1.0, w: -1.0}, 0.0, "=", 0.0),
        GroundConstraint("cap-x", (), {x: 1.0}, 0.0, "<=", 1.0),
        GroundConstraint("cap-y", (), {y: 1.0}, 0.0, "<=", 1.0),
    ]
    return database, grounds


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_free_column_hands_the_component_to_big_m(backend):
    database, grounds = _capped_system()
    result = solve_cores(grounds, database)
    assert result.stats.bigm_fallbacks == 1 and result.stats.cores == 0
    assert result.fallback == [grounds]
    assert result.assignment == {}

    engine = _engine_on(database, grounds, backend)
    outcome = engine.find_card_minimal_repair()
    assert outcome.cardinality == 3 and outcome.certified is True
    assert certify_database(
        grounds, apply_repair(database, outcome.repair)
    ).certified
    *milp, cores = engine.solve_stats
    assert milp and all(s.phase == "" and s.nodes for s in milp)
    assert cores.phase == "cores" and cores.bigm_fallbacks == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_fractional_support_hands_the_component_to_big_m(backend):
    """a + b - c = 0 holds and a - b = 0 does not (a=1, b=0, c=1).  The
    cores {a, b}, {b, c}, {a, c} give the hitting set {a, b}, whose
    unique values are a = b = 1/2: not integral, so S*(AC) repairs the
    component, changing a and c to 0."""
    database = _integer_database([1, 0, 1])
    a, b, c = (("R", i, "V") for i in range(3))
    grounds = [
        GroundConstraint("sum", (), {a: 1.0, b: 1.0, c: -1.0}, 0.0, "=", 0.0),
        GroundConstraint("same", (), {a: 1.0, b: -1.0}, 0.0, "=", 0.0),
    ]
    engine = _engine_on(database, grounds, backend)
    outcome = engine.find_card_minimal_repair()
    assert outcome.cardinality == 2 and outcome.certified is True
    assert engine.is_repair(outcome.repair)
    assert engine.solve_stats[-1].bigm_fallbacks == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_orders_with_a_free_column_go_to_big_m(backend):
    """Orders whose minimum support leaves a line amount free: that
    component goes to S*(AC), and the repair is the Big-M optimum."""
    workload = generate_orders(
        n_customers=2, n_orders=4, lines_per_order=2, seed=42
    )
    database, _ = inject_value_errors(workload.ground_truth, 3, seed=59)
    engine = RepairEngine(database, workload.constraints, backend=backend)
    outcome = engine.find_card_minimal_repair()
    record = engine.solve_stats[-1]
    assert record.phase == "cores" and record.bigm_fallbacks >= 1
    assert outcome.cardinality == _reference_cardinality(
        database, workload.constraints, None
    )
    assert outcome.certified is True


# ---------------------------------------------------------------------------
# (f) The dense sheet
# ---------------------------------------------------------------------------


def test_dense_balance_sheet_returns_the_ground_truth():
    """A d=3 b=3 sheet with 12 violated rows in one component: the
    Big-M branch and bound stops at its ``iteration_limit`` here; the
    core loop converges and validation reaches the truth."""
    scenario = balance_sheet_scenario(
        generate_balance_sheet(depth=3, branching=3, seed=648053401)
    )
    session = DartSystem(
        scenario,
        ocr_channel=OcrChannel(
            seed=648053401, numeric_error_rate=0.04, string_error_rate=0.04
        ),
        backend="bnb",
    ).process()
    assert session.final_database == scenario.ground_truth
    first = session.solve_stats[0]
    assert first.phase == "cores" and first.cores > 0


# ---------------------------------------------------------------------------
# The bench gate reads the core-loop counters
# ---------------------------------------------------------------------------


def test_bench_gate_counts_core_loop_work():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / (
        "check_bench_regression.py"
    )
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)

    def payload(rounds):
        record = {"objective": 2.0, "nodes": 3, "pivots": 5, "wall_time": 0.1}
        if rounds is not None:
            record["core_loop"] = {
                "wall_time": 0.01, "cardinality": 2, "master_rounds": rounds,
                "cores": 1,
            }
        return {"scenarios": [{"scenario": "s", "backends": {"bnb": record}}]}

    assert gate.check_scenarios(payload(10), payload(11), 0.10) == []
    assert gate.check_scenarios(payload(10), payload(12), 0.10) == [
        "s/bnb/core_loop.master_rounds: 12 > 11.0 (baseline 10 + 10%)"
    ]
    assert gate.check_scenarios(payload(10), payload(None), 0.10) == [
        f"s/bnb/core_loop.{name}: dropped from fresh run"
        for name in ("master_rounds", "cores")
    ]
    # A baseline from before the core loop gates nothing new.
    assert gate.check_scenarios(payload(None), payload(3), 0.10) == []
