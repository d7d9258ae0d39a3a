"""Anytime solving: budgets, incumbents, certified gaps.

The contract under test (see ``docs/robustness.md``): a solve whose
wall-clock or node budget expires returns its best incumbent as a
``feasible_gap`` solution whose ``gap`` *certifies* the distance to
the exact optimum -- ``incumbent - gap <= optimum <= incumbent`` --
because the best-first search order makes the interrupted node's bound
a lower bound on every open subproblem.  Only a budget that expires
with no incumbent at all raises the taxonomy's typed timeout.
"""

from __future__ import annotations

import time

import pytest

import repro.repair.engine as engine_module
from repro.acquisition.ocr import inject_value_errors
from repro.datasets import (
    cash_budget_constraints,
    generate_cash_budget,
    paper_acquired_instance,
)
from repro.diagnostics import SolveTimeoutError, classify_failure
from repro.milp.cache import SolveCache
from repro.milp.deadline import Deadline
from repro.milp.model import SolveStatus
from repro.repair.engine import RepairEngine

from tests._seeds import derived_seeds, describe_seed

N_ERRORS = 4


@pytest.fixture(scope="module")
def hard_instance():
    """Inconsistent enough that plain bnb needs well over one node."""
    workload = generate_cash_budget(n_years=2, seed=derived_seeds(1)[0])
    corrupted, _ = inject_value_errors(
        workload.ground_truth, N_ERRORS, seed=derived_seeds(2)[1]
    )
    return workload, corrupted


# ---------------------------------------------------------------------------
# The Deadline primitive
# ---------------------------------------------------------------------------


def test_deadline_unbounded_never_expires():
    for budget in (None, 0, -1.0):
        deadline = Deadline(budget)
        assert not deadline.expired
        assert deadline.remaining() is None
        deadline.check()  # never raises


def test_deadline_expires_on_the_monotonic_clock():
    deadline = Deadline(0.02)
    assert not deadline.expired
    assert 0.0 < deadline.remaining() <= 0.02
    time.sleep(0.03)
    assert deadline.expired
    assert deadline.remaining() == 0.0
    with pytest.raises(SolveTimeoutError, match="exceeded its 0.02s budget"):
        deadline.check()


def test_deadline_timeout_classifies_as_timeout():
    deadline = Deadline(1e-9)
    time.sleep(0.001)
    with pytest.raises(SolveTimeoutError) as info:
        deadline.check("repair computation")
    assert classify_failure(info.value) == "timeout"
    assert info.value.code == "timeout"


# ---------------------------------------------------------------------------
# Interrupted search returns a certified incumbent
# ---------------------------------------------------------------------------


def test_node_budget_yields_incumbent_within_certified_gap(hard_instance):
    """The acceptance criterion: a budget-expired solve returns an
    incumbent whose reported gap brackets the exact optimum."""
    workload, database = hard_instance
    seed_note = describe_seed(derived_seeds(1)[0])

    exact_engine = RepairEngine(database, workload.constraints, backend="bnb")
    exact = exact_engine.find_big_m_repair()
    assert not exact.approximate and exact.gap == 0.0
    assert sum(s.nodes for s in exact_engine.solve_stats) > 1, seed_note
    # The core loop, which has no node budget, proves the same optimum.
    cores = RepairEngine(
        database, workload.constraints, backend="bnb"
    ).find_card_minimal_repair()
    assert not cores.approximate and cores.gap == 0.0
    assert cores.objective == exact.objective, seed_note

    budget_engine = RepairEngine(database, workload.constraints, backend="bnb")
    outcome = budget_engine.find_big_m_repair(max_nodes=1)
    assert outcome.approximate, seed_note
    assert outcome.gap is not None and outcome.gap >= 0.0
    # The certificate: optimum lies within [incumbent - gap, incumbent].
    assert outcome.objective - outcome.gap <= exact.objective + 1e-9, seed_note
    assert exact.objective <= outcome.objective + 1e-9, seed_note
    # The approximate repair is still a verified repair.
    assert outcome.repair is not None and outcome.repair.cardinality >= 1
    [stat] = [s for s in budget_engine.solve_stats if s.status == "feasible_gap"]
    assert stat.gap == pytest.approx(outcome.gap)
    assert stat.best_bound is not None


def test_wall_clock_budget_with_incumbent_is_approximate(hard_instance):
    """A tiny-but-positive wall budget: the heuristic seed survives as
    the anytime incumbent instead of the engine raising."""
    workload, database = hard_instance
    engine = RepairEngine(database, workload.constraints, backend="bnb")
    # Generous enough to translate + seed, far too small to prove
    # optimality on >100 nodes.
    outcome = engine.find_big_m_repair(time_limit=30.0, max_nodes=1)
    assert outcome.approximate
    assert outcome.objective - outcome.gap <= outcome.objective


def _no_greedy_repair(monkeypatch):
    """Leave the engine without its greedy incumbent."""
    monkeypatch.setattr(engine_module, "greedy_repair", lambda *a, **k: None)


def test_expired_budget_without_incumbent_raises_typed_timeout(
    hard_instance, monkeypatch
):
    workload, database = hard_instance
    _no_greedy_repair(monkeypatch)
    engine = RepairEngine(database, workload.constraints, backend="bnb")
    for method in (engine.find_card_minimal_repair, engine.find_big_m_repair):
        with pytest.raises(SolveTimeoutError) as info:
            method(time_limit=1e-9)
        assert info.value.code == "timeout"


def test_node_budget_without_incumbent_raises_typed_timeout(
    hard_instance, monkeypatch
):
    """A node budget that ends before the search finds any repair says
    nothing about whether one exists: the typed timeout, which batch
    retries on the fallback backend, not "unrepairable"."""
    workload, database = hard_instance
    _no_greedy_repair(monkeypatch)
    engine = RepairEngine(database, workload.constraints, backend="bnb")
    with pytest.raises(SolveTimeoutError) as info:
        engine.find_big_m_repair(max_nodes=1)
    assert info.value.code == "timeout"
    assert classify_failure(info.value) == "timeout"
    [record] = engine.solve_stats
    assert record.status == "iteration_limit" and not record.heuristic_seeded


class _ExpiresAtCheck(Deadline):
    """A deadline that expires at its *n*-th check: a deterministic cut."""

    def __init__(self, n: int) -> None:
        super().__init__(60.0)
        self.checks_left = n

    @property
    def expired(self) -> bool:
        return self.checks_left <= 0

    def check(self, what: str = "solve") -> None:
        self.checks_left -= 1
        super().check(what)

    def remaining(self):
        return 0.0 if self.expired else super().remaining()


def test_core_loop_cut_before_it_starts_returns_the_greedy_repair(monkeypatch):
    """A deadline that expires at the loop's first check leaves the
    whole document to the greedy repair: one change on the paper's
    instance, approximate, with nothing proved (gap 1)."""
    monkeypatch.setattr(engine_module, "Deadline", lambda budget: _ExpiresAtCheck(2))
    engine = RepairEngine(
        paper_acquired_instance(), cash_budget_constraints(), backend="bnb"
    )
    outcome = engine.find_card_minimal_repair(time_limit=60.0)
    assert outcome.approximate and outcome.certified is True
    assert (outcome.objective, outcome.gap) == (1.0, 1.0)
    assert engine.is_repair(outcome.repair)
    [record] = engine.solve_stats
    assert record.phase == "cores" and record.status == "feasible_gap"


def test_core_loop_cut_by_its_deadline_keeps_the_anytime_contract(
    hard_instance, monkeypatch
):
    """Cut the loop at its n-th deadline check, for every n until it
    finishes.  Each cut returns a certified repair whose gap brackets
    the optimum, or raises the typed timeout when the greedy repair of
    what the loop left fails."""
    workload, database = hard_instance
    optimum = RepairEngine(
        database, workload.constraints, backend="bnb"
    ).find_card_minimal_repair().objective
    for n in range(2, 64):
        monkeypatch.setattr(
            engine_module, "Deadline", lambda budget, n=n: _ExpiresAtCheck(n)
        )
        engine = RepairEngine(database, workload.constraints, backend="bnb")
        try:
            outcome = engine.find_card_minimal_repair(time_limit=60.0)
        except SolveTimeoutError as error:
            assert error.code == "timeout"
            continue
        assert outcome.certified is True and engine.is_repair(outcome.repair)
        [record] = engine.solve_stats
        if not outcome.approximate:
            assert n > 2 and outcome.objective == optimum
            assert record.status == "optimal"
            break
        assert outcome.gap >= 0.0
        assert outcome.objective - outcome.gap <= optimum <= outcome.objective
        assert record.status == "feasible_gap" and record.gap == outcome.gap
    else:
        pytest.fail("the core loop never finished inside 63 checks")


def test_core_loop_cut_without_the_greedy_seed_raises_typed_timeout(
    hard_instance, monkeypatch
):
    workload, database = hard_instance
    monkeypatch.setattr(engine_module, "Deadline", lambda budget: _ExpiresAtCheck(2))
    _no_greedy_repair(monkeypatch)
    engine = RepairEngine(database, workload.constraints, backend="bnb")
    with pytest.raises(SolveTimeoutError) as info:
        engine.find_card_minimal_repair(time_limit=60.0)
    assert info.value.code == "timeout"


def test_feasible_gap_solutions_are_not_cached(hard_instance):
    """Anytime verdicts depend on the budget, so caching them would
    poison unbudgeted solves of the same model."""
    workload, database = hard_instance
    cache = SolveCache(16)
    engine = RepairEngine(
        database, workload.constraints, backend="bnb", solve_cache=cache
    )
    outcome = engine.find_big_m_repair(max_nodes=1)
    assert outcome.approximate
    assert len(cache) == 0, "budget-dependent verdicts must not be stored"
    # An exact solve of the same model afterwards is cached as usual
    # and still finds the true optimum, unpolluted by the gap result.
    engine2 = RepairEngine(
        database, workload.constraints, backend="bnb", solve_cache=cache
    )
    exact = engine2.find_big_m_repair()
    assert not exact.approximate
    assert len(cache) >= 1


def test_solution_gap_and_usability_flags(hard_instance):
    workload, database = hard_instance
    engine = RepairEngine(database, workload.constraints, backend="bnb")
    outcome = engine.find_big_m_repair(max_nodes=1)
    solution = outcome.solution
    assert solution.status is SolveStatus.FEASIBLE_GAP
    assert solution.is_usable and not solution.is_optimal
    assert solution.gap == pytest.approx(outcome.gap)
