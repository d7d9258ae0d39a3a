"""IIS extraction: deletion filtering over the lowered MILP rows.

Three layers of evidence that :func:`repro.milp.iis.extract_iis` names
the *right* conflict:

1. hand-built toy models with a known irreducible core;
2. injected contradictions (:func:`repro.faultinject.inject_contradiction`)
   whose exact conflicting ground constraint and pins are recorded at
   injection time -- the extractor's answer is compared against the
   injection record, not against itself;
3. a seeded fuzz suite asserting the *definition* of irreducibility on
   every extracted IIS: the member subsystem is infeasible as a whole
   and becomes feasible when any single member is dropped.
"""

from __future__ import annotations

import pytest

from repro.diagnostics import SolveTimeoutError
from repro.faultinject import inject_contradiction
from repro.milp.cache import SolveCache
from repro.milp.deadline import Deadline
from repro.milp.iis import IISError, _clone_subsystem, extract_iis
from repro.milp.model import MILPModel, SolveStatus, VarType
from repro.milp.solver import solve
from repro.repair.engine import RepairEngine, UnrepairableError
from repro.repair.translation import translate

from tests._seeds import derived_seeds, describe_seed

N_FUZZ_CASES = 12


def toy_conflict() -> MILPModel:
    """x >= 5 and x <= 3 conflict; the y row is an innocent bystander."""
    model = MILPModel("toy")
    x = model.add_variable("x", VarType.REAL, lower=-100.0, upper=100.0)
    y = model.add_variable("y", VarType.REAL, lower=-100.0, upper=100.0)
    model.add_constraint(x >= 5.0, name="x_low")
    model.add_constraint(x <= 3.0, name="x_high")
    model.add_constraint(y <= 10.0, name="bystander")
    return model


def test_toy_conflict_names_exactly_the_contradictory_pair():
    iis = extract_iis(toy_conflict())
    assert sorted(iis.names) == ["x_high", "x_low"]
    assert iis.proven_minimal
    assert iis.probes >= 1


def test_feasible_model_raises_iis_error():
    model = MILPModel("feasible")
    x = model.add_variable("x", VarType.REAL, lower=0.0, upper=10.0)
    model.add_constraint(x <= 5.0, name="only")
    with pytest.raises(IISError):
        extract_iis(model)


def test_expired_deadline_raises_before_any_probe():
    with pytest.raises(SolveTimeoutError):
        extract_iis(toy_conflict(), deadline=Deadline(1e-9))


def test_group_prefilter_discards_bystanders_in_one_probe():
    grouped = extract_iis(toy_conflict(), groups=[[2]])
    plain = extract_iis(toy_conflict())
    assert sorted(grouped.names) == sorted(plain.names)
    assert grouped.probes <= plain.probes


def test_iis_matches_the_injected_contradiction(ground_truth, constraints):
    """Acceptance check: the explanation names the planted conflict."""
    injection = inject_contradiction(ground_truth, constraints, seed=11)
    translation = translate(ground_truth, constraints, pins=injection.pins)
    assert solve(translation.model).status is SolveStatus.INFEASIBLE
    iis = extract_iis(
        translation.model, groups=[translation.structural_rows()]
    )
    report = translation.conflict_report(iis)
    assert len(report.grounds) == 1
    assert (
        report.grounds[0].normalized_key() == injection.ground.normalized_key()
    )
    assert report.pins == injection.pins
    assert report.proven_minimal


def test_conflict_report_serialises(ground_truth, constraints):
    injection = inject_contradiction(ground_truth, constraints, seed=11)
    translation = translate(ground_truth, constraints, pins=injection.pins)
    iis = extract_iis(translation.model)
    report = translation.conflict_report(iis)
    payload = report.as_dict()
    assert payload["grounds"] and payload["pins"]
    assert "minimal" in report.summary()
    assert "constraint [" in report.describe()


def _assert_irreducible(model: MILPModel, members) -> None:
    indices = sorted(m.index for m in members)
    whole = solve(_clone_subsystem(model, indices))
    assert whole.status is SolveStatus.INFEASIBLE, (
        "IIS members are not jointly infeasible"
    )
    for dropped in indices:
        rest = [i for i in indices if i != dropped]
        partial = solve(_clone_subsystem(model, rest))
        assert partial.status is not SolveStatus.INFEASIBLE, (
            f"IIS stays infeasible without row {dropped}: not irreducible"
        )


@pytest.mark.parametrize(
    "seed", derived_seeds(N_FUZZ_CASES), ids=lambda s: f"seed{s}"
)
def test_fuzzed_contradictions_yield_irreducible_systems(
    seed, ground_truth, constraints
):
    """Every extracted IIS satisfies the definition of irreducibility."""
    injection = inject_contradiction(
        ground_truth, constraints, seed=seed, index=seed % 5
    )
    translation = translate(ground_truth, constraints, pins=injection.pins)
    iis = extract_iis(
        translation.model, groups=[translation.structural_rows()]
    )
    assert iis.proven_minimal, describe_seed(seed)
    _assert_irreducible(translation.model, iis.members)


def test_presolve_short_circuit_is_consistent_with_full_probing():
    """The presolve oracle must never change the extracted conflict."""
    model = MILPModel("short-circuit")
    x = model.add_variable("x", VarType.REAL, lower=0.0, upper=10.0)
    model.add_constraint(x >= 20.0, name="impossible")
    model.add_constraint(x <= 9.0, name="slack")
    iis = extract_iis(model)
    _assert_irreducible(model, iis.members)


def test_infeasible_verdict_of_original_model_stays_cacheable(
    ground_truth, constraints
):
    """An unrepairable instance raises, and the INFEASIBLE verdicts of
    its escalation solves are facts about those models: cached.  The
    IIS probes of the explanation are not, and leave the cache alone."""
    injection = inject_contradiction(ground_truth, constraints, seed=23)
    cache = SolveCache(64)
    engine = RepairEngine(ground_truth, constraints, solve_cache=cache)
    with pytest.raises(UnrepairableError):
        engine.find_card_minimal_repair(pins=injection.pins)
    assert any(
        solution.status is SolveStatus.INFEASIBLE
        for solution in cache._store.values()
    )
    cached = set(cache._store)
    engine.explain_infeasible(pins=injection.pins)
    assert set(cache._store) == cached


def test_standalone_explain_infeasible(ground_truth, constraints):
    injection = inject_contradiction(ground_truth, constraints, seed=31)
    engine = RepairEngine(ground_truth, constraints)
    report = engine.explain_infeasible(pins=injection.pins)
    assert [g.normalized_key() for g in report.grounds] == [
        injection.ground.normalized_key()
    ]
    assert report.pins == injection.pins
    assert [record.phase for record in engine.solve_stats] == ["iis"]
