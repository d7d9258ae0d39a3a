"""Exact-arithmetic certification and the numerics degradation ladder.

Covers the PR's robustness contract end to end:

- the certifier rejects a planted wrong incumbent (MILP level) and a
  planted wrong repair survives nowhere;
- metamorphic invariance: power-of-two row scaling and variable
  permutation leave the repair MILP's optimal cardinality and its
  certification verdict unchanged;
- the :class:`~repro.milp.certify.NumericsGovernor` declares exactly
  the documented ladder per backend and skips inapplicable rungs;
- a backend that persistently returns corrupt answers is walked down
  the ladder to the independent scipy rung (``degraded=True``), and a
  fully-poisoned ladder raises
  :class:`~repro.diagnostics.NumericInstabilityError` (classified
  ``"uncertified"``);
- cache hygiene: ladder-degraded answers never populate the solve
  cache under the pristine fingerprint, and a poisoned cache hit is
  re-certified on read and re-solved instead of served;
- checkpoint hygiene: uncertified results are never journaled, so a
  resume re-derives them while certified neighbours replay;
- seeded numeric-noise chaos (:func:`repro.faultinject.inject_numeric_noise`)
  leaves every solve certified with the same repair cardinality;
- the float pass equals the ``Fraction`` replay (all but the
  ``replayed`` flag) at all three levels: rows moved to within
  ``2**-k`` of the tolerance, integers moved to within ``2**-k`` of
  ``int_tol``, non-finite and odd values, and EXPERIMENTS.md A1's
  inflated Big-M; and it does settle the clean cases, so a float pass
  that always doubted would fail here.

Seeds honour ``REPRO_TEST_SEED`` (see ``tests/_seeds.py``).
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy
import pytest

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.datasets.cashbudget import cash_budget_constraints, paper_ground_truth
from repro.diagnostics import NumericInstabilityError, classify_failure
from repro.faultinject import inject_numeric_noise
from repro.milp import solver
from repro.milp.cache import SolveCache
from repro.milp.certify import (
    CERT_FEAS_TOL,
    CERT_INT_TOL,
    Certificate,
    NumericsGovernor,
    _replay_database,
    _replay_repair,
    _replay_solution,
    certify_database,
    certify_repair,
    certify_solution,
)
from repro.milp.model import (
    Constraint,
    LinExpr,
    MILPModel,
    Sense,
    Solution,
    SolveStatus,
    VarType,
)
from repro.milp.solver import solve_with_stats
from repro.repair import BigMStrategy, translate
from repro.repair.batch import BatchItemResult, RepairTask, repair_batch
from repro.repair.checkpoint import record_to_result, result_to_record
from repro.repair.engine import RepairEngine
from repro.repair.updates import AtomicUpdate, Repair, apply_repair

from tests._seeds import base_seed, derived_seeds, describe_seed
from tests.test_differential_backends import random_grounded_milp


def small_milp() -> MILPModel:
    """min x+y  s.t.  x+2y <= 8, 3x+y >= 3, x-y = 1, x,y in [0,10] int."""
    model = MILPModel("cert-small")
    model.add_variable("x", VarType.INTEGER, 0, 10)
    model.add_variable("y", VarType.INTEGER, 0, 10)
    model.add_constraint(Constraint(LinExpr({0: 1.0, 1: 2.0}), Sense.LE, 8.0, "r1"))
    model.add_constraint(Constraint(LinExpr({0: 3.0, 1: 1.0}), Sense.GE, 3.0, "r2"))
    model.add_constraint(Constraint(LinExpr({0: 1.0, 1: -1.0}), Sense.EQ, 1.0, "r3"))
    model.set_objective(LinExpr({0: 1.0, 1: 1.0}))
    return model


def corrupted_paper_task(bump: float = 7.0):
    """The paper's cash-budget instance with one corrupted measure cell."""
    database = paper_ground_truth().copy()
    relation, tuple_id, attribute = database.measure_cells()[0]
    database.set_value(
        relation, tuple_id, attribute,
        float(database.get_value(relation, tuple_id, attribute)) + bump,
    )
    return database, cash_budget_constraints()


# ---------------------------------------------------------------------------
# The certifier itself
# ---------------------------------------------------------------------------


class TestCertifySolution:
    def test_valid_incumbent_certifies(self):
        model = small_milp()
        solution, stats = solve_with_stats(model, backend="bnb", certify=True)
        assert stats.certified is True
        assert stats.certification == "milp"
        assert stats.ladder_steps == ["as-requested"]
        assert not stats.degraded

    def test_planted_wrong_incumbent_is_rejected(self):
        model = small_milp()
        solution, _ = solve_with_stats(model, backend="bnb")
        tampered = Solution(
            status=solution.status,
            objective=solution.objective,
            values=dict(solution.values, x=9.0),
            stats=dict(solution.stats),
        )
        certificate = certify_solution(model, tampered)
        assert certificate.certified is False
        assert certificate.failures  # names the violated fact

    def test_wrong_objective_is_rejected(self):
        model = small_milp()
        solution, _ = solve_with_stats(model, backend="bnb")
        tampered = Solution(
            status=solution.status,
            objective=float(solution.objective) - 1.0,
            values=dict(solution.values),
            stats=dict(solution.stats),
        )
        certificate = certify_solution(model, tampered)
        assert certificate.certified is False
        assert any("objective" in failure for failure in certificate.failures)

    def test_fractional_integer_variable_is_rejected(self):
        model = small_milp()
        solution, _ = solve_with_stats(model, backend="bnb")
        tampered = Solution(
            status=solution.status,
            objective=solution.objective,
            values=dict(solution.values, x=solution.values["x"] + 0.5),
            stats=dict(solution.stats),
        )
        certificate = certify_solution(model, tampered)
        assert certificate.certified is False

    def test_unusable_status_certifies_as_not_applicable(self):
        model = small_milp()
        certificate = certify_solution(
            model, Solution(status=SolveStatus.INFEASIBLE)
        )
        assert certificate.certified is True
        assert certificate.level == "not-applicable"

    def test_certificate_round_trips_as_dict(self):
        certificate = Certificate(
            certified=False, level="milp", checks=3, failures=["boom"]
        )
        payload = json.loads(json.dumps(certificate.as_dict()))
        assert payload["certified"] is False
        assert payload["failures"] == ["boom"]
        assert "REJECTED" in str(certificate)


class TestDocumentCertificates:
    def test_repair_outcome_carries_document_certificate(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints)
        outcome = engine.find_card_minimal_repair()
        assert outcome.certified is True
        assert outcome.certificate.level == "document"
        assert outcome.certificate.checks > 0
        assert all(s.certified is not False for s in engine.solve_stats)

    def test_cascade_outcome_carries_database_certificate(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints, strategy="cascade")
        outcome = engine.find_card_minimal_repair()
        assert outcome.certified is True
        assert outcome.certificate.level == "database"

    def test_certify_off_leaves_outcome_unflagged(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints, certify=False)
        outcome = engine.find_card_minimal_repair()
        assert outcome.certified is None
        assert outcome.certificate is None

    def test_planted_wrong_repair_is_rejected(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints)
        outcome = engine.find_card_minimal_repair()
        from repro.repair.updates import AtomicUpdate, Repair

        update = next(iter(outcome.repair.updates))
        wrong = Repair(
            [
                AtomicUpdate(
                    relation=update.relation,
                    tuple_id=update.tuple_id,
                    attribute=update.attribute,
                    old_value=update.old_value,
                    new_value=update.new_value + 13.0,
                )
            ]
        )
        certificate = certify_repair(outcome.translation, wrong)
        assert certificate.certified is False

    def test_certify_database_flags_inconsistent_state(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints)
        bad = certify_database(engine.ground_system, database)
        assert bad.certified is False
        outcome = engine.find_card_minimal_repair()
        good = certify_database(engine.ground_system, engine.apply(outcome.repair))
        assert good.certified is True


# ---------------------------------------------------------------------------
# Metamorphic invariance: the repair MILP under answer-preserving noise
# ---------------------------------------------------------------------------


def _repair_model():
    """The actual repair MILP of a corrupted paper instance.

    Its optimal objective *is* the repair cardinality, so invariance of
    the objective under the transformations below is invariance of the
    repair cardinality.
    """
    database, constraints = corrupted_paper_task()
    engine = RepairEngine(database, constraints)
    outcome = engine.find_card_minimal_repair()
    return outcome.translation.model, outcome.cardinality


def _scale_rows_pow2(model: MILPModel, seed: int) -> MILPModel:
    """Every row scaled by a seed-chosen power of two (bit-exact)."""
    import random

    rng = random.Random(seed)
    scaled = MILPModel(model.name)
    for variable in model.variables:
        scaled.add_variable(
            variable.name, variable.var_type, variable.lower, variable.upper
        )
    for constraint in model.constraints:
        factor = 2.0 ** rng.randint(-3, 6)
        scaled.add_constraint(
            Constraint(
                LinExpr(
                    {
                        index: coefficient * factor
                        for index, coefficient in constraint.expr.coefficients.items()
                    },
                    constraint.expr.constant * factor,
                ),
                constraint.sense,
                constraint.rhs * factor,
                constraint.name,
            )
        )
    scaled.set_objective(model.objective)
    return scaled


def _permute_variables(model: MILPModel, seed: int) -> MILPModel:
    """The same MILP with variables re-registered in a shuffled order."""
    import random

    rng = random.Random(seed)
    order = list(range(len(model.variables)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    permuted = MILPModel(model.name)
    for old in order:
        variable = model.variables[old]
        permuted.add_variable(
            variable.name, variable.var_type, variable.lower, variable.upper
        )
    for constraint in model.constraints:
        permuted.add_constraint(
            Constraint(
                LinExpr(
                    {
                        new_index[index]: coefficient
                        for index, coefficient in constraint.expr.coefficients.items()
                    },
                    constraint.expr.constant,
                ),
                constraint.sense,
                constraint.rhs,
                constraint.name,
            )
        )
    permuted.set_objective(
        LinExpr(
            {
                new_index[index]: coefficient
                for index, coefficient in model.objective.coefficients.items()
            },
            model.objective.constant,
        )
    )
    return permuted


@pytest.mark.parametrize("backend", ["bnb", "bnb-simplex"])
class TestMetamorphicInvariance:
    def test_pow2_row_scaling_preserves_cardinality_and_verdict(self, backend):
        model, cardinality = _repair_model()
        base, base_stats = solve_with_stats(model, backend=backend, certify=True)
        assert base_stats.certified is True
        for seed in derived_seeds(3):
            scaled = _scale_rows_pow2(model, seed)
            solution, stats = solve_with_stats(
                scaled, backend=backend, certify=True
            )
            assert stats.certified is True, describe_seed(seed)
            assert solution.objective == pytest.approx(
                base.objective, abs=1e-6
            ), describe_seed(seed)
            assert solution.objective == pytest.approx(
                float(cardinality), abs=1e-6
            ), describe_seed(seed)

    def test_variable_permutation_preserves_cardinality_and_verdict(self, backend):
        model, cardinality = _repair_model()
        base, base_stats = solve_with_stats(model, backend=backend, certify=True)
        assert base_stats.certified is True
        for seed in derived_seeds(3):
            permuted = _permute_variables(model, seed)
            solution, stats = solve_with_stats(
                permuted, backend=backend, certify=True
            )
            assert stats.certified is True, describe_seed(seed)
            assert solution.objective == pytest.approx(
                base.objective, abs=1e-6
            ), describe_seed(seed)
            assert solution.objective == pytest.approx(
                float(cardinality), abs=1e-6
            ), describe_seed(seed)


# ---------------------------------------------------------------------------
# Seeded numeric-noise chaos
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["bnb", "bnb-simplex", "scipy"])
class TestNumericNoiseChaos:
    def test_noisy_models_still_end_certified(self, backend):
        model, cardinality = _repair_model()
        for seed in derived_seeds(3):
            noisy, injections = inject_numeric_noise(model, seed=seed, index=0)
            assert injections, describe_seed(seed)
            solution, stats = solve_with_stats(
                noisy, backend=backend, certify=True
            )
            assert stats.certified is True, describe_seed(seed)
            assert solution.objective == pytest.approx(
                float(cardinality), abs=1e-6
            ), describe_seed(seed)

    def test_noise_is_deterministic_by_seed(self, backend):
        model, _ = _repair_model()
        seed = derived_seeds(1)[0]
        _, first = inject_numeric_noise(model, seed=seed, index=4)
        _, second = inject_numeric_noise(model, seed=seed, index=4)
        assert first == second
        _, other = inject_numeric_noise(model, seed=seed + 1, index=4)
        assert [i.kind for i in other] == [i.kind for i in first]


def test_noise_leaves_original_model_untouched():
    model = small_milp()
    before = [
        (dict(c.expr.coefficients), c.rhs) for c in model.constraints
    ]
    inject_numeric_noise(model, seed=1, index=0)
    after = [
        (dict(c.expr.coefficients), c.rhs) for c in model.constraints
    ]
    assert before == after


# ---------------------------------------------------------------------------
# The governor and its ladder
# ---------------------------------------------------------------------------


class TestNumericsGovernor:
    def test_bnb_simplex_full_ladder_from_steepest_edge(self):
        governor = NumericsGovernor("bnb-simplex", {"pricing": "steepest"})
        assert governor.ladder() == [
            "as-requested",
            "pricing:dantzig",
            "pricing:bland",
            "backend:scipy",
        ]

    def test_default_pricing_skips_the_dantzig_rung(self):
        # The default pricing *is* Dantzig, so stepping "down" to it
        # would re-run the identical solve; the rung is skipped.
        governor = NumericsGovernor("bnb-simplex", {})
        assert governor.ladder() == [
            "as-requested", "pricing:bland", "backend:scipy",
        ]

    def test_bnb_ladder_has_no_pricing_rungs(self):
        governor = NumericsGovernor("bnb", {})
        assert governor.ladder() == ["as-requested", "backend:scipy"]

    def test_scipy_is_its_own_last_resort(self):
        assert NumericsGovernor("scipy", {}).ladder() == ["as-requested"]

    def test_already_degraded_options_collapse_rungs(self):
        governor = NumericsGovernor("bnb-simplex", {"pricing": "bland"})
        assert governor.ladder() == ["as-requested", "backend:scipy"]

    def test_scipy_rung_strips_bnb_only_options(self):
        governor = NumericsGovernor(
            "bnb", {"max_nodes": 50, "time_limit": 9.0, "warm_start": False}
        )
        final = list(governor.steps())[-1]
        name, backend, options = final
        assert (name, backend) == ("backend:scipy", "scipy")
        assert options == {"time_limit": 9.0}


def _corrupt_backend(model: MILPModel, **options) -> Solution:
    """A backend whose answers are always wrong (violates a row)."""
    return Solution(
        status=SolveStatus.OPTIMAL,
        objective=0.0,
        values={variable.name: -50.0 for variable in model.variables},
        stats={},
    )


class TestDegradationLadder:
    def test_corrupt_backend_degrades_to_scipy(self, monkeypatch):
        monkeypatch.setitem(solver._BACKENDS, "bnb", _corrupt_backend)
        model = small_milp()
        solution, stats = solve_with_stats(model, backend="bnb", certify=True)
        assert stats.certified is True
        assert stats.degraded is True
        assert stats.ladder_steps == ["as-requested", "backend:scipy"]
        assert stats.certification_failures == 1
        assert stats.backend == "scipy"
        assert solution.objective == pytest.approx(1.0)

    def test_exhausted_ladder_raises_typed_error(self, monkeypatch):
        monkeypatch.setitem(solver._BACKENDS, "bnb", _corrupt_backend)
        monkeypatch.setitem(solver._BACKENDS, "scipy", _corrupt_backend)
        model = small_milp()
        with pytest.raises(NumericInstabilityError) as excinfo:
            solve_with_stats(model, backend="bnb", certify=True)
        assert classify_failure(excinfo.value) == "uncertified"
        assert excinfo.value.details["ladder"]
        assert all(
            rung["certified"] is False
            for rung in excinfo.value.details["ladder"]
        )

    def test_without_certify_corrupt_answer_escapes(self, monkeypatch):
        """The control: certify=False is exactly the old behaviour."""
        monkeypatch.setitem(solver._BACKENDS, "bnb", _corrupt_backend)
        model = small_milp()
        solution, stats = solve_with_stats(model, backend="bnb", certify=False)
        assert solution.values["x"] == -50.0  # the lie goes unchallenged
        assert stats.certified is None


# ---------------------------------------------------------------------------
# Cache hygiene
# ---------------------------------------------------------------------------


class TestCacheHygiene:
    def test_degraded_result_is_never_cached(self, monkeypatch):
        monkeypatch.setitem(solver._BACKENDS, "bnb", _corrupt_backend)
        cache = SolveCache()
        model = small_milp()
        _, stats = solve_with_stats(model, backend="bnb", cache=cache, certify=True)
        assert stats.degraded is True
        assert len(cache) == 0

    def test_pristine_result_is_cached_and_recertified_on_hit(self):
        cache = SolveCache()
        model = small_milp()
        _, first = solve_with_stats(model, backend="bnb", cache=cache, certify=True)
        assert first.cache_hit is False
        assert len(cache) == 1
        _, second = solve_with_stats(model, backend="bnb", cache=cache, certify=True)
        assert second.cache_hit is True
        assert second.certified is True

    def test_poisoned_cache_hit_is_resolved_fresh(self):
        cache = SolveCache()
        model = small_milp()
        key = SolveCache.key_for(model, "bnb", {})
        cache.put(key, _corrupt_backend(model))
        solution, stats = solve_with_stats(
            model, backend="bnb", cache=cache, certify=True
        )
        assert stats.cache_hit is False
        assert stats.certified is True
        assert solution.values["x"] != -50.0
        # and the fresh, certified answer replaced the poison
        assert certify_solution(model, cache.get(key)).certified is True


# ---------------------------------------------------------------------------
# Checkpoint hygiene and round-trip
# ---------------------------------------------------------------------------


class TestCheckpointCertification:
    def test_certified_flag_round_trips_through_journal_record(self):
        result = BatchItemResult(
            index=0, name="doc0", status="repaired", certified=True
        )
        record = result_to_record(result, "f" * 64)
        assert record["certified"] is True
        back = record_to_result(json.loads(json.dumps(record)))
        assert back.certified is True
        assert back.resumed is True

    def test_legacy_record_without_certified_reads_as_none(self):
        result = BatchItemResult(index=0, name="doc0", status="repaired")
        record = result_to_record(result, "f" * 64)
        del record["certified"]
        assert record_to_result(record).certified is None

    def test_uncertified_results_are_never_journaled(self, tmp_path, monkeypatch):
        database, constraints = corrupted_paper_task()
        tasks = [
            RepairTask(database=database, constraints=constraints, name=f"doc{i}")
            for i in range(3)
        ]
        from repro.repair import batch as batch_module

        real_execute = batch_module.execute_task

        def poisoned_execute(task, index, **kwargs):
            result = real_execute(task, index, **kwargs)
            if index == 1:
                result.certified = False
                result.status = "uncertified"
            return result

        monkeypatch.setattr(batch_module, "execute_task", poisoned_execute)
        checkpoint = tmp_path / "journal.jsonl"
        report = repair_batch(tasks, checkpoint=str(checkpoint), certify=True)
        assert report.n_uncertified == 1
        journaled = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()
            if json.loads(line).get("kind") == "result"
        ]
        assert sorted(record["index"] for record in journaled) == [0, 2]
        assert all(record["certified"] is True for record in journaled)

        # The resume replays only the certified neighbours and
        # re-derives (now un-poisoned) task 1 from scratch.
        monkeypatch.setattr(batch_module, "execute_task", real_execute)
        resumed = repair_batch(tasks, checkpoint=str(checkpoint), certify=True)
        assert resumed.n_resumed == 2
        assert [r.certified for r in resumed.results] == [True, True, True]
        assert resumed.n_uncertified == 0

    def test_batch_report_counts_certified_tasks(self):
        database, constraints = corrupted_paper_task()
        tasks = [
            RepairTask(database=database, constraints=constraints, name=f"doc{i}")
            for i in range(2)
        ]
        report = repair_batch(tasks, certify=True)
        assert report.n_certified == 2
        assert report.aggregate()["certified"] == 2.0
        assert "2 certified" in report.summary()
        off = repair_batch(tasks, certify=False)
        assert off.n_certified == 0
        assert all(r.certified is None for r in off.results)



# ---------------------------------------------------------------------------
# The float pass against the Fraction replay
# ---------------------------------------------------------------------------

#: Distances from the threshold: 2**-1, 2**-20 and 2**-45 of it.
_BOUNDARY_KS = (1, 20, 45)


def _assert_same_as_replay(certificate, replay, outcomes=None):
    """The two certificates agree on everything but ``replayed``;
    *outcomes* tallies ``(certified, replayed)``."""
    assert replay.replayed is True
    got, want = certificate.as_dict(), replay.as_dict()
    del got["replayed"], want["replayed"]
    assert got == want
    if outcomes is not None:
        key = (certificate.certified, certificate.replayed)
        outcomes[key] = outcomes.get(key, 0) + 1


#: Every way a certificate can be decided: settled in floating point,
#: certified by the replay, rejected by the replay.
_ALL_OUTCOMES = {(True, False), (True, True), (False, True)}


def _snapped_values(model, solution):
    """The solution's exact values, integral variables snapped."""
    values = {}
    for variable in model.variables:
        value = Fraction(solution.values[variable.name])
        if variable.var_type.is_integral:
            value = Fraction(round(value))
        values[variable.index] = value
    return values


def _boundary_rhs(coefficients, constant, relop, values, factor, side):
    """A right-hand side at which the row's violation is ``factor * tau``.

    ``tau = feas_tol * (1 + |rhs| + sum|a| + sum|a * x|)`` depends on
    the right-hand side itself, so it is solved for in rationals and
    rounded to float once.  A negative *factor* leaves that much slack
    instead.  *side* picks the direction of an equality row's
    violation.
    """
    lhs = Fraction(constant)
    spread = Fraction(0)
    for key, coefficient in coefficients.items():
        product = Fraction(coefficient) * values[key]
        lhs += product
        spread += abs(Fraction(coefficient)) + abs(product)
    t = Fraction(factor) * CERT_FEAS_TOL
    if relop == "<=" or (relop not in ("<=", ">=") and side > 0):
        numerator = lhs - t * (1 + spread)  # lhs - rhs = t(1 + |rhs| + spread)
        rhs = numerator / (1 + t) if numerator >= 0 else numerator / (1 - t)
    else:
        numerator = lhs + t * (1 + spread)  # rhs - lhs = t(1 + |rhs| + spread)
        rhs = numerator / (1 - t) if numerator >= 0 else numerator / (1 + t)
    return float(rhs)


def _boundary_factors():
    """Violations at tau(1 +- 2**-k) and slacks at the same distances."""
    return [
        sign * (1 + side * 2.0**-k)
        for k in _BOUNDARY_KS
        for sign in (1, -1)
        for side in (1, -1)
    ]


def _shift_model_rows(model, solution, factor, seed):
    """*model* with every row's violation moved to ``factor * tau``."""
    rng = random.Random(seed)
    values = _snapped_values(model, solution)
    shifted = MILPModel(model.name)
    for variable in model.variables:
        shifted.add_variable(
            variable.name, variable.var_type, variable.lower, variable.upper
        )
    for constraint in model.constraints:
        rhs = _boundary_rhs(
            constraint.expr.coefficients, constraint.expr.constant,
            constraint.sense.value, values, factor, rng.choice((1, -1)),
        )
        shifted.add_constraint(
            Constraint(
                constraint.expr.copy(), constraint.sense, rhs, constraint.name
            )
        )
    shifted.set_objective(model.objective)
    return shifted


def _move_integers(model, solution, factor, seed):
    """*solution* with every integral variable ``factor * int_tol`` off."""
    rng = random.Random(seed)
    values = dict(solution.values)
    for variable in model.variables:
        if variable.var_type.is_integral:
            offset = float(factor * CERT_INT_TOL) * rng.choice((1, -1))
            values[variable.name] = round(values[variable.name]) + offset
    return Solution(
        status=solution.status,
        objective=solution.objective,
        values=values,
        stats=dict(solution.stats),
    )


def _shift_grounds(grounds, cell_values, factor, seed):
    """Ground rows whose violations sit at ``factor * tau``."""
    rng = random.Random(seed)
    exact = {cell: Fraction(value) for cell, value in cell_values.items()}
    return [
        dataclasses.replace(
            ground,
            rhs=_boundary_rhs(
                ground.coefficients, ground.constant, ground.relop, exact,
                factor, rng.choice((1, -1)),
            ),
        )
        for ground in grounds
    ]


def _boundary_models():
    """Solved MILPs with the shape of ``S*(AC)``: the paper's repair
    model and a few seeded random grounded ones with an optimum."""
    models = [_repair_model()[0]]
    models += [random_grounded_milp(seed) for seed in derived_seeds(12)]
    solved = [(model, solver.solve(model, backend="scipy")) for model in models]
    return [(model, solution) for model, solution in solved if solution.is_usable]


class TestFloatPassEqualsReplay:
    def test_milp_rows_and_integers_at_the_boundary(self):
        outcomes = {}
        for number, (model, solution) in enumerate(_boundary_models()):
            _assert_same_as_replay(
                certify_solution(model, solution),
                _replay_solution(model, solution),
                outcomes,
            )
            for factor in _boundary_factors():
                seed = base_seed() + number
                shifted = _shift_model_rows(model, solution, factor, seed)
                _assert_same_as_replay(
                    certify_solution(shifted, solution),
                    _replay_solution(shifted, solution),
                    outcomes,
                )
                if factor < 0:
                    continue
                moved = _move_integers(model, solution, factor, seed)
                _assert_same_as_replay(
                    certify_solution(model, moved),
                    _replay_solution(model, moved),
                    outcomes,
                )
        assert set(outcomes) == _ALL_OUTCOMES, outcomes

    def test_document_and_database_rows_at_the_boundary(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints)
        outcome = engine.find_card_minimal_repair()
        translation, repair = outcome.translation, outcome.repair
        repaired = apply_repair(database, repair)
        cell_values = dict(zip(translation.cells, translation.values))
        cell_values.update(
            {update.cell: update.new_value for update in repair.updates}
        )
        outcomes = {}
        _assert_same_as_replay(
            certify_repair(translation, repair),
            _replay_repair(translation, repair),
            outcomes,
        )
        _assert_same_as_replay(
            certify_database(translation.grounds, repaired),
            _replay_database(translation.grounds, repaired),
            outcomes,
        )
        for factor in _boundary_factors():
            grounds = _shift_grounds(
                translation.grounds, cell_values, factor, base_seed()
            )
            shifted = dataclasses.replace(translation, grounds=grounds)
            _assert_same_as_replay(
                certify_repair(shifted, repair),
                _replay_repair(shifted, repair),
                outcomes,
            )
            _assert_same_as_replay(
                certify_database(grounds, repaired),
                _replay_database(grounds, repaired),
                outcomes,
            )
            if factor < 0:
                continue
            # Integer-typed cells repaired just off integral.
            moved = Repair(
                [
                    AtomicUpdate(
                        relation=update.relation,
                        tuple_id=update.tuple_id,
                        attribute=update.attribute,
                        old_value=update.old_value,
                        new_value=update.new_value
                        + float(factor * CERT_INT_TOL),
                    )
                    for update in repair.updates
                ]
            )
            _assert_same_as_replay(
                certify_repair(translation, moved),
                _replay_repair(translation, moved),
                outcomes,
            )
        assert set(outcomes) == _ALL_OUTCOMES, outcomes


def _one_row_model(rhs, sense=Sense.LE):
    """min x  s.t.  x + y <sense> rhs  with real x, y in [0, 10]."""
    model = MILPModel("one-row")
    model.add_variable("x", VarType.REAL, 0, 10)
    model.add_variable("y", VarType.REAL, 0, 10)
    model.add_constraint(Constraint(LinExpr({0: 1.0, 1: 1.0}), sense, rhs, "r"))
    model.set_objective(LinExpr({0: 1.0}))
    return model


def _solution_of(values, objective):
    return Solution(status=SolveStatus.OPTIMAL, objective=objective, values=values)


class _OneOddCell:
    """A database view that reads one cell as *value* (a real
    :class:`~repro.relational.database.Database` refuses non-finite
    values)."""

    def __init__(self, database, cell, value):
        self.database, self.cell, self.value = database, cell, value

    def get_value(self, relation, tuple_id, attribute):
        if (relation, tuple_id, attribute) == self.cell:
            return self.value
        return self.database.get_value(relation, tuple_id, attribute)


class TestFloatPassOddValues:
    @pytest.mark.parametrize("odd", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_solution_values_raise_as_the_replay(self, odd):
        model = small_milp()
        solution = _solution_of({"x": odd, "y": 0.0}, 1.0)
        with pytest.raises(Exception) as replayed:
            _replay_solution(model, solution)
        with pytest.raises(replayed.type, match=str(replayed.value)):
            certify_solution(model, solution)

    @pytest.mark.parametrize("odd", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_cells_raise_as_the_replay(self, odd):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints)
        outcome = engine.find_card_minimal_repair()
        update = next(iter(outcome.repair.updates))
        odd_repair = Repair(
            [
                AtomicUpdate(
                    update.relation, update.tuple_id, update.attribute,
                    update.old_value, odd,
                )
            ]
        )
        with pytest.raises(Exception) as replayed:
            _replay_repair(outcome.translation, odd_repair)
        with pytest.raises(replayed.type, match=str(replayed.value)):
            certify_repair(outcome.translation, odd_repair)

        odd_database = _OneOddCell(database, update.cell, odd)
        with pytest.raises(Exception) as replayed:
            _replay_database(engine.ground_system, odd_database)
        with pytest.raises(replayed.type, match=str(replayed.value)):
            certify_database(engine.ground_system, odd_database)

    @pytest.mark.parametrize(
        "values",
        [
            {"x": 2**53 + 1, "y": 0.0},  # an int float cannot hold
            {"x": 2**53 + 1.0, "y": 0.0},  # a float past the row
            {"x": 1.0},  # y missing
            {"x": 1, "y": 0},  # ints float holds exactly
            {"x": True, "y": 0.0},  # neither float nor int
        ],
    )
    def test_odd_values_give_the_replay_certificate(self, values):
        model = small_milp()
        solution = _solution_of(values, 1.0)
        _assert_same_as_replay(
            certify_solution(model, solution), _replay_solution(model, solution)
        )

    @pytest.mark.parametrize("odd", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_free_variable_raises_as_the_replay(self, odd):
        """A free variable in no row: only the read itself can doubt it."""
        model = _one_row_model(100.0)
        model.add_variable("free", VarType.REAL)
        solution = _solution_of({"x": 1.0, "y": 0.0, "free": odd}, 1.0)
        with pytest.raises(Exception) as replayed:
            _replay_solution(model, solution)
        with pytest.raises(replayed.type, match=str(replayed.value)):
            certify_solution(model, solution)

    def test_bound_violation_alone_gives_the_replay_certificate(self):
        model = _one_row_model(100.0)
        solution = _solution_of({"x": 11.0, "y": 0.0}, 11.0)
        certificate = certify_solution(model, solution)
        assert certificate.failures == ["variable 'x' above upper bound 10.0"]
        _assert_same_as_replay(certificate, _replay_solution(model, solution))

    def test_int_beyond_float_keeps_its_exact_objective(self):
        """``2**53 + 1`` has no float image: the certificate carries the
        replay's exact objective, not the rounded one."""
        model = MILPModel("wide")
        model.add_variable("n", VarType.INTEGER, 0, 2.0**60)
        model.set_objective(LinExpr({0: 1.0}))
        solution = _solution_of({"n": 2**53 + 1}, float(2**53 + 1))
        certificate = certify_solution(model, solution)
        assert certificate.objective_exact == str(2**53 + 1)
        _assert_same_as_replay(certificate, _replay_solution(model, solution))

    def test_numpy_float64_values_settle(self):
        model = small_milp()
        solution = _solution_of(
            {"x": numpy.float64(1.0), "y": numpy.float64(0.0)}, numpy.float64(1.0)
        )
        certificate = certify_solution(model, solution)
        assert certificate.replayed is False
        _assert_same_as_replay(certificate, _replay_solution(model, solution))

    def test_half_integral_binary_gives_the_replay_certificate(self):
        model = MILPModel("binary")
        model.add_variable("d", VarType.BINARY)
        model.add_constraint(Constraint(LinExpr({0: 1.0}), Sense.LE, 1.0, "cap"))
        model.set_objective(LinExpr({0: 1.0}))
        for half in (0.5, -0.5, 1.5):
            solution = _solution_of({"d": half}, half)
            certificate = certify_solution(model, solution)
            assert certificate.certified is False
            _assert_same_as_replay(
                certificate, _replay_solution(model, solution)
            )


@pytest.mark.parametrize("sense", list(Sense))
class TestNearTheTolerance:
    SOLUTION = _solution_of({"x": 1.0, "y": 2.0}, 1.0)

    def _model_at(self, sense, factor, side=1):
        values = {0: Fraction(1), 1: Fraction(2)}
        rhs = _boundary_rhs(
            {0: 1.0, 1: 1.0}, 0.0, sense.value, values, factor, side
        )
        return _one_row_model(rhs, sense)

    def test_violation_inside_tolerance_is_replayed_and_certified(self, sense):
        for factor in (0.51, 0.75, 0.999):
            for side in (1, -1):
                model = self._model_at(sense, factor, side)
                certificate = certify_solution(model, self.SOLUTION)
                assert certificate.certified is True
                assert certificate.replayed is True
                _assert_same_as_replay(
                    certificate, _replay_solution(model, self.SOLUTION)
                )

    def test_violation_beyond_tolerance_fails_with_the_replay_text(self, sense):
        for side in (1, -1):
            model = self._model_at(sense, 1.01, side)
            certificate = certify_solution(model, self.SOLUTION)
            assert certificate.certified is False
            assert (
                certificate.failures
                == _replay_solution(model, self.SOLUTION).failures
            )
            assert certificate.failures[0].startswith("row 'r' violated")

    def test_slack_settles_in_floating_point(self, sense):
        """A row met with room to spare needs no replay; an equality
        row has no room, so it settles only when it is met closely."""
        factor = -0.25 if sense is Sense.EQ else -1000.0
        model = self._model_at(sense, factor)
        certificate = certify_solution(model, self.SOLUTION)
        assert certificate.certified is True
        assert certificate.replayed is False


@pytest.mark.parametrize("sense", [Sense.LE, Sense.EQ])
def test_error_bound_covers_what_rounding_hides(sense):
    """``x + y <= 1`` (or ``= 1``) at ``x = 1, y = 2**-54``:
    ``fl(x + y) = 1``, so the float residual is 0 while the exact one
    is ``2**-54``.  At ``feas_tol = 0`` only the error bound keeps the
    float pass from settling a row the replay rejects."""
    model = _one_row_model(1.0, sense)
    solution = _solution_of({"x": 1.0, "y": 2.0**-54}, 1.0)
    exact = Fraction(0)
    certificate = certify_solution(model, solution, feas_tol=exact)
    assert certificate.certified is False
    _assert_same_as_replay(
        certificate, _replay_solution(model, solution, feas_tol=exact)
    )


def test_overflowing_tolerance_is_doubt():
    """``1e308 x1 + 1e308 x2 <= 0`` at ``x1 = 0.01``: the float sum of
    the coefficients overflows, so the float tolerance is inf while the
    exact one is about 2e302, far below the violation 1e306."""
    model = MILPModel("huge")
    model.add_variable("x1", VarType.REAL, 0, 1)
    model.add_variable("x2", VarType.REAL, 0, 1)
    model.add_constraint(
        Constraint(LinExpr({0: 1e308, 1: 1e308}), Sense.LE, 0.0, "r")
    )
    model.set_objective(LinExpr({0: 1.0}))
    solution = _solution_of({"x1": 0.01, "x2": 0.0}, 0.01)
    certificate = certify_solution(model, solution)
    assert certificate.certified is False
    _assert_same_as_replay(certificate, _replay_solution(model, solution))


class TestFloatPassRuns:
    """Clean answers never reach the replay: a float pass that always
    doubted would pass every equality test above."""

    @pytest.mark.parametrize("backend", ["bnb", "bnb-simplex", "scipy"])
    def test_paper_instance_settles_on_every_backend(self, backend):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints, backend=backend)
        outcome = engine.find_card_minimal_repair()
        assert outcome.certified is True
        assert outcome.certificate.replayed is False
        assert engine.solve_stats
        assert all(s.certify_replays == 0 for s in engine.solve_stats)

    def test_cascade_database_certificate_settles(self):
        database, constraints = corrupted_paper_task()
        engine = RepairEngine(database, constraints, strategy="cascade")
        outcome = engine.find_card_minimal_repair()
        assert outcome.certificate.level == "database"
        assert outcome.certificate.replayed is False

    def test_replays_are_counted_per_solve(self, monkeypatch):
        """A rung the replay rejected and the answer it accepted both
        count; the scipy rung settles in floating point."""
        monkeypatch.setitem(solver._BACKENDS, "bnb", _corrupt_backend)
        _, stats = solve_with_stats(small_milp(), backend="bnb", certify=True)
        assert stats.ladder_steps == ["as-requested", "backend:scipy"]
        assert stats.certify_replays == 1
        assert "certify-replays:1" in str(stats)

    def test_recertified_cache_hit_counts_its_replay(self):
        model = small_milp()
        cache = SolveCache()
        key = SolveCache.key_for(model, "bnb", {})
        near = _solution_of({"x": 1.0 + 0.75e-6, "y": 0.0}, 1.0)
        cache.put(key, near)
        _, stats = solve_with_stats(model, backend="bnb", cache=cache, certify=True)
        assert stats.cache_hit is True
        assert stats.certified is True
        assert stats.certify_replays == 1


def test_a1_inflated_big_m_certificates_equal_the_replay():
    """EXPERIMENTS.md A1 at M x 1e6: the non-minimal cardinality-34
    repair still certifies, both ways, because no certificate checks
    minimality yet."""
    workload = generate_cash_budget(n_years=4, seed=17)
    corrupted, _ = inject_value_errors(workload.ground_truth, 3, seed=17)
    engine = RepairEngine(corrupted, workload.constraints)
    grounds = engine.ground_system
    base_m = translate(corrupted, workload.constraints, grounds=grounds).big_m
    translation = translate(
        corrupted,
        workload.constraints,
        strategy=BigMStrategy.FIXED,
        big_m=base_m * 1e6,
        grounds=grounds,
    )
    solution = solver.solve(translation.model, backend="bnb")
    milp = certify_solution(translation.model, solution)
    _assert_same_as_replay(milp, _replay_solution(translation.model, solution))
    repair = translation.extract_repair(solution)
    assert repair.cardinality == 34
    document = certify_repair(translation, repair)
    _assert_same_as_replay(document, _replay_repair(translation, repair))
    assert milp.certified is True
    assert document.certified is True


def test_bench_gate_fails_any_certificate_replay():
    """``benchmarks/check_bench_regression.py`` gates ``certify_replays``
    like nodes and pivots; its baseline is 0, so one replay fails."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / (
        "check_bench_regression.py"
    )
    spec = importlib.util.spec_from_file_location("check_bench_regression", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)

    def payload(replays):
        record = {"objective": 1.0, "nodes": 3, "pivots": 5, "wall_time": 0.1}
        if replays is not None:
            record["certify_replays"] = replays
        return {"scenarios": [{"scenario": "s", "backends": {"bnb": record}}]}

    assert gate.check_scenarios(payload(0), payload(0), 0.10) == []
    assert gate.check_scenarios(payload(0), payload(1), 0.10) == [
        "s/bnb/certify_replays: 1 > 0.0 (baseline 0 + 10%)"
    ]
    assert gate.check_scenarios(payload(0), payload(None), 0.10) == [
        "s/bnb/certify_replays: dropped from fresh run"
    ]
    # An uncertified pair carries no replay count and is not gated on it.
    assert gate.check_scenarios(payload(None), payload(None), 0.10) == []


def test_moved_pin_gives_the_replay_certificate():
    database, constraints = corrupted_paper_task()
    engine = RepairEngine(database, constraints)
    cell = database.measure_cells()[1]
    pinned = float(database.get_value(*cell))
    outcome = engine.find_card_minimal_repair(pins={cell: pinned})
    translation = outcome.translation
    assert translation.pins == {cell: pinned}
    kept = certify_repair(translation, outcome.repair)
    assert kept.certified is True and kept.replayed is False
    _assert_same_as_replay(kept, _replay_repair(translation, outcome.repair))
    moved = Repair(
        list(outcome.repair.updates)
        + [AtomicUpdate(cell[0], cell[1], cell[2], pinned, pinned + 1.0)]
    )
    certificate = certify_repair(translation, moved)
    assert certificate.certified is False
    assert any(failure.startswith("pin on") for failure in certificate.failures)
    _assert_same_as_replay(certificate, _replay_repair(translation, moved))
    # A pin broken while every ground row still holds.
    repinned = dataclasses.replace(translation, pins={cell: pinned + 1.0})
    certificate = certify_repair(repinned, outcome.repair)
    assert certificate.failures == [
        f"pin on {cell!r} not preserved: {pinned!r} != {pinned + 1.0!r}"
    ]
    _assert_same_as_replay(certificate, _replay_repair(repinned, outcome.repair))
