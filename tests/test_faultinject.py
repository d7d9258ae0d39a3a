"""The chaos suite: fault injection through the batch pipeline.

Every injection point of :mod:`repro.faultinject` is driven through
``repair_batch`` and the assertions are always the same three:

1. the batch **never crashes** -- every task ends in a known status;
2. quarantine accounting is exact -- crashes are charged to the task
   that was in flight, never to innocent chunkmates;
3. a checkpointed run that is killed mid-flight and resumed produces
   the same per-task results and aggregates as an uninterrupted run.

Worker kills in pool mode are real ``SIGKILL``s (the parent sees a
genuine ``BrokenProcessPool``); in sequential mode the same decision
raises :class:`~repro.diagnostics.WorkerCrashError` for the in-process
retry loop.  All decisions are pure functions of
``(seed, event, index, attempt)``, so each seed is one reproducible
chaos scenario -- CI runs three fixed seeds.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.diagnostics import InvalidValueError
from repro.faultinject import (
    FaultConfig,
    chaos_before_task,
    contradict_tasks,
    corrupt_database,
    inject_contradiction,
)
from repro.repair.batch import RepairTask, repair_batch, tasks_from_databases
from repro.repair.engine import RepairEngine

from tests._seeds import derived_seeds

#: The fixed chaos seeds CI sweeps (see .github/workflows/ci.yml).
CI_CHAOS_SEEDS = (11, 23, 47)

#: Statuses a chaos run is allowed to end a task in.  Anything else --
#: and any raised exception -- is a robustness bug.
KNOWN_STATUSES = {
    "repaired", "consistent", "unrepairable", "timeout", "invalid_input",
    "degenerate", "malformed", "unbounded", "crashed", "quarantined", "error",
}

N_TASKS = 4


@pytest.fixture(scope="module")
def corpus():
    workload = generate_cash_budget(n_years=2, seed=derived_seeds(1)[0])
    databases = [
        inject_value_errors(workload.ground_truth, 2, seed=seed)[0]
        for seed in derived_seeds(N_TASKS)
    ]
    return workload, databases


def make_tasks(corpus):
    workload, databases = corpus
    return tasks_from_databases(databases, workload.constraints)


# ---------------------------------------------------------------------------
# The injection primitives
# ---------------------------------------------------------------------------


def test_decisions_are_deterministic_and_attempt_dependent():
    config = FaultConfig(seed=3, kill_rate=0.5)
    draws = [config.chance("kill", i, a) for i in range(30) for a in range(3)]
    assert draws == [config.chance("kill", i, a) for i in range(30) for a in range(3)]
    assert all(0.0 <= d < 1.0 for d in draws)
    # Different attempts re-roll: some tasks die on attempt 0 and
    # survive attempt 1 (the transient-crash shape).
    fates = {
        (i, a): config.should("kill", 0.5, i, a)
        for i in range(30)
        for a in range(2)
    }
    assert any(fates[(i, 0)] and not fates[(i, 1)] for i in range(30))
    # A different seed is a different scenario.
    other = FaultConfig(seed=4, kill_rate=0.5)
    assert [other.chance("kill", i, 0) for i in range(30)] != [
        config.chance("kill", i, 0) for i in range(30)
    ]


def test_corrupt_database_is_seeded_and_typed(corpus):
    workload, databases = corpus
    config = FaultConfig(seed=7, nan_rate=0.3, inf_rate=0.2, overflow_rate=0.1)
    once = corrupt_database(databases[0], config, index=0)
    twice = corrupt_database(databases[0], config, index=0)
    cells = databases[0].measure_cells()
    values_once = [once.get_value(*c) for c in cells]
    values_twice = [twice.get_value(*c) for c in cells]
    assert [repr(v) for v in values_once] == [repr(v) for v in values_twice]
    # The original is untouched; the copy has at least one bad cell.
    assert all(math.isfinite(float(databases[0].get_value(*c))) for c in cells)
    bad = [
        v for v in values_once
        if not math.isfinite(float(v)) or abs(float(v)) > 1e100
    ]
    assert bad, "rates this high must corrupt something"
    # The boundary validation turns corruption into a typed diagnostic
    # with exact cell coordinates, before the MILP ever sees it.
    engine = RepairEngine(once, workload.constraints)
    with pytest.raises(InvalidValueError) as info:
        engine.find_card_minimal_repair()
    assert info.value.cell[0] is not None
    assert info.value.details["attribute"] is not None


def test_sequential_kill_is_a_typed_crash():
    from repro.diagnostics import WorkerCrashError

    config = FaultConfig(seed=1, kill_rate=1.0)
    with pytest.raises(WorkerCrashError) as info:
        chaos_before_task(config, 0, 0, in_pool=False)
    assert info.value.code == "worker_crash"
    chaos_before_task(None, 0, 0, in_pool=False)  # no config, no chaos


# ---------------------------------------------------------------------------
# Corrupt inputs through the batch: typed statuses, no fallback waste
# ---------------------------------------------------------------------------


def test_corrupt_inputs_fail_typed_without_fallback_retries(corpus):
    workload, databases = corpus
    config = FaultConfig(seed=5, nan_rate=1.0)
    tasks = [
        RepairTask(
            database=corrupt_database(db, config, i),
            constraints=workload.constraints,
            name=f"bad{i}",
        )
        for i, db in enumerate(databases)
    ]
    report = repair_batch(tasks, workers=None)
    assert [r.status for r in report.results] == ["invalid_input"] * len(tasks)
    # Input errors are deterministic: no fallback backend was tried.
    assert all(not r.fallback_taken for r in report.results)
    assert all("NaN" in r.error for r in report.results)
    assert report.n_failed == len(tasks)


# ---------------------------------------------------------------------------
# Worker crashes: retry, recovery, quarantine -- sequential and pool
# ---------------------------------------------------------------------------


def test_sequential_transient_crash_retries_then_succeeds(corpus):
    tasks = make_tasks(corpus)
    config = FaultConfig(
        seed=0, kill_rate=1.0, kill_tasks=frozenset({1}),
        kill_attempts=frozenset({0}),
    )
    report = repair_batch(
        tasks, workers=None, fault_config=config, retry_backoff=0.0
    )
    assert all(r.status == "repaired" for r in report.results)
    assert [r.attempts for r in report.results] == [1, 2, 1, 1]
    assert report.n_quarantined == 0


def test_sequential_permanent_crash_quarantines_exactly_one(corpus):
    tasks = make_tasks(corpus)
    config = FaultConfig(seed=0, kill_rate=1.0, kill_tasks=frozenset({2}))
    report = repair_batch(
        tasks, workers=None, fault_config=config,
        max_task_retries=2, retry_backoff=0.0,
    )
    statuses = [r.status for r in report.results]
    assert statuses == ["repaired", "repaired", "quarantined", "repaired"]
    quarantined = report.results[2]
    # 1 initial dispatch + 2 retries, then quarantine.
    assert quarantined.attempts == 3
    assert "quarantined" in quarantined.error
    assert report.n_quarantined == 1 and report.n_failed == 1


def test_pool_sigkill_respawns_and_spares_siblings(corpus):
    """A real SIGKILL mid-chunk: the pool is respawned, the poison
    task is charged (attempts=2) and every sibling still completes."""
    tasks = make_tasks(corpus)
    config = FaultConfig(
        seed=0, kill_rate=1.0, kill_tasks=frozenset({2}),
        kill_attempts=frozenset({0}),
    )
    report = repair_batch(
        tasks, workers=2, fault_config=config, retry_backoff=0.0,
    )
    assert all(r.status == "repaired" for r in report.results), [
        (r.status, r.error) for r in report.results
    ]
    assert report.pool_respawns >= 1
    assert report.results[2].attempts >= 2
    # Siblings were never charged with the crash.
    for i in (0, 1, 3):
        assert report.results[i].status == "repaired"


def test_pool_permanent_killer_is_quarantined_without_sinking_the_batch(corpus):
    tasks = make_tasks(corpus)
    config = FaultConfig(seed=0, kill_rate=1.0, kill_tasks=frozenset({1}))
    report = repair_batch(
        tasks, workers=2, fault_config=config,
        max_task_retries=1, retry_backoff=0.0,
    )
    statuses = [r.status for r in report.results]
    assert statuses == ["repaired", "quarantined", "repaired", "repaired"]
    assert report.n_quarantined == 1
    assert report.pool_respawns >= 2  # one per kill


@pytest.mark.slow
def test_pool_hung_worker_is_reaped_by_the_watchdog(corpus):
    """A worker that hangs (no crash, no progress) trips the hard
    watchdog, is terminated, and its task retries on a fresh pool."""
    tasks = make_tasks(corpus)
    config = FaultConfig(
        seed=0, hang_rate=1.0, hang_seconds=600.0,
        hang_tasks=frozenset({1}), hang_attempts=frozenset({0}),
    )
    started = time.perf_counter()
    report = repair_batch(
        tasks, workers=2, fault_config=config,
        hard_timeout=1.0, retry_backoff=0.0,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, "the watchdog must fire long before the hang ends"
    assert all(r.status == "repaired" for r in report.results)
    assert report.pool_respawns >= 1
    assert report.results[1].attempts >= 2


# ---------------------------------------------------------------------------
# The CI chaos sweep: no crash, exact accounting, journal consistency
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("chaos_seed", CI_CHAOS_SEEDS)
def test_chaos_sweep_never_crashes_and_accounts_exactly(
    corpus, tmp_path, chaos_seed
):
    """The headline chaos property on three fixed seeds: corrupt
    inputs + random worker crashes, sequential mode, with a journal.
    The batch must survive, classify every task, and keep the journal
    in lockstep with the report."""
    workload, databases = corpus
    corruption = FaultConfig(seed=chaos_seed, nan_rate=0.1, overflow_rate=0.1)
    tasks = [
        RepairTask(
            database=corrupt_database(db, corruption, i),
            constraints=workload.constraints,
            name=f"doc{i}",
        )
        for i, db in enumerate(databases)
    ]
    chaos = FaultConfig(seed=chaos_seed, kill_rate=0.3)
    checkpoint = tmp_path / f"chaos-{chaos_seed}.jsonl"
    # The CI cascade lane reruns this sweep with the tiered strategy
    # (REPRO_BATCH_STRATEGY=cascade): same chaos, same invariants.
    strategy = os.environ.get("REPRO_BATCH_STRATEGY", "exact")
    report = repair_batch(
        tasks, workers=None, fault_config=chaos,
        checkpoint=str(checkpoint), max_task_retries=2, retry_backoff=0.0,
        strategy=strategy,
    )
    # 1. No crash, every task classified.
    assert len(report.results) == len(tasks)
    assert all(r.status in KNOWN_STATUSES for r in report.results)
    # 2. Accounting adds up.
    assert report.n_repaired + report.n_consistent + report.n_failed == len(tasks)
    assert report.n_quarantined == sum(
        1 for r in report.results if r.status == "quarantined"
    )
    for result in report.results:
        assert result.attempts >= 1
        if result.status == "quarantined":
            assert result.attempts == 3  # 1 dispatch + max_task_retries
    # 3. The journal mirrors the report exactly.
    lines = checkpoint.read_text(encoding="utf-8").strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["kind"] == "header"
    by_index = {r["index"]: r for r in records[1:]}
    assert set(by_index) == set(range(len(tasks)))
    for result in report.results:
        assert by_index[result.index]["status"] == result.status
    # And a resume replays it verbatim -- chaos config gone, nothing
    # re-runs, aggregates identical minus elapsed time.
    resumed = repair_batch(
        tasks, workers=None, checkpoint=str(checkpoint), strategy=strategy
    )
    assert resumed.n_resumed == len(tasks)
    a = {k: v for k, v in report.aggregate().items() if k != "wall_time"}
    b = {k: v for k, v in resumed.aggregate().items() if k != "wall_time"}
    assert a == b


# ---------------------------------------------------------------------------
# The acceptance criterion: SIGKILL the batch itself, resume, compare
# ---------------------------------------------------------------------------

_DRIVER = """
import sys
from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.faultinject import FaultConfig
from repro.repair.batch import repair_batch, tasks_from_databases

checkpoint, base_seed, seed_csv, hang_index = (
    sys.argv[1], int(sys.argv[2]), sys.argv[3], int(sys.argv[4])
)
workload = generate_cash_budget(n_years=2, seed=base_seed)
databases = [
    inject_value_errors(workload.ground_truth, 2, seed=int(s))[0]
    for s in seed_csv.split(",")
]
tasks = tasks_from_databases(databases, workload.constraints)
# Hang forever on one task so the parent can SIGKILL us mid-run at a
# deterministic point (earlier tasks journalled, later ones not).
chaos = FaultConfig(
    seed=0, hang_rate=1.0, hang_seconds=3600.0,
    hang_tasks=frozenset({hang_index}),
)
repair_batch(tasks, workers=None, checkpoint=checkpoint, fault_config=chaos)
"""


def test_kill_batch_mid_run_then_resume_matches_uninterrupted(corpus, tmp_path):
    workload, databases = corpus
    base_seed = derived_seeds(1)[0]
    task_seeds = derived_seeds(N_TASKS)
    hang_index = 2  # tasks 0..1 complete, 2..3 lost with the process
    checkpoint = tmp_path / "killed.jsonl"
    driver = tmp_path / "driver.py"
    driver.write_text(_DRIVER, encoding="utf-8")

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable, str(driver), str(checkpoint), str(base_seed),
            ",".join(map(str, task_seeds)), str(hang_index),
        ],
        env=env,
    )
    try:
        # Wait until the first hang_index tasks are journalled (the
        # run is then provably mid-flight, wedged on hang_index).
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if checkpoint.exists():
                lines = checkpoint.read_text(encoding="utf-8").strip().splitlines()
                if len(lines) >= 1 + hang_index:  # header + results
                    break
            if process.poll() is not None:
                pytest.fail("driver exited before it could be killed")
            time.sleep(0.05)
        else:
            pytest.fail("driver never journalled the expected results")
        os.kill(process.pid, signal.SIGKILL)
    finally:
        process.wait(timeout=30)

    tasks = tasks_from_databases(databases, workload.constraints)
    resumed = repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    assert resumed.n_resumed == hang_index
    assert all(r.status == "repaired" for r in resumed.results)

    uninterrupted = repair_batch(tasks, workers=None)
    # Byte-identical per-task results...
    for a, b in zip(resumed.results, uninterrupted.results):
        assert (a.status, str(a.repair), a.objective, a.backend_used) == (
            b.status, str(b.repair), b.objective, b.backend_used
        )
    # ...and identical aggregates, modulo real elapsed time.
    timing_keys = {"wall_time", "solver_seconds"}
    a = {k: v for k, v in resumed.aggregate().items() if k not in timing_keys}
    b = {k: v for k, v in uninterrupted.aggregate().items() if k not in timing_keys}
    assert a == b


# ---------------------------------------------------------------------------
# The contradiction fault (infeasibility forensics)
# ---------------------------------------------------------------------------


def test_contradiction_injection_is_deterministic(ground_truth, constraints):
    first = inject_contradiction(ground_truth, constraints, seed=5, index=2)
    second = inject_contradiction(ground_truth, constraints, seed=5, index=2)
    assert first.pins == second.pins
    assert first.ground.normalized_key() == second.ground.normalized_key()
    other = inject_contradiction(ground_truth, constraints, seed=6, index=2)
    assert (first.pins, str(first.ground)) != (other.pins, str(other.ground))


def test_injected_pins_actually_violate_the_chosen_ground(
    ground_truth, constraints
):
    injection = inject_contradiction(ground_truth, constraints, seed=5)
    lhs = injection.ground.constant + sum(
        coefficient * injection.pins[cell]
        for cell, coefficient in injection.ground.coefficients.items()
    )
    relop, rhs = injection.ground.relop, injection.ground.rhs
    if relop == "<=":
        assert lhs > rhs
    elif relop == ">=":
        assert lhs < rhs
    else:
        assert lhs != pytest.approx(rhs)


def test_contradict_tasks_rate_zero_is_a_no_op(ground_truth, constraints):
    tasks = tasks_from_databases([ground_truth] * 3, constraints)
    unchanged, record = contradict_tasks(tasks, FaultConfig(seed=1))
    assert record == {}
    assert all(a is b for a, b in zip(unchanged, tasks))


def test_contradict_tasks_scoping_and_record(ground_truth, constraints):
    tasks = tasks_from_databases([ground_truth] * 4, constraints)
    config = FaultConfig(
        seed=9, contradiction_rate=1.0, contradiction_tasks=frozenset({0, 2})
    )
    injected, record = contradict_tasks(tasks, config)
    assert sorted(record) == [0, 2]
    assert injected[0].pins == record[0].pins
    assert injected[1] is tasks[1]


def test_batch_fails_only_the_contradicted_task(ground_truth, constraints):
    """The chaos acceptance path: contradiction fault -> unrepairable.

    The hit task fails as ``"unrepairable"`` on both backends; the
    spared tasks are untouched, and ``explain_infeasible`` names
    exactly the injected conflict.
    """
    tasks = tasks_from_databases([ground_truth] * 3, constraints)
    config = FaultConfig(
        seed=13, contradiction_rate=1.0, contradiction_tasks=frozenset({1})
    )
    injected, record = contradict_tasks(tasks, config)
    report = repair_batch(injected, workers=0)
    assert [r.status for r in report.results] == [
        "consistent", "unrepairable", "consistent"
    ]
    assert report.results[1].fallback_taken
    conflict = RepairEngine(ground_truth, constraints).explain_infeasible(
        pins=injected[1].pins
    )
    assert [g.normalized_key() for g in conflict.grounds] == [
        record[1].ground.normalized_key()
    ]
