"""The repair service: admission, breakers, drain, crash recovery.

Everything a long-running daemon must get right that a one-shot batch
never faces: refusing work honestly when full, shifting traffic off a
sick backend and probing it back to health, finishing the task in
flight on SIGTERM, and restarting after ``kill -9`` to complete the
corpus *identically* -- re-solving only the uncertified tail, with the
durable store turning the re-solves into disk hits.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.datasets import cash_budget_constraints, paper_acquired_instance
from repro.diagnostics import OverloadedError
from repro.faultinject import FaultConfig
from repro.repair import service as service_module
from repro.repair.batch import BatchItemResult, RepairTask
from repro.repair.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    task_fingerprint,
)
from repro.repair.service import (
    BACKEND_FAULT_STATUSES,
    CircuitBreaker,
    RepairService,
    ServiceConfig,
)


def _tasks(n: int = 3, prefix: str = "doc"):
    return [
        RepairTask(
            database=paper_acquired_instance(),
            constraints=cash_budget_constraints(),
            name=f"{prefix}{i}",
        )
        for i in range(n)
    ]


def _signature(report):
    return [
        (r.status, None if r.repair is None else str(r.repair), r.objective)
        for r in report.results
    ]


# ---------------------------------------------------------------------------
# Circuit breaker state machine (driven clock, no sleeping)
# ---------------------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_breaker_opens_after_threshold():
    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0, clock=clock)
    assert breaker.state == "closed"
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    assert breaker.retry_after() == pytest.approx(10.0)


def test_breaker_success_resets_consecutive_count():
    breaker = CircuitBreaker(failure_threshold=2, cooldown=10.0, clock=_Clock())
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    assert breaker.state == "closed"  # failures were not consecutive


def test_breaker_half_open_single_probe():
    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=1, cooldown=10.0, clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.now = 10.0
    assert breaker.state == "half-open"
    assert breaker.allow()  # the one probe
    assert not breaker.allow()  # no stampede on a recovering backend
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow()


def test_breaker_failed_probe_reopens_for_full_cooldown():
    clock = _Clock()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=10.0, clock=clock)
    for _ in range(3):
        breaker.record_failure()
    clock.now = 10.0
    assert breaker.allow()
    breaker.record_failure()  # one failed probe re-opens immediately
    assert breaker.state == "open"
    assert breaker.retry_after() == pytest.approx(10.0)
    clock.now = 19.0
    assert not breaker.allow()


# ---------------------------------------------------------------------------
# Admission control: bounded backpressure
# ---------------------------------------------------------------------------


def test_submit_refuses_above_watermark(tmp_path):
    config = ServiceConfig(max_pending=2, retry_after=2.5)
    with RepairService(config) as service:
        service.submit(_tasks(1)[0])
        service.submit(_tasks(1)[0])
        with pytest.raises(OverloadedError) as caught:
            service.submit(_tasks(1)[0])
        assert caught.value.retry_after == pytest.approx(2.5)
        assert caught.value.code == "overloaded"
        # Backpressure, not lockout: draining the queue re-admits.
        assert service.process_pending() == 2
        ticket = service.submit(_tasks(1)[0])
        service.process_pending()
        assert service.result(ticket).ok


def test_submitted_work_completes_with_results(tmp_path):
    config = ServiceConfig(store=str(tmp_path / "s.db"))
    with RepairService(config) as service:
        tickets = [service.submit(task) for task in _tasks(3)]
        assert service.result(tickets[0]) is None  # queued, not run
        assert service.process_pending() == 3
        for ticket in tickets:
            result = service.result(ticket)
            assert result is not None and result.status == "repaired"
        assert service.intake_latency(0.5) > 0.0


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_native_solver_output_goes_to_stderr(capfd, monkeypatch):
    """scipy's HiGHS prints to fd 1 from inside a MILP solve; a library
    caller of the service keeps standard output for its own lines, and
    every request leaves fd 1 and the descriptor count as it found
    them."""
    from repro.acquisition.ocr import inject_value_errors
    from repro.datasets import generate_cash_budget
    from repro.milp import solver

    real = solver._BACKENDS["scipy"]

    def noisy(model, **options):
        os.write(1, b"native solver line\n")
        return real(model, **options)

    monkeypatch.setitem(solver._BACKENDS, "scipy", noisy)
    workload = generate_cash_budget(n_years=2, seed=0)
    database, _ = inject_value_errors(workload.ground_truth, 8, seed=0)
    stdout_before = os.fstat(1)
    descriptors = _open_descriptors()
    with RepairService(ServiceConfig(strategy="cascade")) as service:
        for _ in range(3):
            service.submit(RepairTask(database, workload.constraints))
            assert service.process_pending() == 1
        assert service.process_pending() == 0  # an empty queue
        print("result line")
        result = service.result(0)
    assert result.status == "repaired"
    assert _open_descriptors() == descriptors
    assert os.fstat(1).st_ino == stdout_before.st_ino
    out, err = capfd.readouterr()
    assert "native solver line" in err
    assert "native solver line" not in out
    assert "result line" in out


def test_a_host_without_standard_output_can_serve(monkeypatch):
    """A host process whose fd 1 is closed, or whose ``sys.stdout`` is
    None, still gets its repairs; fd 1 stays as the host left it."""
    saved = os.dup(1)
    os.close(1)
    try:
        with RepairService(ServiceConfig(strategy="cascade")) as service:
            service.submit(_tasks(1)[0])
            assert service.process_pending() == 1
            assert service.result(0).status == "repaired"
        with pytest.raises(OSError):
            os.fstat(1)
    finally:
        os.dup2(saved, 1)
        os.close(saved)
    monkeypatch.setattr(sys, "stdout", None)
    with RepairService(ServiceConfig(strategy="cascade")) as service:
        report = service.run(_tasks(2))
    assert [result.status for result in report.results] == ["repaired"] * 2


def test_intake_percentiles_cover_the_latest_window(monkeypatch):
    # Twelve tickets submitted at t=0 and served one per second wait
    # 0, 1, ..., 11 s; a window of 8 keeps only the waits 4..11.
    clock = _Clock()
    monkeypatch.setattr(service_module, "INTAKE_WINDOW", 8)
    monkeypatch.setattr(
        service_module,
        "time",
        SimpleNamespace(
            perf_counter=clock, monotonic=time.monotonic, sleep=time.sleep
        ),
    )

    def serve_in_one_second(self, task, index):
        clock.now += 1.0
        return BatchItemResult(index=index, name=task.name, status="consistent")

    monkeypatch.setattr(RepairService, "_execute", serve_in_one_second)
    with RepairService(ServiceConfig()) as service:
        for task in _tasks(12):
            service.submit(task)
        assert service.process_pending() == 12
        assert service.intake_latency(0.0) == 4.0
        assert service.intake_latency(1.0) == 11.0
        assert service.health()["intake_p50"] == 8.0


# ---------------------------------------------------------------------------
# Sick backend: breakers shift traffic, probes restore it
# ---------------------------------------------------------------------------


def test_sick_backend_opens_breaker_and_traffic_shifts(tmp_path):
    config = ServiceConfig(
        store=str(tmp_path / "s.db"),
        fault_config=FaultConfig(seed=1, sick_backend="scipy", sick_rate=1.0),
        breaker_threshold=1,
        breaker_cooldown=300.0,
        max_task_retries=1,
    )
    with RepairService(config) as service:
        report = service.run(_tasks(3))
        assert all(result.ok for result in report.results), [
            (r.status, r.error) for r in report.results
        ]
        # Task 0 paid the discovery cost; everyone after it was routed
        # straight to the healthy alternate.
        assert report.results[0].fallback_taken
        assert all(r.backend_used == "bnb" for r in report.results)
        assert service.breakers["scipy"].state == "open"
        assert service.breakers["bnb"].state == "closed"
        health = service.health()
        assert health["breakers"]["scipy"] == "open"


def test_recovered_backend_is_probed_back_into_service(tmp_path):
    # Sick only for task 0: by task 1 the backend has "recovered", and
    # a zero cooldown means the very next dispatch is the probe.
    config = ServiceConfig(
        fault_config=FaultConfig(
            seed=1, sick_backend="scipy", sick_rate=1.0,
            sick_tasks=frozenset({0}),
        ),
        breaker_threshold=1,
        breaker_cooldown=0.0,
        max_task_retries=1,
    )
    with RepairService(config) as service:
        report = service.run(_tasks(2))
        assert all(result.ok for result in report.results)
        assert report.results[0].backend_used == "bnb"  # rerouted
        assert report.results[1].backend_used == "scipy"  # the probe won
        assert service.breakers["scipy"].state == "closed"


def test_all_breakers_open_is_an_honest_refusal():
    config = ServiceConfig(
        fault_config=FaultConfig(seed=1, sick_backend="scipy", sick_rate=1.0),
        breaker_threshold=1,
        breaker_cooldown=300.0,
        max_task_retries=1,
        backend="scipy",
    )
    with RepairService(config) as service:
        # Wedge both backends open by hand.
        for backend in ("scipy", "bnb"):
            service._breaker(backend).record_failure()
        ticket = service.submit(_tasks(1)[0])
        service.process_pending()
        result = service.result(ticket)
        assert result.status == "breaker_open"
        assert "retry" in result.error
        assert service.ready()["ready"] is False
        assert service.ready()["breakers_all_open"] is True


def test_backend_fault_statuses_cover_the_taxonomy():
    assert BACKEND_FAULT_STATUSES == {"crashed", "timeout", "error", "uncertified"}


# ---------------------------------------------------------------------------
# Graceful drain
# ---------------------------------------------------------------------------


def test_drain_finishes_in_flight_task_and_persists_queue(tmp_path):
    journal_path = tmp_path / "svc.journal"
    config = ServiceConfig(checkpoint=str(journal_path))
    with RepairService(config) as service:
        tickets = [service.submit(task) for task in _tasks(3)]
        service.request_drain()
        # The task in flight finishes (and is journalled); the rest wait.
        assert service.process_pending() == 1
        assert service.result(tickets[0]).ok
        pending = service.drain()
        assert pending == tickets[1:]
        manifest = json.loads((tmp_path / "svc.journal.pending").read_text())
        assert manifest["pending"] == tickets[1:]
        with pytest.raises(OverloadedError):
            service.submit(_tasks(1)[0])  # draining instances refuse work
        assert service.health()["status"] == "draining"
        assert service.ready()["ready"] is False


def test_sigterm_requests_drain(tmp_path):
    config = ServiceConfig()
    previous_term = signal.getsignal(signal.SIGTERM)
    previous_int = signal.getsignal(signal.SIGINT)
    try:
        with RepairService(config) as service:
            service.install_signal_handlers()
            assert not service.draining
            os.kill(os.getpid(), signal.SIGTERM)
            # Delivery is synchronous for a self-signal on the main thread.
            assert service.draining
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)


def test_close_restores_the_replaced_signal_handlers():
    signals = (signal.SIGTERM, signal.SIGINT)
    previous = {signum: signal.getsignal(signum) for signum in signals}
    try:
        with RepairService(ServiceConfig()) as service:
            service.install_signal_handlers()
            # A second install must not save the drain handler itself.
            service.install_signal_handlers()
            assert all(
                signal.getsignal(signum) is not previous[signum]
                for signum in signals
            )
        # Processes forked after the block (pool workers) must not
        # inherit a handler that only sets the drain flag.
        assert {signum: signal.getsignal(signum) for signum in signals} == previous
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def test_services_closed_out_of_order_restore_the_first_handlers():
    signals = (signal.SIGTERM, signal.SIGINT)
    previous = {signum: signal.getsignal(signum) for signum in signals}
    try:
        first = RepairService(ServiceConfig())
        second = RepairService(ServiceConfig())
        first.install_signal_handlers()
        second.install_signal_handlers()
        first.close()
        # The second service's handler stays until it closes ...
        assert signal.getsignal(signal.SIGTERM) == second._request_drain
        second.close()
        # ... and then the closed first service's is skipped, not put back.
        assert {signum: signal.getsignal(signum) for signum in signals} == previous
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def test_close_off_the_main_thread_still_closes_the_store(tmp_path):
    import sqlite3
    import threading

    signals = (signal.SIGTERM, signal.SIGINT)
    previous = {signum: signal.getsignal(signum) for signum in signals}
    try:
        service = RepairService(ServiceConfig(store=str(tmp_path / "store.sqlite")))
        service.install_signal_handlers()
        raised = []

        def close() -> None:
            try:
                service.close()
            except ValueError as error:  # signal.signal: main thread only
                raised.append(error)

        thread = threading.Thread(target=close)
        thread.start()
        thread.join()
        assert raised
        with pytest.raises(sqlite3.ProgrammingError):
            service.store._connection.execute("SELECT 1")
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def test_run_stops_between_tasks_when_draining(tmp_path):
    config = ServiceConfig(checkpoint=str(tmp_path / "svc.journal"))
    with RepairService(config) as service:
        service.request_drain()
        report = service.run(_tasks(3))
        assert report.n_tasks == 0
        manifest = json.loads((tmp_path / "svc.journal.pending").read_text())
        assert manifest["pending"] == [0, 1, 2]


# ---------------------------------------------------------------------------
# Crash recovery: kill -9 the service, restart, complete identically
# ---------------------------------------------------------------------------


_SERVICE_SCRIPT = """
import sys
sys.path.insert(0, "src")
from repro.datasets import cash_budget_constraints, paper_acquired_instance
from repro.repair.batch import RepairTask
from repro.repair.service import RepairService, ServiceConfig

mode, store, journal = sys.argv[1], sys.argv[2], sys.argv[3]
tasks = [
    RepairTask(database=paper_acquired_instance(),
               constraints=cash_budget_constraints(),
               name=f"doc{i}")
    for i in range(4)
]
config = ServiceConfig(store=store, checkpoint=journal)
with RepairService(config) as service:
    if mode == "crashy":
        # Journal task 0, then die without any cleanup at all.
        import os
        original = service._deliver
        def _deliver_then_die(result, task):
            original(result, task)
            if result.index == 0:
                os.kill(os.getpid(), 9)
        service._deliver = _deliver_then_die
    import json
    report = service.run(tasks, resume=True)
    print(json.dumps({
        "statuses": [r.status for r in report.results],
        "repairs": [str(r.repair) for r in report.results],
        "resumed": report.n_resumed,
        "misses": report.cache_misses,
    }))
"""


def _run_service_subprocess(mode, store, journal, check=True):
    env = dict(os.environ, PYTHONPATH="src")
    return subprocess.run(
        [sys.executable, "-c", _SERVICE_SCRIPT, mode, str(store), str(journal)],
        capture_output=True, text=True, check=check,
        cwd=str(Path(__file__).resolve().parent.parent), env=env,
    )


def test_killed_service_restarts_and_completes_identically(tmp_path):
    store = tmp_path / "svc.db"
    journal = tmp_path / "svc.journal"
    reference = json.loads(
        _run_service_subprocess(
            "clean", tmp_path / "ref.db", tmp_path / "ref.journal"
        ).stdout
    )
    # Incarnation 1 journals one task then takes a SIGKILL to the face.
    crashed = _run_service_subprocess("crashy", store, journal, check=False)
    assert crashed.returncode != 0
    assert journal.exists()
    # Incarnation 2 replays the journal and finishes the rest.
    recovered = json.loads(_run_service_subprocess("clean", store, journal).stdout)
    assert recovered["statuses"] == reference["statuses"]
    assert recovered["repairs"] == reference["repairs"]
    assert recovered["resumed"] >= 1  # task 0 replayed, not re-solved


def test_warm_service_restart_does_zero_milp_solves(tmp_path):
    store = tmp_path / "svc.db"
    first = json.loads(
        _run_service_subprocess("clean", store, tmp_path / "j1.journal").stdout
    )
    # Fresh journal: nothing to replay, so reuse must come from the
    # store alone -- and it covers the whole corpus.
    second = json.loads(
        _run_service_subprocess("clean", store, tmp_path / "j2.journal").stdout
    )
    assert first["misses"] >= 1
    assert second["misses"] == 0
    assert second["resumed"] == 0
    assert second["repairs"] == first["repairs"]


def test_uncertified_journal_tail_is_resolved_not_replayed(tmp_path):
    """A journaled-but-uncertified repair is re-done, not replayed."""
    journal_path = tmp_path / "svc.journal"
    tasks = _tasks(2)
    config = ServiceConfig(checkpoint=str(journal_path))
    with RepairService(config) as service:
        clean = service.run(tasks)
    assert all(r.certified for r in clean.results)
    # Doctor the journal: mark task 1's record uncertified, as if the
    # previous incarnation died before certification hygiene could
    # keep it out.
    lines = journal_path.read_text().splitlines()
    doctored = []
    for line in lines:
        record = json.loads(line)
        if record.get("kind") == "result" and record["index"] == 1:
            record["certified"] = None
        doctored.append(json.dumps(record, separators=(",", ":")))
    journal_path.write_text("\n".join(doctored) + "\n")

    journal = CheckpointJournal(journal_path)
    fingerprints = [task_fingerprint(task) for task in tasks]
    replayed, _ = journal.load_completed(tasks, fingerprints)
    assert 0 in replayed and 1 not in replayed  # the tail is re-solved

    with RepairService(ServiceConfig(checkpoint=str(journal_path))) as service:
        recovered = service.run(tasks, resume=True)
    assert _signature(recovered) == _signature(clean)
    assert recovered.results[0].resumed and not recovered.results[1].resumed


def test_journal_written_without_certification_is_refused(tmp_path):
    """Its repairs were never certified, so a restart must not replay
    them."""
    journal_path = tmp_path / "svc.journal"
    tasks = _tasks(2)
    with RepairService(ServiceConfig(checkpoint=str(journal_path))) as service:
        service.run(tasks)
    text = journal_path.read_text()
    assert '"certify":true' in text.splitlines()[0]
    journal_path.write_text(text.replace('"certify":true', '"certify":false', 1))
    with RepairService(ServiceConfig(checkpoint=str(journal_path))) as service:
        with pytest.raises(CheckpointError, match="certify=False"):
            service.run(tasks)


def test_prior_service_journal_resumes_without_solving(tmp_path, monkeypatch):
    """A journal from the version with an ``on_infeasible`` option: its
    header at the default ``"raise"``, ``"violations": null`` in every
    record.  It replays in full."""
    from tests.test_checkpoint import PRIOR_HEADER, as_prior_journal

    journal_path = tmp_path / "svc.journal"
    tasks = _tasks(2)
    with RepairService(ServiceConfig(checkpoint=str(journal_path))) as service:
        clean = service.run(tasks)
    assert journal_path.read_text().splitlines()[0] == PRIOR_HEADER
    as_prior_journal(journal_path)

    def no_solve(*args, **kwargs):
        raise AssertionError("resume re-solved a journaled task")

    monkeypatch.setattr(service_module, "execute_task", no_solve)
    with RepairService(ServiceConfig(checkpoint=str(journal_path))) as service:
        recovered = service.run(tasks, resume=True)
    assert _signature(recovered) == _signature(clean)
    assert all(r.resumed for r in recovered.results)


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def test_health_shape(tmp_path):
    config = ServiceConfig(store=str(tmp_path / "s.db"), max_pending=7)
    with RepairService(config) as service:
        service.run(_tasks(2))
        health = service.health()
    assert health["status"] == "ok"
    assert health["completed"] == 2
    assert health["max_pending"] == 7
    assert health["store"]["puts"] >= 1
    assert health["uptime"] > 0
    assert 0.0 <= health["intake_p50"] <= health["intake_p99"]


def test_ready_reflects_queue_pressure():
    config = ServiceConfig(max_pending=1)
    with RepairService(config) as service:
        assert service.ready()["ready"] is True
        service.submit(_tasks(1)[0])
        ready = service.ready()
        assert ready["ready"] is False and ready["queue_full"] is True
        service.process_pending()
        assert service.ready()["ready"] is True


def test_integrity_report_through_service(tmp_path):
    config = ServiceConfig(store=str(tmp_path / "s.db"))
    with RepairService(config) as service:
        service.run(_tasks(2))
        report = service.integrity_report()
        assert report is not None and report.ok
    with RepairService(ServiceConfig()) as service:
        assert service.integrity_report() is None
