"""The batch checkpoint journal: round-trips, torn tails, resume rules.

The journal's contract is narrow but load-bearing: a result written
then loaded is the *same* result (repairs, stats, floats and all), a
mid-crash torn final line is forgiven, any other corruption is loud,
and a record is only replayed for a task whose fingerprint still
matches -- editing an input between runs must invalidate the entry.
"""

from __future__ import annotations

import json

import pytest

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.milp.solver import SolveStats
from repro.repair import batch as batch_module
from repro.repair.batch import BatchItemResult, RepairTask, repair_batch
from repro.repair.checkpoint import (
    CheckpointError,
    CheckpointJournal,
    journal_worthy,
    record_to_result,
    result_to_record,
    task_fingerprint,
)
from repro.repair.updates import AtomicUpdate, Repair

from tests._seeds import derived_seeds


@pytest.fixture(scope="module")
def workload():
    return generate_cash_budget(n_years=2, seed=derived_seeds(1)[0])


def make_task(workload, seed, name="doc"):
    corrupted, _ = inject_value_errors(workload.ground_truth, 2, seed=seed)
    return RepairTask(database=corrupted, constraints=workload.constraints, name=name)


def sample_result():
    return BatchItemResult(
        index=3,
        name="doc3",
        status="repaired",
        repair=Repair(
            [
                AtomicUpdate("CashBudget", 1, "amount", 250.0, 220.0),
                AtomicUpdate("CashBudget", 4, "amount", 10.0, 40.0),
            ]
        ),
        objective=2.0,
        backend_used="bnb",
        fallback_taken=True,
        approximate=True,
        gap=1.0,
        attempts=2,
        error="primary backend 'scipy' failed: boom",
        wall_time=0.125,
        stats=[
            SolveStats(
                backend="bnb", status="feasible_gap", wall_time=0.1,
                nodes=7, simplex_pivots=42, gap=1.0, best_bound=1.0,
            )
        ],
    )


def test_result_record_round_trip():
    original = sample_result()
    record = result_to_record(original, "fp")
    # The record must survive a JSON round trip (that's the file format).
    revived = record_to_result(json.loads(json.dumps(record)))
    assert revived.index == original.index
    assert revived.name == original.name
    assert revived.status == original.status
    assert revived.repair.updates == original.repair.updates
    assert str(revived.repair) == str(original.repair)
    assert revived.objective == original.objective
    assert revived.backend_used == original.backend_used
    assert revived.fallback_taken == original.fallback_taken
    assert revived.approximate and revived.gap == original.gap
    assert revived.attempts == original.attempts
    assert revived.error == original.error
    assert revived.wall_time == original.wall_time
    assert revived.resumed  # replayed results are flagged
    [stat] = revived.stats
    assert stat.as_dict() == original.stats[0].as_dict()


def test_journal_append_and_load(tmp_path):
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(n_tasks=5, backend="scipy", timeout=None)
    journal.append_result(sample_result(), "fp3")
    loaded = journal.load()
    assert loaded.header["n_tasks"] == 5
    assert loaded.truncated_bytes == 0
    assert set(loaded.records) == {3}
    assert loaded.records[3]["fingerprint"] == "fp3"


def test_torn_final_line_is_forgiven(tmp_path):
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(n_tasks=2)
    journal.append_result(sample_result(), "fp")
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write('{"kind": "result", "index": 4, "status"')  # crash here
    loaded = journal.load()
    assert set(loaded.records) == {3}
    assert loaded.truncated_bytes > 0


def test_mid_file_corruption_is_loud(tmp_path):
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(n_tasks=2)
    with open(journal.path, "a", encoding="utf-8") as handle:
        handle.write("NOT JSON\n")
    journal.append_result(sample_result(), "fp")
    with pytest.raises(CheckpointError, match="corrupt journal line"):
        journal.load()


def test_header_must_come_first_and_match(tmp_path, workload):
    path = tmp_path / "j.jsonl"
    journal = CheckpointJournal(path)
    journal.append_result(sample_result(), "fp")
    with pytest.raises(CheckpointError, match="not a header"):
        journal.load()

    path.unlink()
    journal.write_header(n_tasks=7, backend="scipy")
    task = make_task(workload, derived_seeds(1)[0])
    with pytest.raises(CheckpointError, match="refusing to resume"):
        journal.load_completed(
            [task], [task_fingerprint(task)], expected_meta={"n_tasks": 1}
        )


def test_fingerprint_tracks_content_not_identity(workload):
    seed = derived_seeds(1)[0]
    a = make_task(workload, seed)
    b = make_task(workload, seed)  # same seed -> same content, new objects
    assert task_fingerprint(a) == task_fingerprint(b)
    # Any cell edit must change the fingerprint.
    cell = b.database.measure_cells()[0]
    old = b.database.get_value(*cell)
    b.database.set_value(cell[0], cell[1], cell[2], float(old) + 1.0)
    assert task_fingerprint(a) != task_fingerprint(b)


def test_stale_fingerprint_invalidates_resume(tmp_path, workload):
    seeds = derived_seeds(3)
    tasks = [make_task(workload, s, name=f"t{i}") for i, s in enumerate(seeds)]
    checkpoint = tmp_path / "batch.jsonl"
    first = repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    assert first.n_resumed == 0

    # Edit one task's input: its journal entry must not be replayed.
    cell = tasks[1].database.measure_cells()[0]
    old = tasks[1].database.get_value(*cell)
    tasks[1].database.set_value(cell[0], cell[1], cell[2], float(old) + 5.0)
    second = repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    resumed = [r.resumed for r in second.results]
    assert resumed == [True, False, True]


def test_resume_replays_results_exactly(tmp_path, workload):
    seeds = derived_seeds(4)
    tasks = [make_task(workload, s, name=f"t{i}") for i, s in enumerate(seeds)]
    checkpoint = tmp_path / "batch.jsonl"
    first = repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    second = repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    assert second.n_resumed == len(tasks)
    # Aggregates are identical except real elapsed time.
    first_aggregate = {k: v for k, v in first.aggregate().items() if k != "wall_time"}
    second_aggregate = {k: v for k, v in second.aggregate().items() if k != "wall_time"}
    assert first_aggregate == second_aggregate
    for a, b in zip(first.results, second.results):
        assert (a.status, str(a.repair), a.objective) == (
            b.status, str(b.repair), b.objective,
        )


def test_resume_drops_stats_keys_of_removed_fields(tmp_path, workload, monkeypatch):
    # A journal written before a SolveStats field was removed still
    # carries that key in every stats entry (here the cut layer's
    # ``cuts_rejected``).  Resume must load it and re-solve nothing.
    seeds = derived_seeds(2)
    tasks = [make_task(workload, s, name=f"t{i}") for i, s in enumerate(seeds)]
    checkpoint = tmp_path / "batch.jsonl"
    first = repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    records = [
        json.loads(line)
        for line in checkpoint.read_text(encoding="utf-8").splitlines()
    ]
    legacy_entries = 0
    for record in records:
        for entry in record.get("stats", []):
            entry["cuts_rejected"] = 0
            legacy_entries += 1
    assert legacy_entries > 0
    checkpoint.write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8",
    )

    def no_solve(*args, **kwargs):
        raise AssertionError("resume re-solved a journaled task")

    monkeypatch.setattr(batch_module, "execute_task", no_solve)
    second = repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    assert second.n_resumed == len(tasks)
    first_aggregate = {k: v for k, v in first.aggregate().items() if k != "wall_time"}
    second_aggregate = {k: v for k, v in second.aggregate().items() if k != "wall_time"}
    assert first_aggregate == second_aggregate


def test_no_resume_starts_over(tmp_path, workload):
    seeds = derived_seeds(2)
    tasks = [make_task(workload, s, name=f"t{i}") for i, s in enumerate(seeds)]
    checkpoint = tmp_path / "batch.jsonl"
    repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    fresh = repair_batch(
        tasks, workers=None, checkpoint=str(checkpoint), resume=False
    )
    assert fresh.n_resumed == 0
    # The journal was rewritten, not appended to: one header, two results.
    lines = (checkpoint).read_text(encoding="utf-8").strip().splitlines()
    kinds = [json.loads(line)["kind"] for line in lines]
    assert kinds == ["header", "result", "result"]


def test_multiline_garbage_tail_is_forgiven(tmp_path):
    # A torn write is arbitrary bytes -- including newlines.  The whole
    # unparseable suffix is one torn tail, not mid-file corruption.
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(n_tasks=2)
    journal.append_result(sample_result(), "fp")
    with open(journal.path, "ab") as handle:
        handle.write(b'{"kind": "res\n\x00\x07garbage\nmore garbage')
    loaded = journal.load()
    assert set(loaded.records) == {3}
    assert loaded.truncated_bytes > 0


def test_truncate_torn_tail_survives_double_crash(tmp_path):
    # Crash #1 leaves a torn tail; the resumed run appends past it;
    # crash #2 then hands the journal to a third incarnation.  Without
    # truncate-before-append the garbage would sit mid-file and load()
    # would (rightly) refuse the whole journal.
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(n_tasks=9)
    journal.append_result(sample_result(), "fp")
    with open(journal.path, "ab") as handle:
        handle.write(b'{"kind": "result", "ind\x00\ntorn')
    discarded = journal.truncate_torn_tail()
    assert discarded > 0
    second = sample_result()
    second.index = 7
    journal.append_result(second, "fp7")
    loaded = journal.load()
    assert loaded.truncated_bytes == 0
    assert set(loaded.records) == {3, 7}
    assert journal.truncate_torn_tail() == 0  # idempotent on clean files


def test_garbage_before_valid_records_stays_loud(tmp_path):
    # The generalized tail tolerance must not excuse true mid-file
    # corruption: bytes that fail to parse *followed by* a valid record
    # mean somebody edited the journal, and replaying it would lie.
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(n_tasks=2)
    with open(journal.path, "ab") as handle:
        handle.write(b"\x00garbage\n")
    journal.append_result(sample_result(), "fp")
    with pytest.raises(CheckpointError, match="corrupt journal line"):
        journal.load()


def test_streaming_header_skips_unrecorded_meta(tmp_path, workload):
    # A streaming-intake header records config meta but cannot know
    # n_tasks; load_completed treats the absent key as unverifiable,
    # while still rejecting a recorded key that conflicts.
    seeds = derived_seeds(1)
    task = make_task(workload, seeds[0], name="t0")
    fingerprint = task_fingerprint(task)
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(backend="scipy")
    result = sample_result()
    result.index = 0
    journal.append_result(result, fingerprint)
    completed, _ = journal.load_completed(
        [task], [fingerprint], expected_meta={"n_tasks": 1, "backend": "scipy"}
    )
    assert set(completed) == {0}
    with pytest.raises(CheckpointError, match="does not match"):
        journal.load_completed(
            [task], [fingerprint],
            expected_meta={"n_tasks": 1, "backend": "bnb"},
        )


#: One journaled stats entry, byte for byte as journals already on disk
#: hold it: every field set, in field order.
JOURNALED_STATS_ENTRY = (
    '{"backend":"bnb","status":"optimal","wall_time":0.25,"nodes":3,'
    '"simplex_pivots":17,"cache_hit":true,"fallback":true,"n_variables":12,'
    '"n_constraints":9,"objective":2.0,"presolve_reductions":4,'
    '"warm_start_hits":5,"warm_start_fallbacks":1,"heuristic_seeded":true,'
    '"heuristic_gap":1.0,"gap":0.0,"best_bound":2.0,"phase":"iis",'
    '"tier":"t4-exact","tier_hits":2,"tier_fallthroughs":1,'
    '"phase_times":{"phase_search":0.5,"phase_lowering":0.125},'
    '"cuts_gomory":0,"cuts_cover":0,"node_cuts":0,"refactorizations":2,'
    '"certified":true,"certification":"milp","certification_failures":1,'
    '"ladder_steps":["as-requested","pricing:bland"],"degraded":true,'
    '"bland_fallbacks":1,"numeric_drift":1e-09}'
)


def test_journaled_stats_entry_bytes_are_stable(tmp_path):
    stats = SolveStats(
        backend="bnb", status="optimal", wall_time=0.25, nodes=3,
        simplex_pivots=17, cache_hit=True, fallback=True, n_variables=12,
        n_constraints=9, objective=2.0, presolve_reductions=4,
        warm_start_hits=5, warm_start_fallbacks=1, heuristic_seeded=True,
        heuristic_gap=1.0, gap=0.0, best_bound=2.0, phase="iis",
        tier="t4-exact", tier_hits=2, tier_fallthroughs=1,
        phase_times={"phase_search": 0.5, "phase_lowering": 0.125},
        refactorizations=2, certified=True, certification="milp",
        certification_failures=1,
        ladder_steps=["as-requested", "pricing:bland"], degraded=True,
        bland_fallbacks=1, numeric_drift=1e-09,
    )
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(n_tasks=1)
    journal.append_result(
        BatchItemResult(index=0, name="doc", status="repaired", stats=[stats]),
        "fp",
    )
    line = journal.path.read_text(encoding="utf-8").splitlines()[1]
    assert '"stats":[' + JOURNALED_STATS_ENTRY + "]" in line
    [revived] = record_to_result(json.loads(line)).stats
    assert revived == stats


def test_journaled_certify_replays_round_trip_only_when_nonzero():
    """A solve whose certificates the float pass settled journals the
    bytes above; one the ``Fraction`` replay decided keeps its count."""
    settled = SolveStats(backend="bnb", status="optimal", wall_time=0.1)
    replayed = SolveStats(
        backend="bnb", status="optimal", wall_time=0.1, certify_replays=2
    )
    result = BatchItemResult(
        index=0, name="doc", status="repaired", stats=[settled, replayed]
    )
    record = json.loads(json.dumps(result_to_record(result, "fp")))
    assert "certify_replays" not in record["stats"][0]
    assert record["stats"][1]["certify_replays"] == 2
    assert record_to_result(record).stats == [settled, replayed]


def test_start_run_cuts_the_torn_tail_then_replays(tmp_path, workload):
    task = make_task(workload, derived_seeds(1)[0], name="t0")
    fingerprint = task_fingerprint(task)
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(n_tasks=1)
    result = sample_result()
    result.index = 0
    journal.append_result(result, fingerprint)
    with open(journal.path, "ab") as handle:
        handle.write(b'{"kind":"result","ind')
    replayed = journal.start_run([task], [fingerprint], {"n_tasks": 1})
    assert set(replayed) == {0} and replayed[0].resumed
    # The torn bytes are gone, so the next append lands on a clean line.
    assert journal.path.read_bytes().endswith(b"}\n")


def test_start_run_without_resume_starts_over(tmp_path, workload):
    task = make_task(workload, derived_seeds(1)[0], name="t0")
    fingerprint = task_fingerprint(task)
    journal = CheckpointJournal(tmp_path / "j.jsonl")
    journal.write_header(n_tasks=1)
    journal.append_result(sample_result(), fingerprint)
    replayed = journal.start_run(
        [task], [fingerprint], {"n_tasks": 1}, resume=False
    )
    assert replayed == {}
    lines = journal.path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["kind"] for line in lines] == ["header"]


def test_journal_worthy_keeps_suspect_answers_out():
    certified = sample_result()
    certified.certified = True
    assert journal_worthy(certified, certify=True)
    rejected = sample_result()
    rejected.certified = False
    assert not journal_worthy(rejected, certify=True)
    degraded = sample_result()
    degraded.stats[0].degraded = True
    assert not journal_worthy(degraded, certify=True)
    uncertified = BatchItemResult(index=0, name="u", status="uncertified")
    assert not journal_worthy(uncertified, certify=True)
    # With certification off there is no verdict to gate on.
    assert journal_worthy(rejected, certify=False)
    assert journal_worthy(degraded, certify=False)


def test_cascade_journal_with_a_budget_header_still_resumes(
    tmp_path, workload, monkeypatch
):
    # Journals written while the cascade had a mis-repair budget carry
    # ``"misrepair_budget": 0`` in their header.  The key is no longer
    # checked, and the fingerprints still match.
    seeds = derived_seeds(2)
    tasks = [make_task(workload, s, name=f"t{i}") for i, s in enumerate(seeds)]
    checkpoint = tmp_path / "batch.jsonl"
    repair_batch(
        tasks, workers=None, checkpoint=str(checkpoint), strategy="cascade"
    )
    records = [
        json.loads(line)
        for line in checkpoint.read_text(encoding="utf-8").splitlines()
    ]
    records[0]["misrepair_budget"] = 0
    checkpoint.write_text(
        "".join(json.dumps(record) + "\n" for record in records),
        encoding="utf-8",
    )

    def no_solve(*args, **kwargs):
        raise AssertionError("resume re-solved a journaled task")

    monkeypatch.setattr(batch_module, "execute_task", no_solve)
    resumed = repair_batch(
        tasks, workers=None, checkpoint=str(checkpoint), strategy="cascade"
    )
    assert resumed.n_resumed == len(tasks)


#: A batch journal header byte for byte as the version that had an
#: ``on_infeasible`` option wrote it at its default, ``"raise"``.
PRIOR_HEADER = (
    '{"kind":"header","version":1,"n_tasks":2,"backend":"scipy",'
    '"timeout":null,"on_infeasible":"raise","strategy":"exact","certify":true}'
)


def as_prior_journal(checkpoint, on_infeasible="raise"):
    """Rewrite *checkpoint* as that version wrote it: the header under
    *on_infeasible*, and ``"violations": null`` after every record's
    stats."""
    lines = checkpoint.read_text(encoding="utf-8").splitlines()
    header = PRIOR_HEADER.replace('"raise"', json.dumps(on_infeasible))
    records = []
    for line in lines[1:]:
        record = {}
        for key, value in json.loads(line).items():
            record[key] = value
            if key == "stats":
                record["violations"] = None
        records.append(json.dumps(record, separators=(",", ":")))
    checkpoint.write_text("\n".join([header, *records]) + "\n", encoding="utf-8")


def test_batch_header_keeps_its_bytes(tmp_path, workload):
    tasks = [make_task(workload, s, name=f"t{i}") for i, s in enumerate(derived_seeds(2))]
    checkpoint = tmp_path / "batch.jsonl"
    repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    header = checkpoint.read_text(encoding="utf-8").splitlines()[0]
    assert header == PRIOR_HEADER


def test_prior_batch_journal_resumes_without_solving(
    tmp_path, workload, monkeypatch
):
    tasks = [make_task(workload, s, name=f"t{i}") for i, s in enumerate(derived_seeds(2))]
    checkpoint = tmp_path / "batch.jsonl"
    first = repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    as_prior_journal(checkpoint)
    assert '"violations":null' in checkpoint.read_text(encoding="utf-8")

    def no_solve(*args, **kwargs):
        raise AssertionError("resume re-solved a journaled task")

    monkeypatch.setattr(batch_module, "execute_task", no_solve)
    resumed = repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    assert resumed.n_resumed == len(tasks)
    assert [(r.status, r.repair, r.certified) for r in resumed.results] == [
        (r.status, r.repair, r.certified) for r in first.results
    ]


def test_relax_journal_is_refused(tmp_path, workload):
    # Relaxed results are ones this code can no longer produce, so a
    # journal written under ``on_infeasible="relax"`` must not replay.
    tasks = [make_task(workload, s, name=f"t{i}") for i, s in enumerate(derived_seeds(2))]
    checkpoint = tmp_path / "batch.jsonl"
    repair_batch(tasks, workers=None, checkpoint=str(checkpoint))
    as_prior_journal(checkpoint, on_infeasible="relax")
    with pytest.raises(CheckpointError, match="on_infeasible='relax'"):
        repair_batch(tasks, workers=None, checkpoint=str(checkpoint))


def test_record_carrying_violations_still_loads():
    record = json.loads(json.dumps(result_to_record(sample_result(), "fp")))
    assert "violations" not in record
    record["violations"] = None
    revived = record_to_result(record)
    assert revived.status == "repaired" and revived.resumed
    assert revived.repair.updates == sample_result().repair.updates
