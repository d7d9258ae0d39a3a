"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric of ``BENCHMARK.json`` is reported with its
unit, untraced and traced; that a planted wrong answer fails each
workload's correctness check; that an item which raises is counted as
failed while the loop goes on; and that the benchmark refuses to run
without the program's source.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from repro.repair import Repair  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_every_metric_is_reported_with_its_unit(name, trace):
    result = harness.run(name, seed=1, seconds=0.0, trace=trace, tiny=True)
    result = json.loads(json.dumps(result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {
        entry["name"]: entry["unit"]
        for entry in SPEC["per_layer" if trace else "end_to_end"]
    }
    assert {m: e["unit"] for m, e in result["metrics"].items()} == expected
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= harness.TAIL_BEYOND + 1


def plant_wrong_answer(name, record):
    """The record with its answer replaced by a wrong one."""
    if name == "sheets_pipeline":
        database = record.copy()
        value = database.get_value("BalanceSheet", 0, "Value")
        database.set_value("BalanceSheet", 0, "Value", value + 1)
        return database
    if name == "repair_bnb":
        return dataclasses.replace(record, repair=Repair([]))
    task, result = record
    return task, dataclasses.replace(result, repair=Repair([]))


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_a_planted_wrong_answer_fails_the_check(name, tmp_path):
    module = importlib.import_module(f"perfbench.{name}")
    workload = module.Workload(1, tmp_path, tiny=True)
    try:
        records = [workload.run_item(index) for index in range(4)]
        verdicts, problems = workload.check(records)
        assert verdicts == [harness.OK] * 4
        assert problems == []
        records[3] = plant_wrong_answer(name, records[3])
        records.append(harness.Failure("KeyError: planted"))
        verdicts, _ = workload.check(records)
        assert verdicts == [harness.OK] * 3 + [harness.WRONG, harness.FAILED]
    finally:
        workload.close()


class Flaky:
    """A workload whose third item raises."""

    round = 1
    trace_prefix = 1

    def run_item(self, index):
        if index == 2:
            raise KeyError("ground truth has no tuple with that key")
        return index


def test_an_item_that_raises_is_counted_and_the_loop_goes_on():
    records, latencies, _, _ = harness._timed_loop(Flaky(), 0.0, None)
    assert len(records) == len(latencies) == harness.TAIL_BEYOND + 1
    assert isinstance(records[2], harness.Failure)
    assert "KeyError" in records[2].error
    assert records[3] == 3


def test_the_timed_phase_ends_when_the_inputs_are_used_up():
    workload = Flaky()
    workload.capacity = 12
    records, _, _, _ = harness._timed_loop(workload, 3600.0, None)
    assert len(records) == 12


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "repair_bnb",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
