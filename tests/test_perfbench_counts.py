"""``benchmarks/check_perfbench_counts.py``: the traced-count gate.

The gate compares a traced perfbench run's deterministic counts with
``benchmarks/perfbench_counts.json``.  These tests feed it result lines
built from the committed counts, so they need no perfbench run.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
_spec = importlib.util.spec_from_file_location(
    "check_perfbench_counts", BENCHMARKS / "check_perfbench_counts.py"
)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

RECORDED = json.loads((BENCHMARKS / "perfbench_counts.json").read_text())["counts"]


def result_line(tmp_path, **changes):
    """A result line holding the recorded counts and some unlocked ones."""
    metrics = {
        key: {"value": value, "unit": "count"} for key, value in RECORDED.items()
    }
    metrics["sheets_pipeline.wrapping.wrap_busy_ms"] = {"value": 21.6, "unit": "ms/item"}
    metrics["sheets_pipeline.milp.nodes"] = {"value": 10, "unit": "count"}
    for key, value in changes.items():
        metrics[key.replace("__", ".")]["value"] = value
    path = tmp_path / "trace1.json"
    path.write_text(json.dumps({"correct": True, "metrics": metrics}))
    return str(path)


def test_recorded_counts_are_counts_of_locked_metrics():
    assert RECORDED
    assert all(gate._locked(key) for key in RECORDED)
    assert not gate._locked("sheets_pipeline.milp.nodes")
    assert not gate._locked("repair_bnb.constraints.violations")


def test_equal_counts_pass_and_times_are_not_locked(tmp_path, capsys):
    path = result_line(tmp_path, sheets_pipeline__wrapping__wrap_busy_ms=99.0)
    assert gate.main([path]) == 0
    assert f"{len(RECORDED)} counts equal" in capsys.readouterr().out


def test_every_moved_count_is_named(tmp_path, capsys):
    path = result_line(
        tmp_path,
        sheets_pipeline__constraints__violations=24,
        service_stream__cache__hit_ratio=0.5,
    )
    assert gate.main([path]) == 1
    out = capsys.readouterr().out
    assert "sheets_pipeline.constraints.violations: 23 -> 24" in out
    assert "service_stream.cache.hit_ratio: 0.908163 -> 0.5" in out
    assert out.count("FAIL") == 2


def test_write_records_the_run(tmp_path, monkeypatch):
    baseline = tmp_path / "counts.json"
    monkeypatch.setattr(gate, "BASELINE", baseline)
    path = result_line(tmp_path, sheets_pipeline__wrapping__rows=541)
    assert gate.main([path, "--write"]) == 0
    written = json.loads(baseline.read_text())["counts"]
    assert written == {**RECORDED, "sheets_pipeline.wrapping.rows": 541}
