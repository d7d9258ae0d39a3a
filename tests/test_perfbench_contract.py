"""The program surface the end-to-end benchmark (``perfbench/``) relies on.

``perfbench/tracing.py`` wraps entry points of the program from outside
and reads :class:`~repro.milp.solver.SolveStats` fields off every
solve; its workloads build the program's objects with the constructors
and options they name.  A change that renames or deletes any of them
leaves the benchmark unable to run, so these tests pin that surface:
every entry point resolves, the tracer puts every original back, a real
solve's stats carry every field the solve counter reads, and every
workload sets up and answers two items correctly at its tiny size.  The
tests only read ``perfbench/``.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect

import pytest

from perfbench import harness, tracing
from repro.milp.model import MILPModel, VarType
from repro.milp.solver import SolveStats, solve_with_stats


ENTRY_POINTS = [(entry[0], entry[1]) for entry in tracing.ENTRY_POINTS]


@pytest.mark.parametrize("module_name, dotted", ENTRY_POINTS)
def test_entry_point_resolves(module_name, dotted):
    owner, attribute = tracing._resolve(module_name, dotted)
    # Tracer.install reads the attribute from the owner's own namespace.
    assert attribute in vars(owner), f"{module_name}:{dotted} is gone"
    assert callable(vars(owner)[attribute])


def test_install_then_uninstall_restores_the_originals():
    originals = {}
    for key in ENTRY_POINTS:
        owner, attribute = tracing._resolve(*key)
        originals[key] = (owner, attribute, vars(owner)[attribute])
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for key, (owner, attribute, original) in originals.items():
            assert vars(owner)[attribute] is not original, key
    finally:
        tracer.uninstall()
    for key, (owner, attribute, original) in originals.items():
        assert vars(owner)[attribute] is original, key


def solve_counter_fields():
    """The ``stats.<field>`` names ``tracing._solve`` reads."""
    tree = ast.parse(inspect.getsource(tracing._solve))
    return sorted(
        {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "stats"
        }
    )


def test_solve_stats_has_every_field_the_solve_counter_reads():
    fields = solve_counter_fields()
    assert "nodes" in fields and "cache_hit" in fields
    defined = {field.name for field in dataclasses.fields(SolveStats)}
    assert set(fields) <= defined, set(fields) - defined

    model = MILPModel("contract")
    x = model.add_variable("x", VarType.INTEGER, lower=0, upper=10)
    model.add_constraint(2 * x <= 5)
    model.set_objective(-x)
    solution, stats = solve_with_stats(model, backend="bnb")
    assert solution.objective == pytest.approx(-2.0)
    counts = tracing._solve((solution, stats), ())
    assert counts["nodes"] == stats.nodes > 1
    assert counts["cuts"] == 0


@pytest.mark.parametrize("name", harness.WORKLOADS)
def test_workload_runs_two_items_correctly(name, tmp_path):
    workload = importlib.import_module(f"perfbench.{name}").Workload(
        1, tmp_path, tiny=True
    )
    try:
        records = [workload.run_item(index) for index in range(2)]
        verdicts, problems = workload.check(records)
    finally:
        workload.close()
    assert verdicts == [harness.OK, harness.OK]
    assert problems == []
