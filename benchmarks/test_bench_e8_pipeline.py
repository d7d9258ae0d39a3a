"""E8 -- the full pipeline at scale (§7 future work).

The paper closes with: "A more extensive experimental evaluation of
system effectiveness will be accomplished on larger data sets".  This
bench is that evaluation: hierarchical balance sheets of growing size
run through the COMPLETE pipeline -- document rendering, OCR noise,
HTML parsing, wrapping with msi repair, database generation,
MILP repair and the supervised validation loop -- measuring per-stage
wall-clock and end-to-end recovery.

Reported series (shape targets):

- stage times grow with the document; wrap time per tuple still rises
  with the sheet, because each OCR-garbled label scans a dictionary
  that grows with it (a clean label is one index lookup);
- recovery stays at 1.0: the supervised loop is sound at every size;
- operator inspections stay proportional to the injected error count,
  not to the document size -- the paper's economic argument survives
  scaling.

The timed kernel is one mid-size end-to-end session.
"""

import time

import pytest

from _common import report
from repro.acquisition import OcrChannel
from repro.core import DartSystem, balance_sheet_scenario
from repro.datasets import generate_balance_sheet
from repro.evalkit import ascii_table
from repro.wrapping import DatabaseGenerator, Wrapper

SHAPES = [
    # (depth, branching) -> 3 * (branching^depth subtree) items per sheet
    (1, 2),
    (2, 2),
    (2, 3),
    (3, 2),
    (3, 3),
]
NOISE = dict(numeric_error_rate=0.04, string_error_rate=0.04)


def run_pipeline(depth: int, branching: int, seed: int):
    workload = generate_balance_sheet(
        depth=depth, branching=branching, seed=seed
    )
    scenario = balance_sheet_scenario(workload)
    channel = OcrChannel(seed=seed, **NOISE)
    system = DartSystem(scenario, ocr_channel=channel)

    timings = {}
    started = time.perf_counter()
    acquisition = system.acquisition_module.acquire(scenario.document)
    timings["acquire"] = time.perf_counter() - started

    started = time.perf_counter()
    wrapping = system.wrapper.wrap_html(acquisition.html)
    timings["wrap"] = time.perf_counter() - started

    started = time.perf_counter()
    generation = system.generator.generate(wrapping.instances, skip_failures=True)
    timings["generate"] = time.perf_counter() - started

    from repro.repair import OracleOperator, RepairEngine, ValidationLoop

    started = time.perf_counter()
    engine = RepairEngine(generation.database, scenario.constraints)
    violations = engine.violations()
    timings["detect"] = time.perf_counter() - started

    inspections = 0
    started = time.perf_counter()
    if violations:
        operator = OracleOperator(
            scenario.ground_truth, acquired=generation.database
        )
        session = ValidationLoop(engine, operator).run()
        final = session.repaired_database
        inspections = session.values_inspected
    else:
        final = generation.database
    timings["repair+validate"] = time.perf_counter() - started

    return {
        "tuples": workload.ground_truth.total_tuples(),
        "errors": len(acquisition.injected_errors),
        "recovered": final == workload.ground_truth,
        "inspections": inspections,
        "timings": timings,
    }


def test_bench_e8_pipeline(benchmark):
    rows = []
    for depth, branching in SHAPES:
        result = run_pipeline(depth, branching, seed=depth * 10 + branching)
        timings = result["timings"]
        rows.append(
            [
                f"d={depth} b={branching}",
                result["tuples"],
                result["errors"],
                f"{timings['acquire'] * 1000:.0f}",
                f"{timings['wrap'] * 1000:.0f}",
                f"{timings['wrap'] * 1000 / result['tuples']:.2f}",
                f"{timings['generate'] * 1000:.0f}",
                f"{timings['detect'] * 1000:.0f}",
                f"{timings['repair+validate'] * 1000:.0f}",
                result["inspections"],
                result["recovered"],
            ]
        )
        assert result["recovered"], (depth, branching)
    table = ascii_table(
        [
            "shape",
            "tuples",
            "OCR errors",
            "acquire (ms)",
            "wrap (ms)",
            "wrap (ms/tuple)",
            "generate (ms)",
            "detect (ms)",
            "repair+validate (ms)",
            "inspections",
            "recovered",
        ],
        rows,
        title=(
            "E8: full-pipeline scaling on hierarchical balance sheets\n"
            "(the 'larger data sets' evaluation Section 7 defers to future "
            "work; OCR rates 4%/4%)"
        ),
    )
    report("e8_pipeline", table)

    benchmark(lambda: run_pipeline(2, 2, seed=22))
