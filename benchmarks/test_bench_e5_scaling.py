"""E5 -- size and solve time of the MILP translation (Section 5).

The paper notes (footnote 3) that the translation is polynomial in the
database size.  This bench measures the instance S*(AC) as the
document grows: number of involved values N, MILP rows / variables /
binaries, and the wall-clock time of the engine's repair on the
production backend (HiGHS via scipy, which solves S*(AC)) and on the
from-scratch backend ``bnb``, whose card-minimal repairs come from the
core-guided loop of ``repro.repair.cores`` (no S*(AC) at all: one
small loop per year of the budget).

Reproduction target (shape): rows and variables grow linearly in the
number of tuples (3 variables and ~3.4 rows per involved value for the
cash-budget constraint family); both paths stay exact (cardinality
parity is asserted at every size).

The timed kernel is the default-backend repair at the 8-year size.
"""

import time

import pytest

from _common import report
from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.evalkit import ascii_table
from repro.repair import RepairEngine

YEAR_COUNTS = [1, 2, 4, 8, 16]
N_ERRORS = 2


def build_case(n_years: int):
    workload = generate_cash_budget(n_years=n_years, seed=42)
    corrupted, _ = inject_value_errors(workload.ground_truth, N_ERRORS, seed=7)
    return workload, corrupted


def timed_repair(corrupted, constraints, backend: str):
    engine = RepairEngine(corrupted, constraints, backend=backend)
    started = time.perf_counter()
    outcome = engine.find_card_minimal_repair()
    elapsed = time.perf_counter() - started
    return outcome, elapsed


def test_bench_e5_scaling(benchmark):
    rows = []
    for n_years in YEAR_COUNTS:
        workload, corrupted = build_case(n_years)
        scipy_outcome, scipy_time = timed_repair(
            corrupted, workload.constraints, "scipy"
        )
        bnb_outcome, bnb_time = timed_repair(corrupted, workload.constraints, "bnb")
        assert scipy_outcome.cardinality == bnb_outcome.cardinality
        translation = scipy_outcome.translation
        model = translation.model
        rows.append(
            [
                n_years,
                corrupted.total_tuples(),
                translation.n,
                model.n_constraints,
                model.n_variables,
                model.n_binary,
                f"{scipy_time * 1000:.1f}",
                f"{bnb_time * 1000:.1f}",
            ]
        )
    table = ascii_table(
        [
            "years",
            "tuples",
            "N (involved values)",
            "MILP rows",
            "MILP vars",
            "binaries",
            "scipy/HiGHS on S*(AC) (ms)",
            "bnb core loop (ms)",
        ],
        rows,
        title=(
            "E5: S*(AC) size and repair time vs document size "
            f"(cash budgets, {N_ERRORS} injected errors)\n"
            "paper: the translation is polynomial in the database size "
            "(footnote 3); the in-repo backend's core loop builds no "
            "S*(AC) and reaches the same optimum"
        ),
    )
    report("e5_scaling", table)

    # Shape: linear growth of the instance in the tuple count.
    n_values = [row[2] for row in rows]
    tuples = [row[1] for row in rows]
    for n, t in zip(n_values, tuples):
        assert n == t  # every measure value is involved for this family
    vars_per_value = [row[4] / row[2] for row in rows]
    assert all(v == pytest.approx(3.0) for v in vars_per_value)

    workload, corrupted = build_case(8)
    engine = RepairEngine(corrupted, workload.constraints)
    benchmark(engine.find_card_minimal_repair)
