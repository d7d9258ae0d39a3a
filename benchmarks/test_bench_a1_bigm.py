"""A1 (ablation) -- the Big-M bound (Section 5, footnote 3).

The paper's correctness argument uses the Papadimitriou bound
M = n(ma)^(2m+1), whose *size in bits* is polynomial but whose value
is astronomically large -- for the 20-value running example it is
~1.4e219.  Any floating-point MILP solver needs a much smaller M, and
the link rows y_i <= M delta_i get numerically looser (and the LP
relaxation weaker) as M grows.

This bench quantifies the trade-off on a fixed 4-year workload:

- the theoretical M (reported exactly, in bits -- it cannot be solved
  with);
- the practical data-dependent M and inflations of it (x10^2..x10^6):
  solve time and branch-and-bound node counts for the from-scratch
  backend, plus correctness of the returned cardinality at every M.

A last row times the engine's own repair on the from-scratch backend,
``RepairEngine(backend="bnb")``: the core-guided loop of
``repro.repair.cores`` builds no ``S*(AC)``, so there is no M to
inflate, and it returns the optimum.

Reproduction target (shape): at the practical M the from-scratch
solver returns the true optimum; as M is inflated the link rows go
numerically degenerate (a delta of 1e-8 is "integral" within solver
tolerance) and *optimality degrades* -- returned repairs stay valid
(they are verified against the constraints) but may touch more cells
than necessary.  This is the classical big-M pathology and exactly why
the engine uses the tightest safe data-dependent bound rather than
anything resembling the theoretical constant.

The timed kernel is the repair at the practical M.
"""

import time

import pytest

from _common import report
from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.evalkit import ascii_table
from repro.milp import solve
from repro.repair import (
    BigMStrategy,
    RepairEngine,
    practical_big_m,
    theoretical_big_m,
    translate,
)

INFLATIONS = [1.0, 1e2, 1e4, 1e6]


def build_case():
    workload = generate_cash_budget(n_years=4, seed=17)
    corrupted, _ = inject_value_errors(workload.ground_truth, 3, seed=17)
    return workload, corrupted


def test_bench_a1_bigm(benchmark):
    workload, corrupted = build_case()
    engine = RepairEngine(corrupted, workload.constraints)
    grounds = engine.ground_system
    base_translation = translate(
        corrupted, workload.constraints, grounds=grounds
    )
    base_m = base_translation.big_m

    n_cells = base_translation.n
    theoretical = theoretical_big_m(
        2 * n_cells + len(grounds),
        n_cells + len(grounds),
        int(max(abs(v) for v in base_translation.values)),
    )

    # The true optimum, from the verified production path.
    reference_cardinality = engine.find_card_minimal_repair().cardinality

    rows = [
        [
            "theoretical (paper)",
            f"~1e{len(str(theoretical)) - 1}",
            "-",
            "-",
            "unusable in float64",
        ]
    ]
    optimal_flags = {}
    for inflation in INFLATIONS:
        m_value = base_m * inflation
        translation = translate(
            corrupted,
            workload.constraints,
            strategy=BigMStrategy.FIXED,
            big_m=m_value,
            grounds=grounds,
        )
        started = time.perf_counter()
        solution = solve(translation.model, backend="bnb")
        elapsed = time.perf_counter() - started
        repair = translation.extract_repair(solution)
        # Whatever the numerics, a returned repair must BE a repair.
        assert engine.is_repair(repair)
        optimal = repair.cardinality == reference_cardinality
        optimal_flags[inflation] = optimal
        label = "practical" if inflation == 1.0 else f"practical x{inflation:g}"
        rows.append(
            [
                label,
                f"{m_value:.3g}",
                f"{elapsed * 1000:.1f}",
                f"{solution.stats.get('nodes', 0):.0f}",
                f"cardinality {repair.cardinality}"
                + ("" if optimal else f" (optimum {reference_cardinality} LOST)"),
            ]
        )
    core_engine = RepairEngine(corrupted, workload.constraints, backend="bnb")
    started = time.perf_counter()
    core_outcome = core_engine.find_card_minimal_repair()
    elapsed = time.perf_counter() - started
    assert core_outcome.cardinality == reference_cardinality
    rows.append(
        [
            "engine, bnb (core loop)",
            "none",
            f"{elapsed * 1000:.1f}",
            f"{sum(s.nodes for s in core_engine.solve_stats)}",
            f"cardinality {core_outcome.cardinality} at every M (no M)",
        ]
    )
    table = ascii_table(
        ["Big-M regime", "M value", "solve (ms)", "B&B nodes", "outcome"],
        rows,
        title=(
            "A1: Big-M ablation (4-year cash budget, 3 errors, own B&B "
            "backend; last row: the engine's core loop)\n"
            "tight M preserves the optimum; inflating M degenerates the link "
            "rows (the classical big-M pathology)"
        ),
    )
    report("a1_bigm", table)

    # The practical bound must be exact; results stay valid repairs at
    # every M (asserted above) even where optimality is lost.
    assert optimal_flags[1.0]

    benchmark(
        lambda: solve(
            translate(
                corrupted,
                workload.constraints,
                strategy=BigMStrategy.FIXED,
                big_m=base_m,
                grounds=grounds,
            ).model,
            backend="bnb",
        )
    )
