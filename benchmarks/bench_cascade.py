"""The cascade benchmark: tier economics and the honesty gates.

Runs seeded error scenarios (15 corpora x 1-5 injected errors) twice
each -- once with ``strategy="cascade"``, once with the exact MILP --
and enforces the cascade's three contractual gates:

- **coverage** -- on the e3-e5 slice (3+ injected errors), at least
  60% of violated ground rows are resolved without invoking the MILP;
- **honesty** -- ``misrepair_rate == 0``: every closed-form (T1) fix
  restores the injected source value exactly;
- **optimality** -- the cascade's final repair cardinality equals the
  exact backend's proven optimum on every scenario.

Results land in ``BENCH_cascade.json`` at the repository root --
per-tier resolution fractions, wall-clock for both strategies, and the
gate verdicts -- alongside ``BENCH_milp.json``, so both trajectories
are diffable from this PR onward.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_cascade.py

Exits non-zero if any gate fails.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.evalkit.metrics import misrepair_report
from repro.repair.cascade import TIERS
from repro.repair.engine import RepairEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_cascade.json"

N_SEEDS = 15
ERROR_COUNTS = range(1, 6)
#: The acceptance slice: scenarios with 3+ injected errors.
HARD_SLICE_MIN_ERRORS = 3
#: Coverage gate on the hard slice.
MIN_MILP_FREE_FRACTION = 0.60


def main() -> int:
    scenarios: List[Dict] = []
    totals = {
        "violations": 0,
        "resolved_without_milp": 0,
        "hard_violations": 0,
        "hard_resolved": 0,
        "closed_form_fixes": 0,
        "misrepairs": 0,
        "card_mismatches": 0,
        "milp_free_scenarios": 0,
        "cascade_wall": 0.0,
        "exact_wall": 0.0,
    }
    tier_resolved = {tier: 0 for tier in TIERS}

    for seed in range(N_SEEDS):
        workload = generate_cash_budget(n_years=2, seed=seed)
        for n_errors in ERROR_COUNTS:
            corrupted, injected = inject_value_errors(
                workload.ground_truth, n_errors, seed=seed + 1000
            )

            started = time.perf_counter()
            engine = RepairEngine(
                corrupted, workload.constraints, strategy="cascade"
            )
            outcome = engine.find_card_minimal_repair()
            cascade_wall = time.perf_counter() - started

            started = time.perf_counter()
            exact = RepairEngine(
                corrupted, workload.constraints
            ).find_card_minimal_repair()
            exact_wall = time.perf_counter() - started

            report = outcome.cascade
            assert report is not None
            audit = misrepair_report(report, injected)
            card_match = outcome.cardinality == exact.cardinality
            hard = n_errors >= HARD_SLICE_MIN_ERRORS

            totals["violations"] += report.n_violations
            totals["resolved_without_milp"] += report.resolved_without_milp
            if hard:
                totals["hard_violations"] += report.n_violations
                totals["hard_resolved"] += report.resolved_without_milp
            totals["closed_form_fixes"] += audit.n_closed_form
            totals["misrepairs"] += audit.n_misrepairs
            totals["card_mismatches"] += 0 if card_match else 1
            totals["milp_free_scenarios"] += 0 if report.milp_invoked else 1
            totals["cascade_wall"] += cascade_wall
            totals["exact_wall"] += exact_wall
            for stats in report.tiers:
                tier_resolved[stats.tier] += stats.resolved
            tier_resolved["t4-exact"] += report.n_residual

            scenarios.append(
                {
                    "seed": seed,
                    "n_errors": n_errors,
                    "hard_slice": hard,
                    "n_violations": report.n_violations,
                    "resolved_without_milp": report.resolved_without_milp,
                    "milp_invoked": report.milp_invoked,
                    "tiers": [stats.as_dict() for stats in report.tiers],
                    "closed_form_fixes": audit.n_closed_form,
                    "misrepairs": audit.n_misrepairs,
                    "cascade_cardinality": outcome.cardinality,
                    "exact_cardinality": exact.cardinality,
                    "cardinality_match": card_match,
                    "cascade_wall_time": cascade_wall,
                    "exact_wall_time": exact_wall,
                }
            )

    n_scenarios = len(scenarios)
    overall_fraction = (
        totals["resolved_without_milp"] / totals["violations"]
        if totals["violations"]
        else 1.0
    )
    hard_fraction = (
        totals["hard_resolved"] / totals["hard_violations"]
        if totals["hard_violations"]
        else 1.0
    )
    misrepair_rate = (
        totals["misrepairs"] / totals["closed_form_fixes"]
        if totals["closed_form_fixes"]
        else 0.0
    )
    speedup = totals["exact_wall"] / max(totals["cascade_wall"], 1e-9)

    gates = {
        "hard_slice_milp_free": {
            "value": hard_fraction,
            "threshold": MIN_MILP_FREE_FRACTION,
            "passed": hard_fraction >= MIN_MILP_FREE_FRACTION,
        },
        "misrepair_rate_zero": {
            "value": misrepair_rate,
            "threshold": 0.0,
            "passed": totals["misrepairs"] == 0,
        },
        "cardinality_matches_exact": {
            "value": totals["card_mismatches"],
            "threshold": 0,
            "passed": totals["card_mismatches"] == 0,
        },
    }

    print(
        f"{n_scenarios} scenarios ({N_SEEDS} seeds x "
        f"{len(list(ERROR_COUNTS))} error counts)"
    )
    print(
        f"MILP-free violations: overall "
        f"{totals['resolved_without_milp']}/{totals['violations']} "
        f"({overall_fraction:.1%}), e{HARD_SLICE_MIN_ERRORS}-e5 "
        f"{totals['hard_resolved']}/{totals['hard_violations']} "
        f"({hard_fraction:.1%}, gate {MIN_MILP_FREE_FRACTION:.0%})"
    )
    print(
        f"MILP-free scenarios: {totals['milp_free_scenarios']}/{n_scenarios} "
        f"({totals['milp_free_scenarios'] / n_scenarios:.1%})"
    )
    total_rows = sum(tier_resolved.values())
    for tier in TIERS:
        share = tier_resolved[tier] / total_rows if total_rows else 0.0
        print(f"  {tier:14s} resolved {tier_resolved[tier]:4d} rows ({share:.1%})")
    print(
        f"closed-form fixes: {totals['closed_form_fixes']}, "
        f"misrepairs: {totals['misrepairs']} "
        f"(rate {misrepair_rate:.4f}, gate 0)"
    )
    print(
        f"cardinality mismatches vs exact: {totals['card_mismatches']} "
        f"(gate 0)"
    )
    print(
        f"wall-clock: cascade {totals['cascade_wall']:.2f}s, "
        f"exact {totals['exact_wall']:.2f}s ({speedup:.2f}x)"
    )

    failed = [name for name, gate in gates.items() if not gate["passed"]]
    for name in failed:
        print(f"GATE FAILED: {name}: {gates[name]}", file=sys.stderr)

    payload = {
        "benchmark": "repair_cascade",
        "n_seeds": N_SEEDS,
        "error_counts": list(ERROR_COUNTS),
        "hard_slice_min_errors": HARD_SLICE_MIN_ERRORS,
        "overall_milp_free_fraction": overall_fraction,
        "hard_slice_milp_free_fraction": hard_fraction,
        "milp_free_scenarios": totals["milp_free_scenarios"],
        "n_scenarios": n_scenarios,
        "tier_resolved": tier_resolved,
        "closed_form_fixes": totals["closed_form_fixes"],
        "misrepairs": totals["misrepairs"],
        "misrepair_rate": misrepair_rate,
        "cardinality_mismatches": totals["card_mismatches"],
        "cascade_wall_time": totals["cascade_wall"],
        "exact_wall_time": totals["exact_wall"],
        "speedup_vs_exact": speedup,
        "gates": gates,
        "scenarios": scenarios,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
