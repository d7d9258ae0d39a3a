"""The MILP hot-path benchmark: the tracked perf trajectory.

Runs every scenario on both branch-and-bound backends with the solver
defaults -- presolve, warm starts (simplex backend), pseudo-cost
branching, Dantzig pricing, heuristic incumbent seeding, the CSR core
(revised simplex / persistent HiGHS node LPs) and root + node cutting
planes -- and records objective, nodes, pivots and wall-clock per
(scenario, backend).  Wall-clock is whatever the host gives us; the
node/pivot counts are deterministic and the real regression signal.
``check_bench_regression.py`` gates them, and the objectives, against
the committed baseline.

The small/medium scenarios additionally time the exact-arithmetic
certification layer (``repro.milp.certify``): the same repair with
``certify=True`` vs ``certify=False``, summarised as
``certify_overhead_geomean`` per backend.  That ratio is gated by
``check_bench_regression.py`` against the committed baseline -- a
fresh overhead more than 10% above it fails, catching a certification
layer that has started taxing the hot path.

Results land in ``BENCH_milp.json`` at the repository root
-- machine-readable, one entry per scenario -- so the trajectory is
diffable.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_milp.py

Exits non-zero if certify-on and certify-off disagree on any
objective.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget, generate_catalog
from repro.repair.engine import RepairEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_milp.json"

BACKENDS = ["bnb", "bnb-simplex"]

#: How many timed repetitions per (scenario, backend, certify); the
#: minimum wall time is recorded (robust to scheduler noise).
REPEATS = 3

#: Scenarios excluded from the certify-overhead measurement.  The e5
#: scenarios dominate bench wall-clock and certification cost scales
#: with the same model size as the solve itself, so the small/medium
#: subset pins the overhead ratio at a fraction of the bench budget.
SKIP_CERTIFY = frozenset({"cash_budget_y3_e5", "catalog_c12_e5"})


def scenarios():
    """(name, corrupted database, constraints) triples, small to large."""
    cases = []
    for n_years, n_errors, seed in [(1, 2, 11), (2, 3, 23), (3, 4, 37), (3, 5, 43)]:
        workload = generate_cash_budget(n_years=n_years, seed=seed)
        corrupted, _ = inject_value_errors(
            workload.ground_truth, n_errors, seed=seed + 1
        )
        cases.append(
            (f"cash_budget_y{n_years}_e{n_errors}", corrupted, workload.constraints)
        )
    for n_categories, n_errors, seed in [(4, 2, 51), (8, 4, 67), (12, 5, 83)]:
        workload = generate_catalog(n_categories=n_categories, seed=seed)
        corrupted, _ = inject_value_errors(
            workload.ground_truth, n_errors, seed=seed + 1
        )
        cases.append(
            (f"catalog_c{n_categories}_e{n_errors}", corrupted, workload.constraints)
        )
    return cases


def time_repair(database, constraints, backend: str, certify: bool) -> Dict:
    """One timed default repair."""
    engine = RepairEngine(database, constraints, backend=backend, certify=certify)
    started = time.perf_counter()
    outcome = engine.find_card_minimal_repair()
    elapsed = time.perf_counter() - started
    return {
        "wall_time": elapsed,
        "nodes": sum(s.nodes for s in engine.solve_stats),
        "pivots": sum(s.simplex_pivots for s in engine.solve_stats),
        "objective": outcome.objective,
        "cardinality": outcome.cardinality,
    }


def best_records(
    database, constraints, backend: str, certify_modes, repeats: int = REPEATS
) -> Dict[bool, Dict]:
    """Best-of-*repeats* record per certify mode.

    The modes alternate within each repeat, so both sides of the
    certify on/off ratio see the same host state.
    """
    runs: Dict[bool, List[Dict]] = {certify: [] for certify in certify_modes}
    for _ in range(repeats):
        for certify in certify_modes:
            runs[certify].append(
                time_repair(database, constraints, backend, certify)
            )
    return {
        certify: min(records, key=lambda record: record["wall_time"])
        for certify, records in runs.items()
    }


def _geomean(ratios: List[float]) -> float:
    return math.exp(statistics.fmean(math.log(r) for r in ratios))


def main() -> int:
    results: List[Dict] = []
    diverged = False
    for name, database, constraints in scenarios():
        entry: Dict = {"scenario": name, "backends": {}}
        for backend in BACKENDS:
            # certify=False: the record tracks the *solver* trajectory;
            # certification's own cost is the on/off ratio below.
            modes = (False,) if name in SKIP_CERTIFY else (False, True)
            best = best_records(database, constraints, backend, modes)
            record: Dict = best[False]
            overhead = ""
            if True in best:
                certified = best[True]
                # Certification is verification-only and never changes
                # the answer on a clean instance.
                match = abs(certified["objective"] - record["objective"]) <= 1e-9
                if not match:
                    diverged = True
                    print(
                        f"OBJECTIVE DIVERGENCE: {name}/{backend}: "
                        "certify-on vs certify-off",
                        file=sys.stderr,
                    )
                record["certify"] = {
                    "certified_wall_time": certified["wall_time"],
                    "certify_overhead": certified["wall_time"]
                    / max(record["wall_time"], 1e-9),
                    "objectives_match": match,
                }
                overhead = f"  certify {record['certify']['certify_overhead']:5.2f}x"
            entry["backends"][backend] = record
            print(
                f"{name:28s} {backend:12s} "
                f"{record['wall_time'] * 1000:9.2f} ms "
                f"({record['nodes']:5d} nodes, {record['pivots']:6d} pivots)"
                f"{overhead}"
            )
        results.append(entry)

    summary = {}
    for backend in BACKENDS:
        certify_ratios = [
            entry["backends"][backend]["certify"]["certify_overhead"]
            for entry in results
            if "certify" in entry["backends"][backend]
        ]
        summary[backend] = {
            "certify_overhead_geomean": _geomean(certify_ratios),
        }
        print(
            f"{backend}: certify overhead geomean "
            f"{summary[backend]['certify_overhead_geomean']:.2f}x"
        )

    payload = {
        "benchmark": "milp_hot_path",
        "repeats": REPEATS,
        "scenarios": results,
        "summary": summary,
        "all_objectives_match": not diverged,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 1 if diverged else 0


if __name__ == "__main__":
    raise SystemExit(main())
