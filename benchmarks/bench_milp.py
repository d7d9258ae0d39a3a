"""The MILP hot-path benchmark: the tracked perf trajectory.

Runs every scenario on both branch-and-bound backends with the solver
defaults -- warm starts (simplex backend), pseudo-cost branching,
Dantzig pricing, heuristic incumbent seeding, the CSR core (revised
simplex / persistent HiGHS node LPs) -- and records
objective, nodes, pivots and wall-clock per (scenario, backend).
Wall-clock is whatever the host gives us; the node/pivot counts are
deterministic and the real regression signal.
``check_bench_regression.py`` gates them, and the objectives, against
the committed baseline.

Every repair is certified (``repro.milp.certify``), so every record
also carries ``certify_replays``: the certificates of the repair that
the float pass left to the ``Fraction`` replay.  It is a deterministic
count, gated like nodes and pivots; its baseline is 0.

The B&B records time ``RepairEngine.find_big_m_repair``: the engine's
default path on these backends is now the core-guided loop of
``repro.repair.cores``, which builds no MILP.  Each (scenario, backend)
therefore also carries a ``core_loop`` record: the default repair's
best wall time, its cardinality, and the loop's deterministic counters
(master rounds, cores learned), gated like nodes and pivots.  Its
cardinality must equal the B&B objective.

Results land in ``BENCH_milp.json`` at the repository root
-- machine-readable, one entry per scenario -- so the trajectory is
diffable.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_milp.py

Exits non-zero if the core loop's cardinality differs from the B&B
objective.
"""

from __future__ import annotations

import json
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

#: How many timed repetitions per (scenario, backend); the minimum
#: wall time is recorded (robust to scheduler noise).
REPEATS = 3


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


def time_repair(database, constraints, backend: str) -> Dict:
    """The certified repair through the Big-M MILP and the branch and
    bound, best of REPEATS."""
    records = []
    for _ in range(REPEATS):
        engine = RepairEngine(database, constraints, backend=backend)
        started = time.perf_counter()
        outcome = engine.find_big_m_repair()
        elapsed = time.perf_counter() - started
        records.append(
            {
                "wall_time": elapsed,
                "nodes": sum(s.nodes for s in engine.solve_stats),
                "pivots": sum(s.simplex_pivots for s in engine.solve_stats),
                "objective": outcome.objective,
                "cardinality": outcome.cardinality,
                # Certificates the float pass left to the Fraction
                # replay: the solves' own and the document certificate.
                "certify_replays": sum(
                    s.certify_replays for s in engine.solve_stats
                )
                + int(outcome.certificate.replayed),
            }
        )
    return min(records, key=lambda record: record["wall_time"])


def time_core_loop(database, constraints, backend: str) -> Dict:
    """The engine's default (core-loop) repair, best of REPEATS."""
    records = []
    for _ in range(REPEATS):
        engine = RepairEngine(database, constraints, backend=backend)
        started = time.perf_counter()
        outcome = engine.find_card_minimal_repair()
        elapsed = time.perf_counter() - started
        [stats] = [s for s in engine.solve_stats if s.phase == "cores"]
        records.append(
            {
                "wall_time": elapsed,
                "cardinality": outcome.cardinality,
                "master_rounds": stats.master_rounds,
                "cores": stats.cores,
            }
        )
    return min(records, key=lambda record: record["wall_time"])


def main() -> int:
    results: List[Dict] = []
    diverged = False
    for name, database, constraints in scenarios():
        entry: Dict = {"scenario": name, "backends": {}}
        for backend in BACKENDS:
            record = time_repair(database, constraints, backend)
            cores = time_core_loop(database, constraints, backend)
            if cores["cardinality"] != round(record["objective"]):
                diverged = True
                print(
                    f"CARDINALITY DIVERGENCE: {name}/{backend}: core loop "
                    f"{cores['cardinality']} vs B&B {record['objective']}",
                    file=sys.stderr,
                )
            record["core_loop"] = cores
            entry["backends"][backend] = record
            print(
                f"{name:28s} {backend:12s} "
                f"{record['wall_time'] * 1000:9.2f} ms "
                f"({record['nodes']:5d} nodes, {record['pivots']:6d} pivots, "
                f"{record['certify_replays']} replays)"
                f"  core loop {cores['wall_time'] * 1000:7.2f} ms "
                f"({cores['master_rounds']} rounds, {cores['cores']} cores)"
            )
        results.append(entry)

    payload = {
        "benchmark": "milp_hot_path",
        "repeats": REPEATS,
        "scenarios": results,
        "all_objectives_match": not diverged,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUTPUT}")
    return 1 if diverged else 0


if __name__ == "__main__":
    raise SystemExit(main())
