"""The repair-service benchmark: cold vs warm store economics.

Runs one corpus through the durable :class:`~repro.repair.service.
RepairService` twice against the same result store:

- **cold** -- a fresh store: every unique document pays full MILP cost,
  duplicates within the run hit the in-memory tier;
- **warm** -- a fresh *service* (new process state, empty memory tier)
  over the now-populated store: the entire corpus must come back as
  disk hits, with **zero** MILP solves and bitwise-identical repairs.

The gated quantity is ``warm_hit_rate`` -- the fraction of warm-run
solve requests served from cache (memory or store).  Its committed
baseline is 1.0 by construction; any drop means the store stopped
admitting or serving certified results, which is a correctness
regression dressed as a perf number, so ``check_bench_regression.py``
gates it like a speedup geomean (>10% drop fails -- in practice any
drop at all trips the gate, since the ceiling is 1.0).

Intake latency (p50/p99 of submit -> dispatch, milliseconds) is
reported for trend-watching but not gated: it is absolute wall time
and CI runners are too noisy to gate on it honestly.

Results land in ``BENCH_service.json`` at the repository root, with a
per-backend ``summary`` that ``check_bench_regression.py`` reads.

Run directly (CI does)::

    PYTHONPATH=src python benchmarks/bench_service.py

Exits non-zero when the warm run solved anything, when repairs differ
between runs, or when the store finishes its integrity scan dirty.
"""

from __future__ import annotations

import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

from repro.acquisition.ocr import inject_value_errors
from repro.datasets import generate_cash_budget
from repro.repair.batch import RepairTask
from repro.repair.service import RepairService, ServiceConfig

#: Unique corrupted documents in the corpus; two duplicates ride along.
N_UNIQUE = 6
N_ERRORS = 2
SEED = 20260809


def build_corpus() -> List[RepairTask]:
    workload = generate_cash_budget(n_years=2, seed=SEED)
    databases = []
    for offset in range(N_UNIQUE):
        corrupted, _ = inject_value_errors(
            workload.ground_truth, N_ERRORS, seed=SEED + offset
        )
        databases.append(corrupted)
    databases.append(databases[0].copy())
    databases.append(databases[1].copy())
    return [
        RepairTask(
            database=database,
            constraints=workload.constraints,
            name=f"doc{index}",
        )
        for index, database in enumerate(databases)
    ]


def run_once(store_path: str, label: str) -> Dict:
    service = RepairService(ServiceConfig(store=store_path))
    try:
        tasks = build_corpus()
        started = time.perf_counter()
        tickets = [service.submit(task) for task in tasks]
        service.process_pending()
        wall = time.perf_counter() - started
        results = [service.result(ticket) for ticket in tickets]
        cache = service.cache.info()
        integrity = service.integrity_report()
        return {
            "label": label,
            "wall_time": wall,
            "n_tasks": len(tasks),
            "statuses": [result.status for result in results],
            "repairs": [str(result.repair) for result in results],
            "cache_hits": cache.hits,
            "cache_misses": cache.misses,
            "store_hits": cache.store_hits,
            "hit_rate": cache.hit_rate,
            "intake_p50_ms": service.intake_latency(0.50) * 1000.0,
            "intake_p99_ms": service.intake_latency(0.99) * 1000.0,
            "store_rows": None if service.store is None else len(service.store),
            "integrity_ok": integrity.ok if integrity is not None else None,
        }
    finally:
        service.close()


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        store_path = str(Path(tmp) / "results.db")
        cold = run_once(store_path, "cold")
        warm = run_once(store_path, "warm")

    repairs_match = cold["repairs"] == warm["repairs"]
    payload = {
        "benchmark": "service",
        "corpus": {"unique": N_UNIQUE, "duplicates": 2, "seed": SEED},
        "scenarios": [cold, warm],
        "summary": {
            "service": {
                "cold_hit_rate": cold["hit_rate"],
                "warm_hit_rate": warm["hit_rate"],
                "warm_misses": float(warm["cache_misses"]),
                "warm_store_hits": float(warm["store_hits"]),
                "intake_p50_ms": warm["intake_p50_ms"],
                "intake_p99_ms": warm["intake_p99_ms"],
            }
        },
        "all_objectives_match": repairs_match,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_service.json"
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    print(
        f"cold: {cold['cache_misses']} solve(s), hit rate "
        f"{cold['hit_rate']:.2f}, {cold['wall_time'] * 1000:.1f} ms"
    )
    print(
        f"warm: {warm['cache_misses']} solve(s), hit rate "
        f"{warm['hit_rate']:.2f}, {warm['wall_time'] * 1000:.1f} ms, "
        f"intake p50 {warm['intake_p50_ms']:.2f} ms / "
        f"p99 {warm['intake_p99_ms']:.2f} ms"
    )

    failures = []
    if warm["cache_misses"] != 0:
        failures.append(
            f"warm run solved {warm['cache_misses']} task(s); expected 0"
        )
    if not repairs_match:
        failures.append("warm repairs differ from cold repairs")
    for run in (cold, warm):
        if run["integrity_ok"] is not True:
            failures.append(f"{run['label']} run left the store dirty")
        if any(status != "repaired" for status in run["statuses"]):
            failures.append(f"{run['label']} run statuses: {run['statuses']}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
