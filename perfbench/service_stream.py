"""service_stream: a closed loop of requests against ``RepairService``.

One client sends a request and waits for its answer before sending the
next: ``submit``, ``process_pending``, ``result``.  The service runs the
cascade strategy over a durable result store (SQLite WAL,
``synchronous=NORMAL``) and a checkpoint journal (one fsync per
record).  Set-up pre-fills the store from :data:`STORE_POOL` documents
through a first service instance, as earlier traffic would have, then
opens the timed instance on the same store.

A round of ten requests (:data:`PATTERN`) is one fresh document, three
documents from the pre-filled pool and six repeats of the request just
before.  The memory tier holds :data:`CACHE_SIZE` solutions, fewer than
the pool has documents, so a pool document has always left memory when
its turn comes again and is read from the store; a repeat is read from
memory; a fresh document runs the cascade, a MILP solve of its residue
and a store write.  Every request is journalled.  Reads are nine in ten,
so the median is a read and the tail a write.

Documents are two-year cash budgets with :data:`N_ERRORS` injected
errors.  With 2-4 errors the cascade resolves nearly every document
before the MILP (none of 60 documents with 2 or 3 errors reached it), so
the store would see no traffic at all.
"""

from __future__ import annotations

import os
import random
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.acquisition import inject_value_errors
from repro.constraints import check_consistency
from repro.datasets import generate_cash_budget
from repro.repair import BatchItemResult, Repair, RepairTask, apply_repair
from repro.repair.service import RepairService, ServiceConfig

from perfbench.harness import FAILED, OK, WRONG, Failure

CACHE_SIZE = 16
STORE_POOL = 32
#: Fresh documents made at set-up.  A fresh document is never sent
#: twice -- the second time it would be a read -- so the timed phase
#: ends when they are used up.  500 covers 5000 requests, 2.7 times the
#: most a 30 s run has served (1860).
FRESH_POOL = 500
YEARS = 2
N_ERRORS = 8
PATTERN = (
    "fresh", "repeat", "pool", "repeat", "repeat",
    "pool", "repeat", "pool", "repeat", "repeat",
)
#: Statuses that mean the service refused the request.
REFUSED = ("overloaded", "breaker_open")


def make_task(rng: random.Random, name: str) -> RepairTask:
    seed = rng.randrange(1 << 30)
    workload = generate_cash_budget(n_years=YEARS, seed=seed)
    database, _ = inject_value_errors(workload.ground_truth, N_ERRORS, seed=seed)
    return RepairTask(database=database, constraints=workload.constraints, name=name)


def request(service: RepairService, task: RepairTask) -> BatchItemResult:
    """One request: submit, work the queue, read the answer."""
    ticket = service.submit(task)
    service.process_pending()
    return service.result(ticket)


def config(workdir: Path, journal: bool) -> ServiceConfig:
    return ServiceConfig(
        store=str(workdir / "results.db"),
        checkpoint=str(workdir / "journal.jsonl") if journal else None,
        strategy="cascade",
        cache_size=CACHE_SIZE,
    )


class Workload:
    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        rng = random.Random(f"service_stream/{seed}")
        self.pool = [make_task(rng, f"pool-{k}") for k in range(4 if tiny else STORE_POOL)]
        self.fresh = [make_task(rng, f"fresh-{k}") for k in range(4 if tiny else FRESH_POOL)]
        self.store_path = workdir / "results.db"
        self.problems: List[str] = []
        #: Document name -> the repair of its first solve.
        self.first: Dict[str, Repair] = {}
        workdir.mkdir(parents=True, exist_ok=True)
        with RepairService(config(workdir, journal=False)) as filler:
            for task in self.pool:
                result = request(filler, task)
                if result.status == "repaired":
                    self.first[task.name] = result.repair
                else:
                    self.problems.append(f"pre-fill of {task.name}: {result.status}")
        self.service = RepairService(config(workdir, journal=True))
        warm = make_task(random.Random(f"service_stream/warm-up/{seed}"), "warm-up")
        request(self.service, warm)
        request(self.service, warm)
        self.round = len(PATTERN)
        self.capacity = self.round * len(self.fresh) // PATTERN.count("fresh")
        self.trace_prefix = self.round * (1 if tiny else 10)
        self._last: Optional[RepairTask] = None
        self._served = {"pool": 0, "fresh": 0}

    def run_item(self, index: int) -> Tuple[RepairTask, BatchItemResult]:
        kind = PATTERN[index % len(PATTERN)]
        if kind == "repeat":
            task = self._last
        else:
            if kind == "pool":
                task = self.pool[self._served[kind] % len(self.pool)]
            else:
                task = self.fresh[self._served[kind]]
            self._served[kind] += 1
        self._last = task
        return task, request(self.service, task)

    def check(self, records: List) -> tuple:
        verdicts = []
        first = dict(self.first)
        names = []
        for record in records:
            if isinstance(record, Failure):
                verdicts.append(FAILED)
                names.append(None)
                continue
            task, result = record
            names.append(task.name)
            if result.status != "repaired" or result.certified is not True:
                verdicts.append(FAILED)
                continue
            expected = first.setdefault(task.name, result.repair)
            verdicts.append(OK if result.repair == expected else WRONG)
        tasks = {task.name: task for task in [*self.pool, *self.fresh]}
        invalid = {
            name for name, repair in first.items()
            if check_consistency(
                apply_repair(tasks[name].database, repair), tasks[name].constraints
            )
        }
        verdicts = [
            WRONG if verdict == OK and name in invalid else verdict
            for verdict, name in zip(verdicts, names)
        ]
        problems = list(self.problems)
        problems += [f"first repair of {name} is not a repair" for name in invalid]
        report = self.service.integrity_report()
        if report is None or not report.ok:
            problems.append(f"store integrity: {report}")
        return verdicts, problems

    def layer_metrics(self, records: List) -> Dict[str, float]:
        size = sum(
            os.path.getsize(path)
            for path in (self.store_path, Path(f"{self.store_path}-wal"))
            if path.exists()
        )
        refused = sum(
            1 for record in records
            if not isinstance(record, Failure) and record[1].status in REFUSED
        )
        return {
            "store.bytes_per_row": size / len(self.service.store),
            "service.refused": refused,
        }

    def close(self) -> None:
        self.service.close()
