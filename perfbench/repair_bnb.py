"""repair_bnb: exact card-minimal repairs on the in-repo branch and bound.

An item is ``RepairEngine(..., backend="bnb").find_card_minimal_repair()``
on one pre-corrupted document, with the exact strategy and
certification on.  The MILP core (``solve_with_stats``) does nearly all
the work and wrapping, cascade and store do none: this is the workload
for the LP core and for the minimality certificate.

A round is one document of every (kind, error count) pair of
:data:`KINDS` x :data:`ERRORS`, so every run measures the same mix.
Error counts stop at 3.  From 4 injected errors on, one document's B&B
time varies by 0.4-0.8 of its mean, and that mean is 3-10x the 2-error
one, so the few slowest documents of a seed decided a run's tail.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.acquisition import inject_value_errors
from repro.constraints import AggregateConstraint, check_consistency
from repro.datasets import generate_balance_sheet, generate_cash_budget
from repro.relational.database import Database
from repro.repair import Repair, RepairEngine, apply_repair

from perfbench.harness import FAILED, OK, WRONG, Failure

#: Document generators, seed -> workload with a ground truth.
KINDS: Sequence[Callable] = (
    lambda seed: generate_cash_budget(n_years=3, seed=seed),
    lambda seed: generate_cash_budget(n_years=4, seed=seed),
    lambda seed: generate_balance_sheet(depth=2, branching=2, seed=seed),
)
ERRORS = (2, 3)
#: Rounds of distinct documents made at set-up; the loop cycles after.
#: No cache outlives an item here, so a document's second pass costs
#: what its first did.
ROUNDS = 100


@dataclass
class Case:
    database: Database
    constraints: List[AggregateConstraint]
    injected: int


def make_case(rng: random.Random, generate: Callable, n_errors: int) -> Case:
    seed = rng.randrange(1 << 30)
    workload = generate(seed)
    database, injected = inject_value_errors(
        workload.ground_truth, n_errors, seed=seed
    )
    return Case(database, workload.constraints, len(injected))


@dataclass
class Answer:
    """What ``check`` needs of an outcome; the solver artefacts are let go
    so that memory does not grow with the number of items timed."""

    repair: Repair
    certified: Optional[bool]
    has_certificate: bool


def repair(case: Case) -> Answer:
    """One item: a certified card-minimal repair on the bnb backend."""
    engine = RepairEngine(case.database, case.constraints, backend="bnb")
    outcome = engine.find_card_minimal_repair()
    return Answer(outcome.repair, outcome.certified, outcome.certificate is not None)


class Workload:
    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        mix = [(generate, n) for generate in KINDS for n in ERRORS]
        if tiny:
            mix = mix[:1]
        rng = random.Random(f"repair_bnb/{seed}")
        self.cases = [
            make_case(rng, generate, n_errors)
            for _ in range(2 if tiny else ROUNDS)
            for generate, n_errors in mix
        ]
        self.round = len(mix)
        self.trace_prefix = 4 * self.round
        warm = random.Random(f"repair_bnb/warm-up/{seed}")
        for generate in KINDS:
            repair(make_case(warm, generate, ERRORS[0]))

    def run_item(self, index: int) -> Answer:
        return repair(self.cases[index % len(self.cases)])

    def check(self, records: List) -> tuple:
        verdicts = []
        for index, answer in enumerate(records):
            case = self.cases[index % len(self.cases)]
            if isinstance(answer, Failure) or answer.certified is not True:
                verdicts.append(FAILED)
                continue
            repaired = apply_repair(case.database, answer.repair)
            valid = (
                answer.has_certificate
                and not check_consistency(repaired, case.constraints)
                and answer.repair.cardinality <= case.injected
            )
            verdicts.append(OK if valid else WRONG)
        return verdicts, []

    def close(self) -> None:
        pass
