"""sheets_pipeline: OCR-noised balance sheets through ``DartSystem.process``.

An item is one document taken through acquisition, wrapping, database
generation, detection and the full oracle validation session, at E8's
4%/4% OCR noise rates and on the default (scipy) MILP backend.  This is
the workload where the wrapper dominates and where its superlinear
growth shows.  A round is one sheet of each shape in :data:`SHAPES`;
d=3 b=2 comes twice so that the median item lies inside one shape's
times rather than on the gap between two shapes, and the d=3 b=3
sheets fill the tail.

Input screening: a document on which the OCR channel misreads the
Company or Year header cell, or two or more text cells of one row, is
replaced by the next seed when the inputs are made.  DART cannot
recover those misreads by design -- the header cells have free-text and
integer domains with no dictionary to match against, and a row with
two garbled labels scores under the wrapper's match threshold and is
dropped -- so such a document only measures a known failure.  The
screen runs the OCR channel alone and no other part of the program.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from repro.acquisition import OcrChannel
from repro.acquisition.ocr import ErrorRecord
from repro.core import DartSystem, Scenario, balance_sheet_scenario
from repro.datasets import generate_balance_sheet
from repro.relational.database import Database

from perfbench.harness import FAILED, OK, WRONG, Failure

#: (depth, branching) of the sheets of one round.
SHAPES = ((2, 2), (2, 3), (3, 2), (3, 2), (3, 3))
NOISE = {"numeric_error_rate": 0.04, "string_error_rate": 0.04}
#: Rounds of distinct documents made at set-up; the loop cycles after.
#: No cache outlives an item here, so a document's second pass costs
#: what its first did.
ROTATIONS = 24


def misread_beyond_repair(errors: Sequence[ErrorRecord]) -> bool:
    """Did the OCR channel hit a header cell, or two text cells of a row?"""
    garbled = Counter(
        (error.table_index, error.row_index)
        for error in errors
        if error.kind == "string"
    )
    return any(
        error.row_index == 0 and error.cell_index < 2 for error in errors
    ) or any(count >= 2 for count in garbled.values())


@dataclass
class Sheet:
    scenario: Scenario
    ocr_seed: int


def make_sheet(rng: random.Random, depth: int, branching: int) -> Sheet:
    while True:
        seed = rng.randrange(1 << 30)
        scenario = balance_sheet_scenario(
            generate_balance_sheet(depth=depth, branching=branching, seed=seed)
        )
        channel = OcrChannel(seed=seed, **NOISE)
        _, errors = channel.corrupt_document(scenario.document)
        if not misread_beyond_repair(errors):
            return Sheet(scenario, seed)


def process(sheet: Sheet) -> Database:
    """One item: the document through the whole system, validated."""
    system = DartSystem(
        sheet.scenario, ocr_channel=OcrChannel(seed=sheet.ocr_seed, **NOISE)
    )
    return system.process().final_database


class Workload:
    def __init__(self, seed: int, workdir: Path, tiny: bool = False) -> None:
        shapes = SHAPES[:1] if tiny else SHAPES
        rng = random.Random(f"sheets_pipeline/{seed}")
        self.sheets = [
            make_sheet(rng, depth, branching)
            for _ in range(2 if tiny else ROTATIONS)
            for depth, branching in shapes
        ]
        self.round = len(shapes)
        self.trace_prefix = 2 * self.round
        process(make_sheet(random.Random(f"sheets_pipeline/warm-up/{seed}"), 2, 2))

    def run_item(self, index: int) -> Database:
        return process(self.sheets[index % len(self.sheets)])

    def check(self, records: List) -> tuple:
        verdicts = []
        for index, record in enumerate(records):
            truth = self.sheets[index % len(self.sheets)].scenario.ground_truth
            if isinstance(record, Failure):
                verdicts.append(FAILED)
            else:
                verdicts.append(OK if record == truth else WRONG)
        return verdicts, []

    def close(self) -> None:
        pass
