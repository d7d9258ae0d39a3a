"""Seeded parameter sweeps with simple aggregation.

Every bench follows the same shape: for each parameter value, run the
experiment over many seeds, aggregate each measured quantity, print a
row.  :func:`sweep` runs the grid; :func:`aggregate` folds the per-seed
measurement dictionaries into mean / standard deviation pairs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Sequence, Tuple as PyTuple

#: One experiment run returns a flat mapping of measurement name -> number.
Measurements = Mapping[str, float]


@dataclass
class SweepCell:
    """All runs for one parameter value."""

    parameter: Any
    runs: List[Dict[str, float]] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def mean(self, name: str) -> float:
        values = [run[name] for run in self.runs if name in run]
        return sum(values) / len(values) if values else math.nan

    def std(self, name: str) -> float:
        values = [run[name] for run in self.runs if name in run]
        if len(values) < 2:
            return 0.0
        mu = sum(values) / len(values)
        return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))

    def rate(self, name: str) -> float:
        """Mean of a 0/1 measurement = success rate."""
        return self.mean(name)


def sweep(
    parameters: Sequence[Any],
    seeds: Iterable[int],
    run: Callable[[Any, int], Measurements],
) -> List[SweepCell]:
    """Run ``run(parameter, seed)`` over the full grid, in order."""
    seed_list = list(seeds)
    cells: List[SweepCell] = []
    for parameter in parameters:
        cell = SweepCell(parameter=parameter)
        started = time.perf_counter()
        for seed in seed_list:
            cell.runs.append(
                {k: float(v) for k, v in dict(run(parameter, seed)).items()}
            )
        cell.elapsed_seconds = time.perf_counter() - started
        cells.append(cell)
    return cells


def aggregate(
    cells: Sequence[SweepCell], names: Sequence[str]
) -> List[PyTuple[Any, Dict[str, PyTuple[float, float]]]]:
    """``[(parameter, {name: (mean, std)})]`` for the named measurements."""
    summary: List[PyTuple[Any, Dict[str, PyTuple[float, float]]]] = []
    for cell in cells:
        summary.append(
            (cell.parameter, {name: (cell.mean(name), cell.std(name)) for name in names})
        )
    return summary
