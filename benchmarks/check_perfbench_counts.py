"""Fail when a deterministic count of a traced perfbench run changed.

A traced run (``perfbench/run.py --trace 1``) takes its counts over a
fixed prefix of each workload's items, so for one seed they repeat
exactly from run to run.  ``benchmarks/perfbench_counts.json`` records
those of seed 1 that also do not depend on the HiGHS build solving the
MILPs (:data:`LOCKED`).  This script compares a run's result line with
it and exits 1, naming every recorded count that changed.

Usage::

    python3 perfbench/run.py --seed 1 --seconds 5 --trace 1 > trace1.txt
    tail -n 1 trace1.txt > perfbench_trace1.json
    python3 benchmarks/check_perfbench_counts.py perfbench_trace1.json

A change that moves a locked count on purpose records the new counts
with ``--write`` and says in CHANGES.md which moved and why.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

BASELINE = Path(__file__).resolve().parent / "perfbench_counts.json"

#: Workload -> locked metrics; a name ending in "." covers every count
#: and ratio under it.  Node, pivot, certificate and translation counts
#: are left out: they follow the HiGHS build.
LOCKED: Dict[str, tuple] = {
    "sheets_pipeline": (
        "acquisition.ocr_errors", "wrapping.", "constraints.violations",
    ),
    "service_stream": (
        "cascade.resolved.", "cascade.milp_free_ratio", "cache.hit_ratio",
        "cache.store_hits", "journal.records", "service.",
    ),
}
#: Units of the metrics that can be locked; times never are.
COUNT_UNITS = ("count", "ratio")


def _locked(key: str) -> bool:
    workload, _, metric = key.partition(".")
    return any(
        metric == name or (name.endswith(".") and metric.startswith(name))
        for name in LOCKED.get(workload, ())
    )


def locked_counts(metrics: Dict[str, dict]) -> Dict[str, float]:
    """The locked counts among a result line's metrics."""
    return {
        key: entry["value"]
        for key, entry in sorted(metrics.items())
        if entry["unit"] in COUNT_UNITS and _locked(key)
    }


def changed_counts(
    expected: Dict[str, float], fresh: Dict[str, float]
) -> List[str]:
    """One line per recorded count that is missing, new or different."""
    problems = []
    for key in sorted(set(expected) | set(fresh)):
        if key not in fresh:
            problems.append(f"{key}: missing from the run (recorded {expected[key]:g})")
        elif key not in expected:
            problems.append(f"{key}: {fresh[key]:g}, not recorded")
        elif fresh[key] != expected[key]:
            problems.append(f"{key}: {expected[key]:g} -> {fresh[key]:g}")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("result", help="file holding the run's last stdout line")
    parser.add_argument(
        "--write", action="store_true",
        help=f"record the run's counts in {BASELINE.name} instead of checking",
    )
    args = parser.parse_args(argv)
    metrics = json.loads(Path(args.result).read_text(encoding="utf-8"))["metrics"]
    fresh = locked_counts(metrics)
    if args.write:
        BASELINE.write_text(
            json.dumps({"seed": 1, "counts": fresh}, indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"recorded {len(fresh)} counts in {BASELINE}")
        return 0
    expected = json.loads(BASELINE.read_text(encoding="utf-8"))
    problems = changed_counts(expected["counts"], fresh)
    for problem in problems:
        print(f"FAIL {problem}")
    if not problems:
        print(f"{len(fresh)} counts equal the recorded ones")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
