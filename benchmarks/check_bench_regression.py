"""The bench regression gate.

Compares a freshly produced ``BENCH_milp.json`` against the committed
baseline and fails (exit 1) on any of:

- a (scenario, backend) pair of the baseline that the fresh run no
  longer measures, or whose objective differs from the baseline's;
- a node, pivot or certificate-replay count more than the tolerance
  (default 10%) above the baseline's.  The counts are deterministic,
  so host speed never enters this gate; a count that fell by more
  than the tolerance is reported but passes.  The replay count
  (``certify_replays``: certificates the float pass of
  ``repro.milp.certify`` left to the ``Fraction`` replay) has a
  baseline of 0, so any replay fails;
- a certification overhead (``certify_overhead_geomean``) more than
  the tolerance above the baseline.  It is a *smaller-is-better* ratio
  (certify-on wall time over certify-off wall time, geomean across the
  small/medium scenarios) measured on one host in one process, so host
  speed divides out of it.

Also writes a per-scenario markdown table (``--table``) that CI uploads
as an artifact, so a failing run shows exactly which scenario moved.

Usage::

    cp BENCH_milp.json bench_baseline.json      # the committed numbers
    PYTHONPATH=src python benchmarks/bench_milp.py
    python benchmarks/check_bench_regression.py \
        --baseline bench_baseline.json --fresh BENCH_milp.json \
        --table bench_table.md

A metric present only in the fresh file (schema growth) is reported
but never gated; a metric present only in the baseline is a hard
failure (the bench silently stopped measuring something).

The same gate also serves ``BENCH_service.json`` (from
``bench_service.py``): its summary uses the same per-backend shape, so
CI runs this script once per benchmark pair.  Its gated metric is
``warm_hit_rate``, a bigger-is-better ratio that fails more than the
tolerance below the baseline; the latency percentiles ride along
ungated.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

#: Relative change beyond which the gate fails (0.10 == 10%).
DEFAULT_TOLERANCE = 0.10

#: Summary metrics under gate where *bigger* is better.
#: BENCH_service.json: fraction of warm-run solve requests served from
#: cache.  Baseline is 1.0 by construction, so any drop at all trips
#: the 10% gate -- a drop means the store stopped serving.
GATED_METRICS = ("warm_hit_rate",)

#: Summary metrics under gate where *smaller* is better -- overhead
#: ratios.  The gate inverts: a fresh value more than ``tolerance``
#: above the baseline fails.
OVERHEAD_METRICS = ("certify_overhead_geomean",)

#: Per-(scenario, backend) work counts under gate; smaller is better.
#: ``certify_replays`` exists only for the certified pairs.
COUNT_METRICS = ("nodes", "pivots", "certify_replays")


def load(path: Path) -> Dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def scenario_records(payload: Dict) -> Dict:
    """``{(scenario, backend): record}`` of a BENCH_milp-shaped file."""
    return {
        (entry["scenario"], backend): record
        for entry in payload.get("scenarios", [])
        for backend, record in entry.get("backends", {}).items()
    }


def scenario_table(fresh: Dict) -> str:
    """A markdown per-scenario table of the fresh run."""
    lines = [
        "| scenario | backend | wall (ms) | nodes | pivots | objective | certify |",
        "|---|---|---:|---:|---:|---:|---:|",
    ]
    for (scenario, backend), record in scenario_records(fresh).items():
        certify = record.get("certify", {}).get("certify_overhead")
        overhead = "-" if certify is None else f"{certify:.2f}x"
        lines.append(
            f"| {scenario} | {backend} "
            f"| {record['wall_time'] * 1000:.2f} | {record['nodes']} "
            f"| {record['pivots']} | {record['objective']:g} | {overhead} |"
        )
    lines.append("")
    lines.append("| backend | metric | value |")
    lines.append("|---|---|---:|")
    for backend, metrics in fresh.get("summary", {}).items():
        for metric, value in metrics.items():
            lines.append(f"| {backend} | {metric} | {value:.3f} |")
    return "\n".join(lines) + "\n"


def check_scenarios(
    baseline: Dict, fresh: Dict, tolerance: float
) -> List[str]:
    """Objective equality and count ceilings, per (scenario, backend)."""
    failures: List[str] = []
    fresh_records = scenario_records(fresh)
    for key, base in scenario_records(baseline).items():
        label = "/".join(key)
        record = fresh_records.get(key)
        if record is None:
            failures.append(f"{label}: dropped from fresh run")
            continue
        if "objective" in base:
            if abs(record["objective"] - base["objective"]) > 1e-9:
                failures.append(
                    f"{label}: objective {record['objective']} != "
                    f"baseline {base['objective']}"
                )
        for metric in COUNT_METRICS:
            if metric not in base:
                continue  # baseline predates this metric: nothing to gate
            if metric not in record:
                failures.append(f"{label}/{metric}: dropped from fresh run")
                continue
            base_value = float(base[metric])
            fresh_value = float(record[metric])
            ceiling = base_value * (1.0 + tolerance)
            if fresh_value > ceiling:
                verdict = "REGRESSED"
                failures.append(
                    f"{label}/{metric}: {fresh_value:.0f} > {ceiling:.1f} "
                    f"(baseline {base_value:.0f} + {tolerance:.0%})"
                )
            elif fresh_value < base_value * (1.0 - tolerance):
                verdict = "dropped (ok)"
            else:
                verdict = "ok"
            print(
                f"{label:42s} {metric:15s} baseline {base_value:7.0f}  "
                f"fresh {fresh_value:7.0f}  {verdict}"
            )
    return failures


def check_summary(
    baseline: Dict, fresh: Dict, tolerance: float
) -> List[str]:
    """Floors on the GATED_METRICS, ceilings on the OVERHEAD_METRICS."""
    failures: List[str] = []
    for backend, base_metrics in baseline.get("summary", {}).items():
        fresh_metrics = fresh.get("summary", {}).get(backend)
        if fresh_metrics is None:
            failures.append(f"{backend}: missing from fresh summary")
            continue
        for metric in GATED_METRICS + OVERHEAD_METRICS:
            if metric not in base_metrics:
                continue  # baseline predates this metric: nothing to gate
            if metric not in fresh_metrics:
                failures.append(f"{backend}/{metric}: dropped from fresh run")
                continue
            base_value = float(base_metrics[metric])
            fresh_value = float(fresh_metrics[metric])
            if metric in GATED_METRICS:
                bound, kind = base_value * (1.0 - tolerance), "floor"
                passed = fresh_value >= bound
            else:
                bound, kind = base_value * (1.0 + tolerance), "ceiling"
                passed = fresh_value <= bound
            print(
                f"{backend:12s} {metric:24s} baseline {base_value:7.3f}  "
                f"fresh {fresh_value:7.3f}  {kind} {bound:7.3f}  "
                f"{'ok' if passed else 'REGRESSED'}"
            )
            if not passed:
                failures.append(
                    f"{backend}/{metric}: {fresh_value:.3f} beyond the "
                    f"{kind} {bound:.3f} (baseline {base_value:.3f} "
                    f"+/- {tolerance:.0%})"
                )
    return failures


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True)
    parser.add_argument("--fresh", type=Path, required=True)
    parser.add_argument("--table", type=Path, default=None)
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE
    )
    args = parser.parse_args(argv)

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    if args.table is not None:
        args.table.write_text(scenario_table(fresh), encoding="utf-8")
        print(f"wrote {args.table}")

    failures: List[str] = []
    if not fresh.get("all_objectives_match", False):
        failures.append("fresh run reports objective divergence")
    failures += check_scenarios(baseline, fresh, args.tolerance)
    failures += check_summary(baseline, fresh, args.tolerance)

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench regression gate: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
