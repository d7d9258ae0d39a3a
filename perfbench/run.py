"""Run the DART benchmark: one workload, or all three.

    python3 perfbench/run.py --workload repair_bnb --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 3       # every workload, one after another

Run from the root of a checkout; the program is imported from
``src/``.  The last line on standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Progress and diagnostics go to
standard error.  Exits 1 when an output fails its correctness check and
2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402


def parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=harness.WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="makes the inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=harness.RUN_SECONDS,
                        help="length of the timed phase "
                             f"(default {harness.RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace) -> int:
    # Standard output carries only the result line: anything the program
    # or a native library prints while running goes to standard error.
    saved_stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        result = harness.run(
            args.workload, seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace),
        )
    finally:
        sys.stdout.flush()
        ctypes.CDLL(None).fflush(None)
        os.dup2(saved_stdout, 1)
        os.close(saved_stdout)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    results = {}
    for name in harness.WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = done.stdout.splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited with code {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        results[name] = json.loads(lines[-1])
    for name, result in results.items():
        print(f"{name}: {result['attempted']} attempted, {result['failed']} "
              f"failed, correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:34s} {entry['value']:14.6g} {entry['unit']}")
    combined = {
        "correct": all(result["correct"] for result in results.values()),
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": sum(result["failed"] for result in results.values()),
        "metrics": {
            f"{name}.{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        },
    }
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
