"""Steadiness report: run the benchmark over several seeds and summarise.

    python3 perfbench/report.py --seeds 1-10 --out perfbench/results/set1.json
    python3 perfbench/report.py --seeds 1-10 --trace 0,1 --out perfbench/results/set2.json
    python3 perfbench/report.py --show perfbench/results/set2.json
    python3 perfbench/report.py --compare perfbench/results/set1.json perfbench/results/set2.json

A run set executes ``run.py`` once per (seed, workload, trace mode), one
process at a time, and saves every result.  The order is seed by seed,
each seed running every workload: a slow stretch of the machine then
falls on all workloads alike instead of on one workload's whole block.
With ``--trace 0,1`` each untraced run is followed at once by the traced
run of the same seed and workload, so the tracing overhead is read from
pairs that ran side by side.

For each metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound.  ``--compare`` prints how far the second set's untraced
medians moved from the first's.

Each run's reading of the machine's speed, the ``reference loop`` line
the harness logs, is saved with the run as ``reference_ms``; the
summary sets every workload's throughput against it.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.harness import RUN_SECONDS, SPEC, WORKLOADS  # noqa: E402

BOUNDS = {entry["name"]: entry["bound"] for entry in SPEC["end_to_end"]}
BETTER = {entry["name"]: entry["better"] for entry in SPEC["end_to_end"]}
#: The harness's log line with the run's machine-speed reading.
REFERENCE = re.compile(r"reference loop: ([0-9.]+) ms")


def int_range(text: str) -> List[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(workloads: List[str], seeds: List[int], seconds: int,
            modes: List[int]) -> Dict:
    runs: List[Dict] = []
    for seed in seeds:
        for name in workloads:
            for trace in modes:
                started = time.time()
                done = subprocess.run(
                    [
                        sys.executable, str(ROOT / "perfbench" / "run.py"),
                        "--workload", name, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                    ],
                    cwd=ROOT,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                )
                result = json.loads(done.stdout.splitlines()[-1])
                reading = REFERENCE.search(done.stderr)
                result.update(workload=name, seed=seed, trace=trace,
                              exit=done.returncode, started=started,
                              wall_s=time.time() - started,
                              reference_ms=float(reading.group(1)))
                runs.append(result)
                print(f"{name} seed={seed} trace={trace} exit={done.returncode} "
                      f"correct={result['correct']}", file=sys.stderr, flush=True)
    return {"seconds": seconds, "runs": runs}


def select(data: Dict, name: str, trace: int) -> List[Dict]:
    return [run for run in data["runs"]
            if run["workload"] == name and run["trace"] == trace]


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def summarise(data: Dict, trace: int) -> Dict[str, Dict[str, Dict[str, float]]]:
    table = {}
    for name in WORKLOADS:
        runs = select(data, name, trace)
        if len(runs) >= 2:
            table[name] = {
                metric: summary([run["metrics"][metric]["value"] for run in runs])
                for metric in runs[0]["metrics"]
            }
    return table


def print_summary(data: Dict) -> None:
    for trace in (0, 1):
        for name, metrics in summarise(data, trace).items():
            runs = select(data, name, trace)
            print(f"{name} ({'traced' if trace else 'untraced'}): {len(runs)} "
                  f"runs, all correct: {all(run['correct'] for run in runs)}")
            for metric, row in metrics.items():
                bound = BOUNDS.get(metric)
                note = f"  bound {bound:.2f}" if bound is not None else ""
                print(f"  {metric:32s} median {row['median']:12.6g}  "
                      f"q1 {row['q1']:12.6g}  q3 {row['q3']:12.6g}  "
                      f"spread {row['spread']:7.2%}{note}")
            if not trace:
                print_machine(runs)
    print_overhead(data)


def print_machine(runs: List[Dict]) -> None:
    """How much of the throughput spread is the machine's speed.

    ``reference_ms`` is the median time of the harness's fixed reference
    loop during the run's timed phase.  Throughput times that reading is
    what the throughput would be on a machine of constant speed, if
    every kind of work slowed alike; its spread is what is left for the
    inputs and the program.
    """
    speed = [1.0 / run["reference_ms"] for run in runs]
    throughput = [run["metrics"]["throughput_per_s"]["value"] for run in runs]
    reference = summary([run["reference_ms"] for run in runs])
    scaled = summary([t / s for t, s in zip(throughput, speed)])
    print(f"  {'reference loop (ms)':32s} median {reference['median']:12.6g}  "
          f"q1 {reference['q1']:12.6g}  q3 {reference['q3']:12.6g}  "
          f"spread {reference['spread']:7.2%}")
    print(f"  throughput vs machine speed: correlation "
          f"{statistics.correlation(throughput, speed):+.2f}; spread of "
          f"throughput x reference {scaled['spread']:.2%}")


def print_overhead(data: Dict) -> None:
    """Tracing overhead from untraced/traced pairs of the same seed.

    The second figure divides out the machine's speed, as read by each
    run's reference loop, since the two runs of a pair are a minute apart.
    """
    for name in WORKLOADS:
        traced = {run["seed"]: run for run in select(data, name, 1)}
        pairs = [(run, traced[run["seed"]])
                 for run in select(data, name, 0) if run["seed"] in traced]
        if not pairs:
            continue
        ratios = [
            on["metrics"]["trace.throughput_per_s"]["value"]
            / off["metrics"]["throughput_per_s"]["value"]
            for off, on in pairs
        ]
        adjusted = [
            ratio * on["reference_ms"] / off["reference_ms"]
            for ratio, (off, on) in zip(ratios, pairs)
        ]
        print(f"{name}: tracing changes throughput by "
              f"{statistics.median(ratios) - 1.0:+.2%} (median of "
              f"{len(ratios)} pairs; range {min(ratios) - 1.0:+.1%} to "
              f"{max(ratios) - 1.0:+.1%}); at equal machine speed by "
              f"{statistics.median(adjusted) - 1.0:+.2%}")


def compare(first: Dict, second: Dict) -> None:
    old, new = summarise(first, 0), summarise(second, 0)
    for name in old:
        if name not in new:
            continue
        print(name)
        for metric, row in old[name].items():
            moved = new[name][metric]["median"] / row["median"] - 1.0
            bound = BOUNDS[metric]
            worse = moved if BETTER[metric] == "lower" else -moved
            verdict = "  OUTSIDE" if worse > bound else ""
            print(f"  {metric:32s} median moved {moved:+7.2%}  "
                  f"bound {bound:.2f}{verdict}")
    # The same seed runs the same inputs in both sets, so a ratio away
    # from 1 is the machine; ratios that move together across the
    # workloads of one seed, which ran minutes apart, show a slow stretch.
    print("throughput, second set / first set, by seed:")
    print("  seed " + "".join(f"{name:>17s}" for name in old))
    seeds = sorted({run["seed"] for run in first["runs"]})
    for seed in seeds:
        row = []
        for name in old:
            pair = [
                [run["metrics"]["throughput_per_s"]["value"]
                 for run in select(data, name, 0) if run["seed"] == seed]
                for data in (first, second)
            ]
            row.append(f"{pair[1][0] / pair[0][0]:17.3f}"
                       if pair[0] and pair[1] else f"{'-':>17s}")
        print(f"  {seed:4d} " + "".join(row))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int_range, default=int_range("1-10"))
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", default="0",
                        help="trace modes per seed and workload: 0, 1 or 0,1")
    parser.add_argument("--out", type=Path, help="save the run set here")
    parser.add_argument("--show", type=Path, help="summarise a saved run set")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        compare(first, second)
        return 0
    if args.show:
        print_summary(json.loads(args.show.read_text()))
        return 0
    modes = [int(mode) for mode in args.trace.split(",")]
    data = run_set(args.workloads.split(","), args.seeds, args.seconds, modes)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    print_summary(data)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
