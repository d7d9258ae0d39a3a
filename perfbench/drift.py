"""What moves item times: the machine or the inputs?  Checks, not metrics.

    python3 perfbench/drift.py --workload sheets_pipeline repeat --item 2 --repeats 80
    python3 perfbench/drift.py --workload sheets_pipeline seeds --seeds 1-10 --items 60
    python3 perfbench/drift.py machine --seconds 150 --block 2

``repeat`` sets one workload up and runs the *same* item again and
again, each time followed by the harness's fixed reference loop.  The
item's input and work are identical every time and no cache outlives
an item, so whatever moves its time comes from outside the program.
It prints the spread of the item's times and of the reference loop's,
their correlation, and the spread of their ratio: a high correlation
says the item time follows the machine's speed.

``seeds`` sets the workload up once per seed in one process and runs
item 0 of every seed, then item 1 of every seed, and so on.  A change
of the machine's speed then falls on every seed alike, and what is left
between the seeds' total item times is the cost of their inputs.  It
prints each seed's total, p50 and tail, and the spread (quartile
distance over median) of the totals.

``machine`` runs no workload: it times the reference loop (100 000
turns) again and again for ``--seconds`` and prints the median of each
``--block`` of seconds, which shows how long the machine holds a speed.

Only the workloads whose items can be repeated in any order are
offered; a ``service_stream`` item depends on the requests before it.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness  # noqa: E402
from perfbench.report import int_range, summary  # noqa: E402


def spread(values) -> float:
    """Standard deviation as a share of the mean."""
    return statistics.pstdev(values) / statistics.mean(values)


def timed(workload, index: int) -> float:
    begun = perf_counter()
    workload.run_item(index)
    return perf_counter() - begun


def repeat(args, workdir: Path) -> None:
    workload, _ = harness.set_up(args.workload, args.seed, workdir)
    items, references = [], []
    try:
        for _ in range(args.repeats):
            items.append(timed(workload, args.item))
            references.append(harness.reference_loop(200_000))
    finally:
        workload.close()
    ratios = [i / r for i, r in zip(items, references)]
    print(f"{args.workload} item {args.item}, {args.repeats} repeats: "
          f"item {statistics.mean(items) * 1000:.1f} ms mean, "
          f"spread {spread(items):.1%}; reference "
          f"{statistics.mean(references) * 1000:.2f} ms, "
          f"spread {spread(references):.1%}; correlation "
          f"{statistics.correlation(items, references):.2f}; "
          f"spread of item/reference {spread(ratios):.1%}")


def seeds(args, workdir: Path) -> None:
    workloads = {
        seed: harness.set_up(args.workload, seed, workdir / str(seed))[0]
        for seed in args.seeds
    }
    gc.collect()
    gc.freeze()
    times = {seed: [] for seed in args.seeds}
    try:
        for index in range(args.items):
            for seed, workload in workloads.items():
                times[seed].append(timed(workload, index))
    finally:
        for workload in workloads.values():
            workload.close()
    for seed, values in times.items():
        ordered = sorted(values)
        print(f"seed {seed:3d}: total {sum(values):8.3f} s  p50 "
              f"{statistics.median(values) * 1000:8.1f} ms  tail "
              f"{ordered[-harness.TAIL_BEYOND - 1] * 1000:8.1f} ms")
    totals = summary([sum(values) for values in times.values()])
    print(f"{args.workload}, {args.items} items per seed: spread of the "
          f"seeds' totals {totals['spread']:.1%}")


def machine(args, workdir: Path) -> None:
    blocks = []
    started = perf_counter()
    while perf_counter() - started < args.seconds:
        readings = []
        block_ends = perf_counter() + args.block
        while perf_counter() < block_ends:
            readings.append(harness.reference_loop(100_000))
        blocks.append(statistics.median(readings) * 1000)
    print(f"reference loop, median of each {args.block:g} s block (ms): "
          + " ".join(f"{block:.1f}" for block in blocks))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("sheets_pipeline", "repair_bnb"),
                        default="sheets_pipeline")
    modes = parser.add_subparsers(dest="mode", required=True)
    one = modes.add_parser("repeat", help="one item, again and again")
    one.add_argument("--seed", type=int, default=1)
    one.add_argument("--item", type=int, default=2, help="index of the item")
    one.add_argument("--repeats", type=int, default=80)
    many = modes.add_parser("seeds", help="input cost per seed, interleaved")
    many.add_argument("--seeds", type=int_range, default=int_range("1-10"))
    many.add_argument("--items", type=int, default=60,
                      help="items per seed, a whole number of rounds")
    clock = modes.add_parser("machine", help="the reference loop alone")
    clock.add_argument("--seconds", type=float, default=150.0)
    clock.add_argument("--block", type=float, default=2.0)
    args = parser.parse_args()
    workdir = harness.WORK / f"drift-{os.getpid()}"
    try:
        {"repeat": repeat, "seeds": seeds, "machine": machine}[args.mode](
            args, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
