"""The timed loop every workload shares, and the metrics it reports.

One run sets the workload up, times items back to back until the run's
seconds are spent *and* a whole round of inputs is done, checks every
output, then sets the workload up twice more, each time in a fresh
interpreter, to time set-up.  Without
tracing it reports the end-to-end metrics of ``BENCHMARK.json``; with
tracing it wraps the timed loop in :class:`perfbench.tracing.Tracer`
and reports the per-layer metrics instead.

A workload module defines ``Workload(seed, workdir, tiny=False)``,
whose constructor is the set-up: it makes the inputs from the seed,
opens what the items need and warms up, all in a fixed amount of work.
The instance has

- ``round``: items per round; a run always ends on a whole round, so
  every run measures the same mix of inputs;
- ``capacity`` (optional): the most items a run may time, a whole
  number of rounds; the timed phase ends there even before its
  seconds are spent, so that no input repeats where a cache would
  remember it;
- ``trace_prefix``: the traced run's counts cover this many items;
- ``run_item(index)``: one timed item; returns a record for ``check``;
- ``check(records)``: ``(verdicts, problems)`` -- one of :data:`OK`,
  :data:`FAILED` or :data:`WRONG` per record, plus whole-run faults;
- ``layer_metrics(records)`` (optional): per-layer values only the
  workload knows; per-layer metrics no one reports are 0;
- ``close()``.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, journals and traces, inside the checkout.
WORK = ROOT / ".perfbench_work"

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(entry["name"] for entry in SPEC["workloads"])
RUN_SECONDS = SPEC["run_seconds"]

#: Cold set-ups per run, each in a fresh interpreter; ``setup_s`` is the
#: median of their times.
SETUPS = 3
#: The tail percentile is the highest with this many samples beyond it.
TAIL_BEYOND = 10
#: Seconds between two readings of the machine's speed in the timed phase.
REFERENCE_EVERY = 1.0

#: Item verdicts.  FAILED: the operation failed (raised, or the program
#: reported a failure status).  WRONG: it answered, but wrongly.
OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Failure:
    """The record of an item whose call into the program raised."""

    error: str


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def metric_units(kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {entry["name"]: entry["unit"] for entry in SPEC[kind]}


def set_up(name: str, seed: int, workdir: Path, tiny: bool = False):
    """Import workload *name* and build it; returns ``(workload, seconds)``.

    Called first thing in a fresh interpreter, this is one cold set-up:
    the import of the program and of numpy/scipy, input generation,
    opening the store, the pre-fill and the warm-up.
    """
    started = perf_counter()
    module = importlib.import_module(f"perfbench.{name}")
    workload = module.Workload(seed, workdir, tiny=tiny)
    return workload, perf_counter() - started


def set_up_in_child(name: str, seed: int, workdir: Path, tiny: bool = False) -> float:
    """Seconds :func:`set_up` takes in a fresh interpreter."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(SRC)!r}, {str(ROOT)!r}]\n"
        "from pathlib import Path\n"
        "from perfbench.harness import set_up\n"
        f"workload, seconds = set_up({name!r}, {seed}, Path({str(workdir)!r}), {tiny})\n"
        "workload.close()\n"
        "print(seconds)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def reference_loop(iterations: int = 20_000) -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed now.

    The loop allocates nothing and calls nothing, so its time moves only
    with the speed the machine gives this process.
    """
    begun = perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return perf_counter() - begun


def _timed_loop(
    workload, seconds: float, tracer
) -> Tuple[List, List[float], float, List[float]]:
    """Items back to back; returns ``(records, latencies, elapsed, references)``.

    Between rounds, about once every :data:`REFERENCE_EVERY` seconds,
    the loop times :func:`reference_loop`; those readings are returned
    in *references* and their time is left out of *elapsed*.
    """
    min_items = TAIL_BEYOND + 1
    if tracer is not None:
        min_items = max(min_items, workload.trace_prefix)
    capacity = getattr(workload, "capacity", None)
    records: List = []
    latencies: List[float] = []
    references: List[float] = []
    started = perf_counter()
    deadline = started + seconds
    finished = next_reference = started
    while True:
        index = len(records)
        if tracer is not None:
            tracer.begin_item(index)
        begun = perf_counter()
        try:
            record = workload.run_item(index)
        except Exception:
            # A failed item counts against the attempts; the loop goes
            # on with the next one.
            record = Failure(traceback.format_exc(limit=-3))
        finished = perf_counter()
        if tracer is not None:
            tracer.end_item()
        latencies.append(finished - begun)
        records.append(record)
        if len(records) == capacity:
            log(f"inputs used up after {capacity} items: "
                "the timed phase ends early")
            break
        if len(records) % workload.round:
            continue
        if finished >= deadline and len(records) >= min_items:
            break
        if finished >= next_reference:
            references.append(reference_loop())
            next_reference = finished + REFERENCE_EVERY
    return records, latencies, finished - started - sum(references), references


def run(name: str, *, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """One run of workload *name*; returns the result object."""
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run(name, workdir, seed, seconds, trace, tiny)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(name, workdir, seed, seconds, trace, tiny) -> dict:
    workload, setup_time = set_up(name, seed, workdir / "setup0", tiny)
    tracer = None
    try:
        # Everything set-up made is long-lived: keep the collector from
        # walking it again and again while items are timed.
        gc.collect()
        gc.freeze()
        if trace:
            from perfbench.tracing import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            records, latencies, elapsed, references = _timed_loop(
                workload, seconds, tracer
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
            gc.unfreeze()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts, problems = workload.check(records)
        extra = {}
        if hasattr(workload, "layer_metrics"):
            extra = workload.layer_metrics(records[: workload.trace_prefix])
    finally:
        workload.close()

    n_items = len(records)
    for index, record in enumerate(records):
        if isinstance(record, Failure):
            log(f"item {index} raised:\n{record.error}")
            break
    for problem in problems:
        log(f"problem: {problem}")
    n_ok = verdicts.count(OK)
    log(
        f"{name} seed={seed}: {n_items} items in {elapsed:.2f} s; "
        f"{verdicts.count(FAILED)} failed, {verdicts.count(WRONG)} wrong"
    )
    if references:
        log(f"reference loop: {statistics.median(references) * 1000.0:.4f} ms, "
            f"median of {len(references)} readings in the timed phase")

    if trace:
        from perfbench.tracing import layer_metrics

        values = layer_metrics(tracer.spans, workload.trace_prefix)
        values.update(extra)
        values["trace.throughput_per_s"] = n_items / elapsed
        trace_path = WORK / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        log(f"spans written to {trace_path}")
        units = metric_units("per_layer")
        # A layer the workload never enters reports 0.
        values = {metric: values.get(metric, 0) for metric in units}
    else:
        # This process was fresh when it set up; the other samples come
        # from fresh interpreters too, so every sample is a cold set-up.
        setups = [setup_time] + [
            set_up_in_child(name, seed, workdir / f"setup{k}", tiny)
            for k in range(1, 1 if tiny else SETUPS)
        ]
        ordered = sorted(latencies)
        tail_index = max(0, n_items - TAIL_BEYOND - 1)
        values = {
            "throughput_per_s": n_items / elapsed,
            "latency_p50_ms": statistics.median(latencies) * 1000.0,
            "latency_tail_ms": ordered[tail_index] * 1000.0,
            "peak_rss_mb": peak_rss_mb,
            "correct_ratio": n_ok / n_items,
            "setup_s": statistics.median(setups),
        }
        log(
            f"latency_tail_ms is p{100.0 * (tail_index + 1) / n_items:.2f} "
            f"of {n_items} items ({n_items - tail_index - 1} beyond it)"
        )
        log("setup_s is the median of "
            + ", ".join(f"{t:.3f}" for t in setups) + " s")
        units = metric_units("end_to_end")

    return {
        "correct": n_ok == n_items and not problems,
        "attempted": n_items,
        "failed": verdicts.count(FAILED),
        "metrics": {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in units.items()
        },
    }
