"""Span tracing around the program's public entry points, for the traced run.

:meth:`Tracer.install` replaces each entry point in :data:`ENTRY_POINTS`
with a wrapper that records one span -- name, start, end, parent span
and item id -- plus a few counts read off the call's result.  The
program's source is not touched: the wrappers are set on its classes
and modules from here, and :meth:`Tracer.uninstall` puts the originals
back.  Spans stay in memory until :meth:`Tracer.write` dumps them as
JSON lines at the end of the run.  The untraced run never imports this
module, so it pays nothing for it.

:func:`layer_metrics` turns the spans into the per-layer metrics of
``BENCHMARK.json``.  Times are per traced item; counts and ratios are
taken over the first *prefix* items only, a fixed set of inputs for a
given seed, so they repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# Fields of a span record (a plain list keeps recording cheap).
NAME, START, END, PARENT, ITEM, ATTRS = range(6)


def _acquire(result, args) -> Dict[str, int]:
    return {"ocr_errors": len(result.injected_errors)}


def _wrap(result, args) -> Dict[str, int]:
    return {
        "rows": len(result.instances) + len(result.unmatched),
        "strings_repaired": result.n_repaired_strings,
        "unmatched_rows": len(result.unmatched),
    }


def _generate(result, args) -> Dict[str, int]:
    return {"tuples": result.inserted, "skipped_rows": len(result.skipped)}


def _violations(result, args) -> Dict[str, int]:
    return {"violations": len(result)}


def _session(result, args) -> Dict[str, int]:
    return {
        "iterations": result.iterations,
        "values_inspected": result.values_inspected,
    }


def _translation(result, args) -> Dict[str, int]:
    return {
        "variables": result.model.n_variables,
        "rows": result.model.n_constraints,
    }


def _solve(result, args) -> Dict[str, int]:
    stats = result[1]
    counts = {"degraded": int(stats.degraded)}
    if not stats.cache_hit:
        # A cache hit carries the original solve's counts; only work
        # done now is counted.
        counts.update(
            nodes=stats.nodes,
            pivots=stats.simplex_pivots,
            refactorizations=stats.refactorizations,
            cuts=stats.cuts_gomory + stats.cuts_cover + stats.node_cuts,
            presolve_reductions=stats.presolve_reductions,
            warm_hits=stats.warm_start_hits,
            warm_fallbacks=stats.warm_start_fallbacks,
        )
    return counts


def _cascade(result, args) -> Dict[str, int]:
    report = result[1]
    counts = {
        stats.tier.split("-")[0]: stats.resolved for stats in report.tiers
    }
    counts["t4"] = report.n_residual
    counts["milp_free"] = int(not report.milp_invoked)
    return counts


def _hit(result, args) -> Dict[str, int]:
    return {"hit": int(result is not None)}


def _journal(result, args) -> Dict[str, int]:
    return {"size": os.path.getsize(args[0].path)}


#: ``(module, attribute path, span name, counts)``: every entry point
#: the traced run wraps.  Names imported with ``from ... import`` are
#: wrapped in the namespace that calls them.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.acquisition.conversion", "AcquisitionModule.acquire",
     "acquisition.acquire", _acquire),
    ("repro.wrapping.wrapper", "Wrapper.wrap_html", "wrapping.wrap_html", _wrap),
    ("repro.wrapping.dbgen", "DatabaseGenerator.generate",
     "wrapping.generate", _generate),
    ("repro.repair.engine", "RepairEngine.__init__",
     "constraints.engine_init", None),
    ("repro.repair.engine", "RepairEngine.violations",
     "constraints.violations", _violations),
    ("repro.repair.engine", "RepairEngine.is_consistent",
     "constraints.is_consistent", None),
    ("repro.repair.engine", "RepairEngine.find_card_minimal_repair",
     "repair.find", None),
    ("repro.repair.engine", "greedy_repair", "repair.heuristic", None),
    ("repro.repair.interactive", "ValidationLoop.run", "interactive.run", _session),
    ("repro.repair.engine", "translate", "translation.translate", _translation),
    ("repro.repair.cascade", "translate", "translation.translate", _translation),
    ("repro.repair.engine", "solve_with_stats", "milp.solve", _solve),
    ("repro.milp.solver", "certify_solution", "certify.solution", None),
    ("repro.repair.engine", "certify_repair", "certify.repair", None),
    ("repro.repair.engine", "certify_database", "certify.database", None),
    ("repro.repair.engine", "run_cascade", "cascade.run", _cascade),
    ("repro.milp.cache", "SolveCache.get", "cache.get", _hit),
    ("repro.milp.cache", "SolveCache.put", "cache.put", None),
    ("repro.repair.store", "ResultStore.get", "store.get", _hit),
    ("repro.repair.store", "ResultStore.put", "store.put", None),
    ("repro.repair.checkpoint", "CheckpointJournal.append_result",
     "journal.append", _journal),
    ("repro.repair.service", "RepairService.submit", "service.submit", None),
    ("repro.repair.service", "RepairService.process_pending",
     "service.process_pending", None),
)

#: Layer -> span names; a layer's share is its spans' self time.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "acquisition": ("acquisition.acquire",),
    "wrapping": ("wrapping.wrap_html", "wrapping.generate"),
    "constraints": (
        "constraints.engine_init",
        "constraints.violations",
        "constraints.is_consistent",
    ),
    "repair": ("repair.find", "repair.heuristic"),
    "interactive": ("interactive.run",),
    "translation": ("translation.translate",),
    "milp": ("milp.solve",),
    "certify": ("certify.solution", "certify.repair", "certify.database"),
    "cascade": ("cascade.run",),
    "cache": ("cache.get", "cache.put"),
    "store": ("store.get", "store.put"),
    "journal": ("journal.append",),
    "service": ("service.submit", "service.process_pending"),
    # Item time no entry point covers: the benchmark's own call into
    # the program (building the DartSystem, reading the result).
    "harness": ("item",),
}

#: Busy-time metric -> span names; the outermost of them are summed.
BUSY: Dict[str, Tuple[str, ...]] = {
    "acquisition.busy_ms": ("acquisition.acquire",),
    "wrapping.wrap_busy_ms": ("wrapping.wrap_html",),
    "wrapping.generate_busy_ms": ("wrapping.generate",),
    "constraints.detect_busy_ms": LAYERS["constraints"],
    "interactive.busy_ms": ("interactive.run",),
    "translation.busy_ms": ("translation.translate",),
    "milp.busy_ms": ("milp.solve",),
    "certify.busy_ms": LAYERS["certify"],
    "cascade.busy_ms": ("cascade.run",),
    "store.get_busy_ms": ("store.get",),
    "store.put_busy_ms": ("store.put",),
    "journal.append_busy_ms": ("journal.append",),
}


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    *parents, attribute = dotted.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self._item: Optional[int] = None
        self._installed: List[tuple] = []

    def install(self) -> None:
        for module_name, dotted, name, counts in ENTRY_POINTS:
            owner, attribute = _resolve(module_name, dotted)
            original = vars(owner)[attribute]
            setattr(owner, attribute, self._traced(original, name, counts))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def _begin(self, name: str) -> list:
        parent = self._open[-1] if self._open else None
        span = [name, perf_counter(), 0.0, parent, self._item, None]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span: list) -> None:
        span[END] = perf_counter()
        self._open.pop()

    def _traced(self, function: Callable, name: str, counts: Optional[Callable]):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = tracer._begin(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer._end(span)
            if counts is not None:
                span[ATTRS] = counts(result, args)
            return result

        return traced

    def begin_item(self, item: int) -> None:
        self._item = item
        self._begin("item")

    def end_item(self) -> None:
        self._end(self.spans[self._open[-1]])
        self._item = None

    def write(self, path: Path) -> None:
        """Dump every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "parent": span[PARENT],
                    "item": span[ITEM],
                    "attrs": span[ATTRS],
                }
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def layer_metrics(spans: Sequence[list], prefix: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run (see the module docstring)."""
    duration = [span[END] - span[START] for span in spans]
    covered = [0.0] * len(spans)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            covered[span[PARENT]] += duration[index]
    items = [i for i, span in enumerate(spans) if span[NAME] == "item"]
    item_time = sum(duration[i] for i in items)
    n_items = len(items)

    def ancestors(index: int) -> Iterable[int]:
        parent = spans[index][PARENT]
        while parent is not None:
            yield parent
            parent = spans[parent][PARENT]

    def outermost(names: Tuple[str, ...]) -> List[int]:
        return [
            i for i, span in enumerate(spans)
            if span[NAME] in names
            and not any(spans[a][NAME] in names for a in ancestors(i))
        ]

    def self_time(names: Tuple[str, ...]) -> float:
        return sum(
            duration[i] - covered[i]
            for i, span in enumerate(spans) if span[NAME] in names
        )

    def in_prefix(name: str) -> List[list]:
        return [
            span for span in spans
            if span[NAME] == name and span[ITEM] is not None
            and span[ITEM] < prefix
        ]

    def total(name: str, key: str) -> int:
        return sum((span[ATTRS] or {}).get(key, 0) for span in in_prefix(name))

    metrics: Dict[str, float] = {}
    for metric, names in BUSY.items():
        busy = sum(duration[i] for i in outermost(names))
        metrics[metric] = _ratio(busy * 1000.0, n_items)
    for layer, names in LAYERS.items():
        metrics[f"share.{layer}"] = _ratio(self_time(names) * 100.0, item_time)
    metrics["service.self_ms"] = _ratio(
        self_time(LAYERS["service"]) * 1000.0, n_items
    )

    metrics["acquisition.ocr_errors"] = total("acquisition.acquire", "ocr_errors")
    for key in ("rows", "strings_repaired", "unmatched_rows"):
        metrics[f"wrapping.{key}"] = total("wrapping.wrap_html", key)
    for key in ("tuples", "skipped_rows"):
        metrics[f"wrapping.{key}"] = total("wrapping.generate", key)
    metrics["constraints.violations"] = total("constraints.violations", "violations")
    for key in ("iterations", "values_inspected"):
        metrics[f"interactive.{key}"] = total("interactive.run", key)
    metrics["interactive.solves"] = sum(
        1 for i in outermost(("repair.find",))
        if spans[i][ITEM] is not None and spans[i][ITEM] < prefix
        and any(spans[a][NAME] == "interactive.run" for a in ancestors(i))
    )
    for key in ("variables", "rows"):
        metrics[f"translation.{key}"] = total("translation.translate", key)
    for key in ("nodes", "pivots", "refactorizations", "cuts", "presolve_reductions"):
        metrics[f"milp.{key}"] = total("milp.solve", key)
    warm_hits = total("milp.solve", "warm_hits")
    metrics["milp.warm_start_hit_ratio"] = _ratio(
        warm_hits, warm_hits + total("milp.solve", "warm_fallbacks")
    )
    metrics["certify.calls"] = sum(len(in_prefix(n)) for n in LAYERS["certify"])
    metrics["certify.degraded"] = total("milp.solve", "degraded")
    metrics["cascade.milp_free_ratio"] = _ratio(
        total("cascade.run", "milp_free"), len(in_prefix("cascade.run"))
    )
    for tier in ("t1", "t2", "t3", "t4"):
        metrics[f"cascade.resolved.{tier}"] = total("cascade.run", tier)
    gets = in_prefix("cache.get")
    metrics["cache.hit_ratio"] = _ratio(total("cache.get", "hit"), len(gets))
    metrics["cache.store_hits"] = total("store.get", "hit")
    appends = in_prefix("journal.append")
    metrics["journal.records"] = len(appends)
    metrics["journal.bytes"] = (
        _ratio(appends[-1][ATTRS]["size"] - appends[0][ATTRS]["size"],
               len(appends) - 1)
        if appends else 0.0
    )

    # Requests by how the solve cache served them.
    gets_by_item: Dict[int, List[list]] = {}
    for span in gets:
        gets_by_item.setdefault(span[ITEM], []).append(span)
    store_hit_items = {
        span[ITEM] for span in in_prefix("store.get") if span[ATTRS]["hit"]
    }
    kinds = {"fresh": 0, "memory_hits": 0, "store_hits": 0}
    for item, item_gets in gets_by_item.items():
        if any(not span[ATTRS]["hit"] for span in item_gets):
            kinds["fresh"] += 1
        elif item in store_hit_items:
            kinds["store_hits"] += 1
        else:
            kinds["memory_hits"] += 1
    for kind, count in kinds.items():
        metrics[f"service.{kind}"] = count

    metrics["trace.items"] = n_items
    metrics["trace.child_coverage_min_pct"] = min(
        (_ratio(covered[i] * 100.0, duration[i]) for i in items), default=0.0
    )
    return metrics
