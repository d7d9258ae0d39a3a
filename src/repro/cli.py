"""Command-line interface: ``python -m repro <command>``.

A DART *project directory* holds the acquisition designer's metadata
plus the acquired data:

- ``schema.txt``       -- relational schema + measure attributes
  (format of :mod:`repro.relational.schematext`);
- ``constraints.dsl``  -- aggregation functions + steady aggregate
  constraints (format of :mod:`repro.constraints.parser`);
- ``<Relation>.csv``   -- one CSV per relation (header = attributes).

Commands:

- ``check <dir>``   -- report D |= AC and list every violation;
- ``repair <dir>``  -- compute a card-minimal repair, print the
  suggested updates (in the validation interface's involvement order),
  optionally write the repaired instance with ``--output``; on an
  unrepairable instance ``--explain-infeasible`` extracts an IIS and
  names the exact conflicting constraints and pins;
- ``batch <dir> [<dir> ...]`` -- repair many project directories as
  one batch: ``--workers`` fans them out over a process pool,
  ``--timeout`` budgets each solve (anytime: an expired budget yields
  an approximate repair with a certified gap, else a fallback to the
  alternate MILP backend), ``--cache`` sizes the LRU solve cache,
  ``--checkpoint`` journals completed tasks so an interrupted run
  resumes instead of restarting, ``--store`` backs every cache with a
  durable result store so duplicate documents are free across runs,
  and the run ends with the batch report (solves, cache hits, nodes,
  pivots, wall time);
- ``serve <dir> [<dir> ...]`` -- run the corpus through the repair
  *service* (:mod:`repro.repair.service`): durable store, per-backend
  circuit breakers, checkpoint-journal crash recovery (only certified
  results replay), graceful drain on SIGTERM, and a
  health/integrity summary at the end;
- ``answers <dir> --function f --args a,b`` -- consistent query
  answering: the glb/lub of an aggregation function over all
  card-minimal repairs;
- ``demo``          -- run the paper's running example end to end;
- ``init <dir>``    -- scaffold a project directory with the running
  example's metadata and the (inconsistent) Figure 3 data.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.constraints.parser import parse_constraints
from repro.diagnostics import SolveTimeoutError
from repro.milp.cache import DEFAULT_CACHE_SIZE
from repro.milp.scipy_backend import native_output_to_stderr
from repro.milp.solver import DEFAULT_BACKEND, available_backends
from repro.relational.csvio import dump_database, load_database
from repro.relational.schematext import dump_schema, load_schema
from repro.milp.iis import IISError
from repro.repair.batch import RepairTask, repair_batch
from repro.repair.cqa import consistent_aggregate_answer
from repro.repair.engine import STRATEGIES, RepairEngine, UnrepairableError
from repro.repair.interactive import involvement_order
from repro.repair.translation import RepairObjective, translate


class CliError(SystemExit):
    """Raised (as an exit) for user errors; carries exit code 2."""

    def __init__(self, message: str) -> None:
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _load_project(directory: str):
    root = Path(directory)
    schema_path = root / "schema.txt"
    constraints_path = root / "constraints.dsl"
    if not schema_path.exists():
        raise CliError(f"{schema_path} not found")
    if not constraints_path.exists():
        raise CliError(f"{constraints_path} not found")
    schema = load_schema(schema_path)
    functions, constraints = parse_constraints(
        constraints_path.read_text(encoding="utf-8")
    )
    database = load_database(schema, root)
    if database.total_tuples() == 0:
        raise CliError(f"no data rows found in {root} (expected <Relation>.csv)")
    return schema, functions, constraints, database


def cmd_check(args: argparse.Namespace) -> int:
    _, _, constraints, database = _load_project(args.directory)
    engine = RepairEngine(database, constraints)
    violations = engine.violations()
    print(f"{database.total_tuples()} tuples, "
          f"{len(engine.ground_system)} ground constraints")
    if not violations:
        print("CONSISTENT: the instance satisfies all constraints")
        return 0
    print(f"INCONSISTENT: {len(violations)} violated ground constraint(s)")
    for violation in violations:
        print(f"  {violation}")
    return 1


def _parse_pins(specs: Optional[Sequence[str]]) -> Dict:
    """Parse repeated ``--pin Relation:tuple_id:Attribute=value`` flags."""
    pins: Dict = {}
    for spec in specs or []:
        head, eq, raw_value = spec.partition("=")
        parts = head.split(":")
        if not eq or len(parts) != 3:
            raise CliError(
                f"bad --pin {spec!r} (expected Relation:tuple_id:Attribute=value)"
            )
        relation, raw_id, attribute = parts
        try:
            pins[(relation, int(raw_id), attribute)] = float(raw_value)
        except ValueError:
            raise CliError(f"bad --pin {spec!r}: tuple_id must be an integer "
                           f"and value a number")
    return pins


def cmd_repair(args: argparse.Namespace) -> int:
    _, _, constraints, database = _load_project(args.directory)
    objective = RepairObjective(args.objective)
    pins = _parse_pins(args.pin)
    engine = RepairEngine(
        database,
        constraints,
        objective=objective,
        backend=args.backend,
        strategy=args.strategy,
    )
    if args.explain_infeasible:
        try:
            with native_output_to_stderr():
                conflict = engine.explain_infeasible(
                    pins=pins or None, time_limit=args.time_limit
                )
        except IISError as exc:
            print(f"repairable: {exc}")
            return 0
        print(f"INFEASIBLE: {conflict.summary()}")
        for line in conflict.describe().splitlines()[1:]:
            print(line)
        return 2
    if engine.is_consistent() and not pins:
        print("already consistent; nothing to repair")
        return 0
    try:
        with native_output_to_stderr():
            outcome = engine.find_card_minimal_repair(
                pins=pins or None, time_limit=args.time_limit
            )
    except SolveTimeoutError as exc:
        raise CliError(f"time limit expired with no feasible repair: {exc}")
    except UnrepairableError as exc:
        raise CliError(f"unrepairable: {exc}")
    print(f"{len(engine.violations())} violation(s); "
          f"suggested repair changes {outcome.cardinality} value(s):")
    if outcome.approximate:
        print(f"  (anytime result: budget expired; objective is within "
              f"{outcome.gap:g} of the exact optimum)")
    ordered = involvement_order(engine.ground_system, outcome.repair.updates)
    for update in ordered:
        print(f"  {update}")
    print(f"  certificate: {outcome.certificate}")
    if outcome.cascade is not None:
        report = outcome.cascade
        print(f"  cascade: {report.resolved_without_milp}/{report.n_violations} "
              f"violation(s) resolved without the MILP "
              f"({'exact residue solved' if report.milp_invoked else 'MILP never invoked'})")
        for tier_stats in report.tiers:
            print(f"    {tier_stats.tier}: {tier_stats.resolved}/"
                  f"{tier_stats.attempted} resolved, "
                  f"{tier_stats.fallthroughs} passed on")
    translation = outcome.translation
    if translation is None and (args.show_milp or args.export_mps):
        # The core loop and a MILP-free cascade build no S*(AC); build
        # it on the engine's ground system for display and export.
        translation = translate(
            engine.database,
            engine.constraints,
            pins=pins or None,
            grounds=engine.ground_system,
            objective=objective,
        )
    if args.show_milp:
        print("\nMILP instance (Figure 4 layout):")
        print(translation.format_like_figure4())
    if args.export_mps:
        from repro.milp.mps import write_mps

        write_mps(translation.model, args.export_mps)
        print(f"MILP instance exported to {args.export_mps} (free-form MPS)")
    if args.output:
        repaired = engine.apply(outcome.repair)
        written = dump_database(repaired, args.output)
        print(f"repaired instance written to {args.output} "
              f"({len(written)} file(s))")
    if args.stats:
        print("\nsolve statistics:")
        for record in engine.solve_stats:
            print(f"  {record}")
        certified = sum(1 for s in engine.solve_stats if s.certified is True)
        degraded = sum(1 for s in engine.solve_stats if s.degraded)
        print(f"  certification: {certified}/{len(engine.solve_stats)} "
              f"solve(s) certified, {degraded} ladder-degraded")
    return 0


def cmd_batch(args: argparse.Namespace) -> int:
    tasks = []
    for directory in args.directories:
        _, _, constraints, database = _load_project(directory)
        tasks.append(
            RepairTask(
                database=database,
                constraints=constraints,
                name=str(directory),
                objective=RepairObjective(args.objective),
            )
        )
    with native_output_to_stderr():
        report = repair_batch(
            tasks,
            workers=args.workers,
            timeout=args.timeout,
            cache_size=args.cache,
            store=args.store,
            backend=args.backend,
            checkpoint=args.checkpoint,
            resume=not args.no_resume,
            max_task_retries=args.max_task_retries,
            strategy=args.strategy,
        )
    for result in report.results:
        line = f"{result.name}: {result.status}"
        if result.status == "repaired":
            line += f" ({result.cardinality} value(s) changed)"
        if result.approximate:
            line += f" [anytime: within {result.gap:g} of optimal]"
        if result.fallback_taken:
            line += f" [fell back to {result.backend_used}]"
        if result.certified is False or result.status == "uncertified":
            line += " [UNCERTIFIED]"
        if any(s.degraded for s in result.stats):
            line += " [ladder-degraded]"
        if result.resumed:
            line += " [resumed from checkpoint]"
        if result.error and not result.ok:
            line += f" -- {result.error}"
        print(line)
        if args.stats:
            for record in result.stats:
                print(f"    {record}")
    if args.output_dir:
        out_root = Path(args.output_dir)
        for task, result in zip(tasks, report.results):
            if result.repair is None:
                continue
            from repro.repair.updates import apply_repair

            target = out_root / Path(task.name).name
            dump_database(apply_repair(task.database, result.repair), target)
        print(f"repaired instances written under {out_root}")
    print(report.summary())
    return 0 if report.n_failed == 0 else 1


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.repair.service import RepairService, ServiceConfig

    tasks = []
    for directory in args.directories:
        _, _, constraints, database = _load_project(directory)
        tasks.append(
            RepairTask(
                database=database,
                constraints=constraints,
                name=str(directory),
                objective=RepairObjective(args.objective),
            )
        )
    config = ServiceConfig(
        store=args.store,
        checkpoint=args.checkpoint,
        backend=args.backend,
        timeout=args.timeout,
        cache_size=args.cache,
        strategy=args.strategy,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        max_task_retries=args.max_task_retries,
    )
    with RepairService(config) as service:
        service.install_signal_handlers()
        with native_output_to_stderr():
            report = service.run(tasks, resume=not args.no_resume)
        for result in report.results:
            line = f"{result.name}: {result.status}"
            if result.status == "repaired":
                line += f" ({result.cardinality} value(s) changed)"
            if result.fallback_taken:
                line += f" [rerouted to {result.backend_used}]"
            if result.resumed:
                line += " [replayed from journal]"
            if result.error and not result.ok:
                line += f" -- {result.error}"
            print(line)
        health = service.health()
        print(report.summary())
        breakers = health["breakers"] or {}
        if breakers:
            rendered = ", ".join(f"{b}={s}" for b, s in breakers.items())
            print(f"breakers: {rendered}")
        if health["store"] is not None:
            store_info = health["store"]
            print(
                f"store: {store_info['rows']} row(s), "
                f"{store_info['hits']} hit(s) / {store_info['misses']} miss(es), "
                f"{store_info['corrupt_evictions']} corrupt eviction(s), "
                f"{store_info['corrupt_recoveries']} rebuild(s)"
            )
        if args.integrity_scan:
            integrity = service.integrity_report()
            if integrity is None:
                print("integrity: no store configured")
            else:
                print(
                    f"integrity: {integrity.rows_checked} row(s) checked, "
                    f"{integrity.rows_evicted} evicted, "
                    f"sqlite={integrity.sqlite_verdict} "
                    f"({'OK' if integrity.ok else 'REPAIRED'})"
                )
        if service.draining:
            print("drained: stopped on request; pending manifest written")
    incomplete = report.n_tasks < len(tasks)
    return 0 if report.n_failed == 0 and not incomplete else 1


def cmd_answers(args: argparse.Namespace) -> int:
    _, functions, constraints, database = _load_project(args.directory)
    if args.function not in functions:
        raise CliError(
            f"unknown aggregation function {args.function!r}; "
            f"available: {', '.join(sorted(functions))}"
        )
    function = functions[args.function]
    raw_arguments = [a for a in (args.args or "").split(",") if a != ""]
    if len(raw_arguments) != function.arity:
        raise CliError(
            f"{args.function} expects {function.arity} argument(s), "
            f"got {len(raw_arguments)}"
        )
    arguments: List[Any] = []
    for raw in raw_arguments:
        try:
            arguments.append(int(raw))
        except ValueError:
            try:
                arguments.append(float(raw))
            except ValueError:
                arguments.append(raw)
    engine = RepairEngine(database, constraints)
    with native_output_to_stderr():
        answer = consistent_aggregate_answer(engine, function, arguments)
    print(f"{args.function}({', '.join(map(str, arguments))})")
    print(f"  value on the acquired instance: {answer.acquired_value:g}")
    print(f"  over all card-minimal repairs:  {answer}")
    return 0 if answer.is_consistent else 1


def cmd_demo(args: argparse.Namespace) -> int:
    from repro.datasets import (
        cash_budget_constraints,
        paper_acquired_instance,
        paper_ground_truth,
    )
    from repro.repair.interactive import OracleOperator, ValidationLoop

    database = paper_acquired_instance()
    engine = RepairEngine(database, cash_budget_constraints())
    print("the paper's running example (Figure 3, acquired with one error):")
    for violation in engine.violations():
        print(f"  violated: {violation}")
    with native_output_to_stderr():
        outcome = engine.find_card_minimal_repair()
    print(f"card-minimal repair: {outcome.repair}")
    operator = OracleOperator(paper_ground_truth(), acquired=database)
    with native_output_to_stderr():
        session = ValidationLoop(engine, operator).run(first_outcome=outcome)
    print(f"validation: accepted after {session.iterations} iteration(s), "
          f"{session.values_inspected} value(s) inspected")
    return 0


def cmd_init(args: argparse.Namespace) -> int:
    from repro.datasets import paper_acquired_instance
    from repro.datasets.cashbudget import CASH_BUDGET_CONSTRAINT_DSL

    root = Path(args.directory)
    root.mkdir(parents=True, exist_ok=True)
    database = paper_acquired_instance()
    (root / "schema.txt").write_text(dump_schema(database.schema), encoding="utf-8")
    (root / "constraints.dsl").write_text(
        CASH_BUDGET_CONSTRAINT_DSL.strip() + "\n", encoding="utf-8"
    )
    dump_database(database, root)
    print(f"initialised DART project in {root} with the running example")
    print("try:  python -m repro check " + str(root))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DART: data acquisition and repairing tool (EDBT 2006 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_check = subparsers.add_parser("check", help="check D |= AC")
    p_check.add_argument("directory")
    p_check.set_defaults(func=cmd_check)

    p_repair = subparsers.add_parser("repair", help="compute a minimal repair")
    p_repair.add_argument("directory")
    p_repair.add_argument(
        "--objective",
        choices=[o.value for o in RepairObjective],
        default=RepairObjective.CARDINALITY.value,
        help="minimality semantics (default: the paper's card-minimality)",
    )
    p_repair.add_argument(
        "--output", help="directory to write the repaired CSVs into"
    )
    p_repair.add_argument(
        "--show-milp", action="store_true",
        help="print the MILP instance in the paper's Figure 4 layout",
    )
    p_repair.add_argument(
        "--export-mps",
        help="write the MILP instance to this path as free-form MPS",
    )
    p_repair.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="MILP backend (default: %(default)s)",
    )
    p_repair.add_argument(
        "--strategy",
        choices=list(STRATEGIES),
        default="exact",
        help="repair strategy: 'exact' always solves the MILP; 'cascade' "
             "tries confusion-matrix inversion and a certified greedy "
             "tier first, invoking the MILP only on "
             "the residue (same card-minimality guarantee) "
             "(default: %(default)s)",
    )
    p_repair.add_argument(
        "--stats", action="store_true",
        help="print per-solve statistics (wall time, nodes, pivots, "
             "warm-start hits, heuristic seeding)",
    )
    p_repair.add_argument(
        "--time-limit", type=float, default=None,
        help="wall-clock solve budget in seconds; on expiry the best "
             "incumbent is returned as an approximate repair with a "
             "certified optimality gap (anytime solving)",
    )
    p_repair.add_argument(
        "--pin", action="append", metavar="REL:ID:ATTR=VALUE",
        help="operator pin: fix Relation[tuple_id].Attribute to VALUE "
             "(repeatable; pins are hard constraints)",
    )
    p_repair.add_argument(
        "--explain-infeasible", action="store_true",
        help="do not repair; extract an irreducible infeasible subsystem "
             "and print the conflicting ground constraints, pins and "
             "cells (exit 2 when infeasible, 0 when repairable)",
    )
    p_repair.set_defaults(func=cmd_repair)

    p_batch = subparsers.add_parser(
        "batch", help="repair many project directories as one parallel batch"
    )
    p_batch.add_argument("directories", nargs="+")
    p_batch.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (default: run sequentially in-process)",
    )
    p_batch.add_argument(
        "--timeout", type=float, default=None,
        help="per-task solve deadline in seconds; a timed-out task is "
             "retried once on the alternate MILP backend",
    )
    p_batch.add_argument(
        "--cache", type=int, default=DEFAULT_CACHE_SIZE,
        help="LRU solve-cache size per worker, 0 disables "
             "(default: %(default)s)",
    )
    p_batch.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="primary MILP backend (default: %(default)s)",
    )
    p_batch.add_argument(
        "--objective",
        choices=[o.value for o in RepairObjective],
        default=RepairObjective.CARDINALITY.value,
        help="minimality semantics (default: the paper's card-minimality)",
    )
    p_batch.add_argument(
        "--strategy",
        choices=list(STRATEGIES),
        default="exact",
        help="repair strategy for every task; 'cascade' resolves most "
             "violations without the MILP (default: %(default)s)",
    )
    p_batch.add_argument(
        "--stats", action="store_true",
        help="print per-solve statistics for every document",
    )
    p_batch.add_argument(
        "--output-dir",
        help="directory to write each repaired instance into "
             "(one subdirectory per project)",
    )
    p_batch.add_argument(
        "--checkpoint",
        help="journal completed tasks to this file (append + fsync); "
             "re-running against an existing journal resumes where the "
             "interrupted run stopped",
    )
    p_batch.add_argument(
        "--store",
        help="durable result store (SQLite) backing every solve cache; "
             "certified solutions persist across runs, so re-repairing "
             "an unchanged corpus does zero MILP solves",
    )
    p_batch.add_argument(
        "--no-resume", action="store_true",
        help="ignore an existing checkpoint journal and start over "
             "(the journal is truncated)",
    )
    p_batch.add_argument(
        "--max-task-retries", type=int, default=2,
        help="crash retries per task before it is quarantined "
             "(default: %(default)s)",
    )
    p_batch.set_defaults(func=cmd_batch)

    p_serve = subparsers.add_parser(
        "serve",
        help="run a corpus through the durable repair service "
             "(store + breakers + journal recovery + graceful drain)",
    )
    p_serve.add_argument("directories", nargs="+")
    p_serve.add_argument(
        "--store",
        help="durable result store (SQLite); certified solutions "
             "persist across service restarts",
    )
    p_serve.add_argument(
        "--checkpoint",
        help="checkpoint journal; a restarted service replays certified "
             "results and re-solves only the uncertified tail",
    )
    p_serve.add_argument(
        "--backend",
        choices=available_backends(),
        default=DEFAULT_BACKEND,
        help="primary MILP backend; a sick backend's circuit breaker "
             "shifts traffic to the alternate (default: %(default)s)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=None,
        help="per-task solve deadline in seconds",
    )
    p_serve.add_argument(
        "--cache", type=int, default=DEFAULT_CACHE_SIZE,
        help="in-memory LRU tier size in front of the store "
             "(default: %(default)s)",
    )
    p_serve.add_argument(
        "--objective",
        choices=[o.value for o in RepairObjective],
        default=RepairObjective.CARDINALITY.value,
        help="minimality semantics (default: the paper's card-minimality)",
    )
    p_serve.add_argument(
        "--strategy",
        choices=list(STRATEGIES),
        default="exact",
        help="repair strategy (default: %(default)s)",
    )
    p_serve.add_argument(
        "--breaker-threshold", type=int, default=3,
        help="consecutive backend failures before its circuit breaker "
             "opens (default: %(default)s)",
    )
    p_serve.add_argument(
        "--breaker-cooldown", type=float, default=30.0,
        help="seconds an open breaker waits before a half-open probe "
             "(default: %(default)s)",
    )
    p_serve.add_argument(
        "--max-task-retries", type=int, default=2,
        help="crash retries per backend before it counts as a backend "
             "failure (default: %(default)s)",
    )
    p_serve.add_argument(
        "--no-resume", action="store_true",
        help="ignore an existing checkpoint journal and start over",
    )
    p_serve.add_argument(
        "--integrity-scan", action="store_true",
        help="run the store's row-by-row integrity scan after the corpus "
             "and print the verdict",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_answers = subparsers.add_parser(
        "answers", help="consistent query answering over card-minimal repairs"
    )
    p_answers.add_argument("directory")
    p_answers.add_argument("--function", required=True,
                           help="aggregation function name from constraints.dsl")
    p_answers.add_argument("--args", default="",
                           help="comma-separated ground arguments")
    p_answers.set_defaults(func=cmd_answers)

    p_demo = subparsers.add_parser("demo", help="run the paper's running example")
    p_demo.set_defaults(func=cmd_demo)

    p_init = subparsers.add_parser(
        "init", help="scaffold a project directory with the running example"
    )
    p_init.add_argument("directory")
    p_init.set_defaults(func=cmd_init)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
