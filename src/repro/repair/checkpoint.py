"""Append-only batch checkpoint journal: crash-safe progress, cheap resume.

``repair_batch`` can journal every completed task result to a
checkpoint file.  The file is JSON-lines:

- line 1 is a **header** record (``{"kind": "header", ...}``) carrying
  the batch shape (task count, backend, timeout) so a resume against a
  *different* batch is refused loudly;
- every subsequent line is one **result** record
  (``{"kind": "result", "index": i, "fingerprint": ..., ...}``)
  holding the full :class:`~repro.repair.batch.BatchItemResult` --
  status, repair updates, objective, gap, error text and the complete
  per-solve :class:`~repro.milp.solver.SolveStats` list -- so a
  resumed run reproduces the uninterrupted run's aggregates exactly.

Durability discipline: each record is written as one ``write()`` of a
full line followed by ``flush()`` + ``os.fsync()``, so a crash (power
loss, OOM kill, operator ^C) can lose at most the record being
written.  The loader tolerates exactly that failure mode: a truncated
or corrupt *final* line is discarded; corruption anywhere earlier
raises :class:`CheckpointError` because it means something other than
a mid-append crash damaged the file.

Resume correctness is anchored on **task fingerprints**: a SHA-256
over the task's name, backend, objective, pins, weights, constraint
definitions and the full database content.  A journaled result is only
reused when the fingerprint of the task *now* matches the fingerprint
recorded *then* -- editing an input CSV between runs silently turns the
stale entry into a miss instead of resurrecting a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.milp.solver import SolveStats
from repro.relational.database import Database
from repro.repair.updates import AtomicUpdate, Repair

JOURNAL_VERSION = 1

#: The ``on_infeasible`` entry of every journal header: an unrepairable
#: task always fails.  Older versions wrote this key too, ``"raise"`` by
#: default, so their journals still resume; one written under their
#: ``"relax"`` mode fails the header check of
#: :meth:`CheckpointJournal.load_completed`, because its relaxed results
#: are ones this code cannot produce.
HEADER_ON_INFEASIBLE = "raise"

#: The :class:`SolveStats` fields a journaled stats entry may set.
#: Journals written by older versions can carry fields that have since
#: been removed (such as the cut-rejection counter); loading drops them.
_STATS_FIELDS = frozenset(f.name for f in fields(SolveStats))


class CheckpointError(RuntimeError):
    """A checkpoint file is unusable for the requested resume."""


# ---------------------------------------------------------------------------
# Task fingerprints
# ---------------------------------------------------------------------------


def _hash_database(digest: "hashlib._Hash", database: Database) -> None:
    for relation_name in database.schema.relation_names:
        digest.update(relation_name.encode("utf-8"))
        for row in database.relation(relation_name):
            digest.update(repr((row.tuple_id, tuple(row.values))).encode("utf-8"))


def task_fingerprint(
    task: "RepairTask",  # noqa: F821 (circular-safe)
    *,
    strategy: str = "exact",
) -> str:
    """A stable content hash of everything that determines a task's result.

    *strategy* is part of the identity because a cascade repair and an
    exact repair of the same instance are different results (different
    tier provenance, possibly different -- though equally minimal --
    update sets), so a journal written under one must not replay for
    the other.
    """
    digest = hashlib.sha256()
    digest.update(repr(task.name).encode("utf-8"))
    digest.update(repr(task.backend).encode("utf-8"))
    digest.update(repr(task.objective.value).encode("utf-8"))
    # Hashed only when non-default so journals from before the cascade
    # existed keep verifying; the 0 keeps the bytes that existing
    # cascade journals were fingerprinted with.
    if strategy != "exact":
        digest.update(repr((strategy, 0)).encode("utf-8"))
    digest.update(
        repr(sorted((task.pins or {}).items())).encode("utf-8")
    )
    digest.update(
        repr(sorted((task.weights or {}).items())).encode("utf-8")
    )
    for constraint in task.constraints:
        digest.update(repr(constraint).encode("utf-8"))
    _hash_database(digest, task.database)
    return digest.hexdigest()


def journal_worthy(result: "BatchItemResult", certify: bool) -> bool:  # noqa: F821
    """May *result* be journalled?  Certification hygiene.

    A journal is replayed verbatim on resume, so with *certify* on, an
    uncertified or ladder-degraded result is never persisted: the
    resumed run re-solves it instead of inheriting a suspect answer
    (the same rule the solve cache applies to its disk tier).
    """
    return not (
        certify
        and (
            result.status == "uncertified"
            or result.certified is False
            or any(s.degraded for s in result.stats)
        )
    )


# ---------------------------------------------------------------------------
# Result (de)serialisation
# ---------------------------------------------------------------------------


def result_to_record(result: "BatchItemResult", fingerprint: str) -> Dict[str, Any]:  # noqa: F821
    """One JSON-safe journal record for a completed task."""
    return {
        "kind": "result",
        "index": result.index,
        "name": result.name,
        "fingerprint": fingerprint,
        "status": result.status,
        "objective": result.objective,
        "backend_used": result.backend_used,
        "fallback_taken": result.fallback_taken,
        "approximate": result.approximate,
        "gap": result.gap,
        "attempts": result.attempts,
        "error": result.error,
        "wall_time": result.wall_time,
        "repair": None
        if result.repair is None
        else [
            {
                "relation": u.relation,
                "tuple_id": u.tuple_id,
                "attribute": u.attribute,
                "old_value": u.old_value,
                "new_value": u.new_value,
            }
            for u in result.repair
        ],
        "stats": [_stats_entry(s) for s in result.stats],
        "certified": result.certified,
    }


def _stats_entry(stats: SolveStats) -> Dict[str, Any]:
    """One journaled stats entry: every field in order, except that
    ``certify_replays`` appears only when non-zero, so a record of a
    solve the float pass certified keeps the bytes it had before the
    counter existed."""
    entry = stats.as_dict()
    if not entry["certify_replays"]:
        del entry["certify_replays"]
    return entry


def record_to_result(record: Dict[str, Any]) -> "BatchItemResult":  # noqa: F821
    """Rebuild a :class:`BatchItemResult` from its journal record."""
    from repro.repair.batch import BatchItemResult  # circular at import time

    repair = None
    if record.get("repair") is not None:
        repair = Repair(
            AtomicUpdate(
                relation=u["relation"],
                tuple_id=u["tuple_id"],
                attribute=u["attribute"],
                old_value=u["old_value"],
                new_value=u["new_value"],
            )
            for u in record["repair"]
        )
    stats = [
        SolveStats(**{k: v for k, v in entry.items() if k in _STATS_FIELDS})
        for entry in record.get("stats", [])
    ]
    return BatchItemResult(
        index=record["index"],
        name=record.get("name", ""),
        status=record["status"],
        repair=repair,
        objective=record.get("objective"),
        backend_used=record.get("backend_used", ""),
        fallback_taken=bool(record.get("fallback_taken", False)),
        approximate=bool(record.get("approximate", False)),
        gap=record.get("gap"),
        attempts=int(record.get("attempts", 1)),
        error=record.get("error"),
        wall_time=float(record.get("wall_time", 0.0)),
        stats=stats,
        certified=record.get("certified"),
        resumed=True,
    )


# ---------------------------------------------------------------------------
# The journal
# ---------------------------------------------------------------------------


@dataclass
class LoadedJournal:
    """Everything a resume needs from an existing checkpoint file."""

    header: Dict[str, Any]
    records: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: Number of trailing bytes discarded as a torn (mid-crash) write.
    truncated_bytes: int = 0


def _parses_as_record(line: bytes) -> bool:
    if not line.strip():
        return False
    try:
        return isinstance(json.loads(line.decode("utf-8")), dict)
    except (json.JSONDecodeError, UnicodeDecodeError):
        return False


class CheckpointJournal:
    """Append-only, fsync-per-record journal of batch task results."""

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)

    # -- writing -----------------------------------------------------------

    def _append_line(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), allow_nan=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def write_header(self, **meta: Any) -> None:
        self._append_line({"kind": "header", "version": JOURNAL_VERSION, **meta})

    def append_result(self, result: "BatchItemResult", fingerprint: str) -> None:  # noqa: F821
        self._append_line(result_to_record(result, fingerprint))

    # -- reading -----------------------------------------------------------

    def exists(self) -> bool:
        return self.path.exists() and self.path.stat().st_size > 0

    def load(self) -> LoadedJournal:
        """Parse the journal, tolerating a torn tail only.

        A *torn tail* is an unparseable suffix with no valid record
        after it -- the shape a crash mid-append leaves behind (the
        garbage may span several newlines; torn bytes are arbitrary).
        Unparseable bytes *followed by* valid records are mid-file
        corruption and stay a hard error: silently skipping them would
        mean replaying a journal somebody (or some disk) edited.
        """
        raw = self.path.read_bytes()
        lines = raw.split(b"\n")
        parsed: List[Dict[str, Any]] = []
        truncated = 0
        offset = 0
        for position, line in enumerate(lines):
            if not line.strip():
                offset += len(line) + 1
                continue
            try:
                parsed.append(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                if not any(
                    _parses_as_record(rest) for rest in lines[position + 1:]
                ):
                    truncated = len(raw) - offset
                    break
                raise CheckpointError(
                    f"{self.path}: corrupt journal line {position + 1} "
                    f"(not at end of file): {exc}"
                ) from exc
            offset += len(line) + 1
        if not parsed:
            raise CheckpointError(f"{self.path}: journal is empty")
        header = parsed[0]
        if header.get("kind") != "header":
            raise CheckpointError(
                f"{self.path}: first record is not a header (got "
                f"{header.get('kind')!r})"
            )
        if header.get("version") != JOURNAL_VERSION:
            raise CheckpointError(
                f"{self.path}: journal version {header.get('version')!r} is "
                f"not supported (expected {JOURNAL_VERSION})"
            )
        loaded = LoadedJournal(header=header, truncated_bytes=truncated)
        for record in parsed[1:]:
            if record.get("kind") != "result":
                continue
            # Last write wins: a retried task's newer record replaces
            # the older one.
            loaded.records[int(record["index"])] = record
        return loaded

    def truncate_torn_tail(self) -> int:
        """Cut any torn tail off the file; returns bytes discarded.

        ``load`` tolerates a torn tail, but only at end-of-file --
        appending new records *past* one would strand the garbage
        mid-file and make the journal unloadable after a second crash.
        Every resume must therefore call this before its first append;
        :meth:`start_run` does.
        """
        if not self.exists():
            return 0
        loaded = self.load()
        if loaded.truncated_bytes:
            keep = self.path.stat().st_size - loaded.truncated_bytes
            with open(self.path, "rb+") as handle:
                handle.truncate(keep)
                handle.flush()
                os.fsync(handle.fileno())
        return loaded.truncated_bytes

    def start_run(
        self,
        tasks: "List[RepairTask]",  # noqa: F821
        fingerprints: List[str],
        header_meta: Dict[str, Any],
        *,
        resume: bool = True,
        require_certified: bool = False,
    ) -> Dict[int, "BatchItemResult"]:  # noqa: F821
        """Open the journal for a run; returns the results to replay.

        With *resume* and an existing journal, the torn tail is cut off
        and the fingerprint-verified results are loaded
        (:meth:`load_completed`, checked against *header_meta*).
        Otherwise any existing journal is discarded and a fresh header
        carrying *header_meta* is written.
        """
        if resume and self.exists():
            self.truncate_torn_tail()
            completed, _ = self.load_completed(
                tasks,
                fingerprints,
                expected_meta=header_meta,
                require_certified=require_certified,
            )
            return completed
        if self.exists():
            self.path.unlink()
        self.write_header(**header_meta)
        return {}

    def load_completed(
        self,
        tasks: "List[RepairTask]",  # noqa: F821
        fingerprints: List[str],
        *,
        expected_meta: Optional[Dict[str, Any]] = None,
        require_certified: bool = False,
    ) -> Tuple[Dict[int, "BatchItemResult"], LoadedJournal]:  # noqa: F821
        """Results reusable for *tasks*, keyed by task index.

        A journaled record is reused only when its index is in range
        and its recorded fingerprint matches the task's current
        fingerprint.  ``expected_meta`` entries (e.g. ``n_tasks``,
        ``backend``) are cross-checked against the header; a mismatch
        raises :class:`CheckpointError` because it means the journal
        belongs to a different batch configuration.

        ``require_certified=True`` additionally drops journaled
        *repaired* results whose ``certified`` flag is not ``True`` --
        the crash-recovery replay of the repair service, which promises
        to re-solve any uncertified tail rather than inherit it.
        (Results that carry no repair to certify -- consistent or
        failed tasks -- pass through on their status alone.)
        """
        loaded = self.load()
        for key, expected in (expected_meta or {}).items():
            if key not in loaded.header:
                # A streaming-intake header (repair service submit())
                # cannot know e.g. n_tasks up front; absence is "not
                # recorded", not a mismatch.
                continue
            recorded = loaded.header.get(key)
            if recorded != expected:
                raise CheckpointError(
                    f"{self.path}: header {key}={recorded!r} does not match "
                    f"this batch ({key}={expected!r}); refusing to resume"
                )
        completed: Dict[int, "BatchItemResult"] = {}
        for index, record in loaded.records.items():
            if not 0 <= index < len(tasks):
                continue
            if record.get("fingerprint") != fingerprints[index]:
                continue  # the input changed since the journal was written
            if (
                require_certified
                and record.get("status") == "repaired"
                and record.get("certified") is not True
            ):
                continue  # uncertified tail: re-solve, never replay
            completed[index] = record_to_result(record)
        return completed, loaded
