"""Durable content-addressed result store: cross-run solve reuse.

The LRU solve cache (:mod:`repro.milp.cache`) dies with the process,
so every CLI invocation re-pays full MILP cost for documents it has
already repaired.  :class:`ResultStore` promotes that cache to disk --
a SQLite database in WAL mode, keyed by the same canonical model
fingerprints (:mod:`repro.milp.fingerprint`) -- so duplicate documents
are free *across* runs, processes and tenants.  HoloClean persists its
grounding store for the same reason; EarlyRepairer journals every
repair result to SQLite.

Robustness contract (the reason this module exists at all):

- **atomic commit** -- every ``put`` is one SQLite transaction in WAL
  mode.  A ``kill -9`` mid-write can lose the row being written, never
  corrupt a committed one: WAL recovery discards the torn tail frames
  on the next open, exactly like the checkpoint journal's torn-line
  tolerance;
- **per-row integrity checksums** -- each payload is stored alongside
  a SHA-256 over ``key + payload``.  ``get`` recomputes it on every
  read; a mismatching row (bit rot, a tampered file, a torn page that
  escaped SQLite's own guards) is **evicted and re-solved, never
  served**.  The checksum covers the key too, so a row transplanted
  under a different key also fails;
- **whole-file self-healing** -- if SQLite itself reports the database
  unusable (``DatabaseError`` on open or query), the file is moved
  aside to ``<path>.corrupt`` and a fresh store is started: the
  service degrades to cold-cache behaviour instead of falling over.
  The event is counted (``corrupt_recoveries``) and surfaced through
  :meth:`ResultStore.info` so operators see it;
- **admission control** -- the store never decides what is safe to
  persist; callers do.  :class:`~repro.milp.cache.SolveCache` only
  forwards first-rung-**certified** results (see
  :func:`~repro.milp.solver.solve_with_stats`), and every hit is re-certified
  on read by the solver, so a poisoned-but-checksummed row still
  cannot reach a caller.

Concurrency: one :class:`ResultStore` instance per process (WAL allows
concurrent readers with a single writer; writers queue on SQLite's own
locking with ``busy_timeout``).  Within a process a single lock guards
the shared connection, so one instance may be shared by threads.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import sqlite3
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.milp.model import Solution, SolveStatus

logger = logging.getLogger(__name__)

#: Bump when the row layout or payload encoding changes; a store with
#: a different version is rebuilt rather than misread.
STORE_VERSION = 1

#: Seconds SQLite waits on a locked database before erroring.
BUSY_TIMEOUT = 30.0

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    name TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    backend TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    payload TEXT NOT NULL,
    checksum TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_fingerprint
    ON results (fingerprint);
"""


def _render_key(key: Tuple[str, str, str]) -> str:
    """The canonical flat string for a cache key tuple."""
    return json.dumps(list(key), separators=(",", ":"))


def _checksum(rendered_key: str, payload: str) -> str:
    digest = hashlib.sha256()
    digest.update(rendered_key.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(payload.encode("utf-8"))
    return digest.hexdigest()


def solution_to_payload(solution: Solution) -> str:
    """Canonical JSON for one solution (deterministic, roundtrip-exact).

    ``sort_keys`` plus compact separators make the encoding a pure
    function of the solution's content, so the checksum is stable, and
    JSON's shortest-roundtrip float repr makes decode(encode(x))
    bitwise-identical -- the cross-run reuse tests rely on it.
    """
    return json.dumps(
        {
            "status": solution.status.value,
            "objective": solution.objective,
            "values": solution.values,
            "stats": solution.stats,
        },
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=True,
    )


def payload_to_solution(payload: str) -> Solution:
    record = json.loads(payload)
    return Solution(
        status=SolveStatus(record["status"]),
        objective=record.get("objective"),
        values=record.get("values"),
        stats=record.get("stats") or {},
    )


@dataclass
class StoreIntegrityReport:
    """Outcome of one :meth:`ResultStore.integrity_scan`."""

    rows_checked: int = 0
    rows_evicted: int = 0
    #: SQLite's own ``PRAGMA integrity_check`` verdict ("ok" or the
    #: first reported problem).
    sqlite_verdict: str = "ok"
    #: Keys of the rows the scan evicted (checksum mismatch / garbage).
    evicted_keys: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.rows_evicted == 0 and self.sqlite_verdict == "ok"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rows_checked": self.rows_checked,
            "rows_evicted": self.rows_evicted,
            "sqlite_verdict": self.sqlite_verdict,
            "evicted_keys": list(self.evicted_keys),
            "ok": self.ok,
        }


@dataclass
class StoreInfo:
    """Counters for one store instance's lifetime."""

    path: str
    rows: int = 0
    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: Rows served-then-evicted because their checksum failed on read.
    corrupt_evictions: int = 0
    #: Times the whole file was judged unusable and rebuilt.
    corrupt_recoveries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "rows": self.rows,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "hit_rate": self.hit_rate,
            "corrupt_evictions": self.corrupt_evictions,
            "corrupt_recoveries": self.corrupt_recoveries,
        }


class ResultStore:
    """Disk-backed map ``cache key -> Solution`` with integrity checking.

    ``get``/``put`` mirror :class:`~repro.milp.cache.SolveCache` and
    are safe to call from multiple threads of one process; use one
    instance per process.  All failure handling is contained: a bad
    row returns ``None`` (miss), a bad file rebuilds itself -- callers
    never see an exception for corruption, only for genuine programmer
    errors.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._corrupt_evictions = 0
        self._corrupt_recoveries = 0
        self._connection = self._open()

    # -- lifecycle ---------------------------------------------------------

    def _open(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            return self._connect()
        except sqlite3.DatabaseError as exc:
            self._quarantine_file(exc)
            return self._connect()

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(
            self.path, timeout=BUSY_TIMEOUT, check_same_thread=False
        )
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            # NORMAL in WAL mode is durable against process death
            # (kill -9): committed transactions survive, the torn tail
            # is rolled back by WAL recovery.  Only an OS/power crash
            # can lose (never corrupt) the most recent commits.
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(f"PRAGMA busy_timeout={int(BUSY_TIMEOUT * 1000)}")
            connection.executescript(_SCHEMA)
            version = connection.execute(
                "SELECT value FROM meta WHERE name='version'"
            ).fetchone()
            if version is None:
                with connection:
                    connection.execute(
                        "INSERT OR REPLACE INTO meta (name, value) VALUES (?, ?)",
                        ("version", str(STORE_VERSION)),
                    )
            elif version[0] != str(STORE_VERSION):
                raise sqlite3.DatabaseError(
                    f"store version {version[0]!r} != {STORE_VERSION}"
                )
        except sqlite3.DatabaseError:
            connection.close()
            raise
        return connection

    def _quarantine_file(self, reason: Exception) -> None:
        """Move the unusable file aside and count the recovery."""
        self._corrupt_recoveries += 1
        quarantined = self.path.with_suffix(self.path.suffix + ".corrupt")
        logger.warning(
            "result store %s is unusable (%s); moving aside to %s and "
            "starting fresh",
            self.path, reason, quarantined,
        )
        try:
            if quarantined.exists():
                quarantined.unlink()
            if self.path.exists():
                self.path.replace(quarantined)
            # WAL sidecars of the damaged file must not resurrect it.
            for suffix in ("-wal", "-shm"):
                sidecar = Path(str(self.path) + suffix)
                if sidecar.exists():
                    sidecar.unlink()
        except OSError:
            # Last resort: plain unlink; losing a corrupt cache is
            # always acceptable, serving it never is.
            try:
                self.path.unlink()
            except OSError:
                pass

    def _rebuild(self, reason: Exception) -> None:
        try:
            self._connection.close()
        except sqlite3.Error:
            pass
        self._quarantine_file(reason)
        self._connection = self._connect()

    def close(self) -> None:
        with self._lock:
            try:
                self._connection.close()
            except sqlite3.Error:
                pass

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- the map -----------------------------------------------------------

    def get(self, key: Tuple[str, str, str]) -> Optional[Solution]:
        """The stored solution for *key*, or ``None``.

        A row whose checksum or payload fails verification is deleted
        (self-healing) and reported as a miss: the caller re-solves
        and overwrites it with a good row.
        """
        rendered = _render_key(key)
        with self._lock:
            try:
                row = self._connection.execute(
                    "SELECT payload, checksum FROM results WHERE key=?",
                    (rendered,),
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                self._rebuild(exc)
                row = None
            if row is None:
                self._misses += 1
                return None
            payload, checksum = row
            if checksum != _checksum(rendered, payload):
                self._evict_locked(rendered, "checksum mismatch")
                self._misses += 1
                return None
            try:
                solution = payload_to_solution(payload)
            except (ValueError, KeyError, TypeError) as exc:
                self._evict_locked(rendered, f"undecodable payload ({exc})")
                self._misses += 1
                return None
            self._hits += 1
            return solution

    def _evict_locked(self, rendered_key: str, why: str) -> None:
        logger.warning(
            "result store %s: evicting corrupt row (%s)", self.path, why
        )
        self._corrupt_evictions += 1
        try:
            with self._connection:
                self._connection.execute(
                    "DELETE FROM results WHERE key=?", (rendered_key,)
                )
        except sqlite3.DatabaseError as exc:
            self._rebuild(exc)

    def put(self, key: Tuple[str, str, str], solution: Solution) -> None:
        """Atomically commit one result (last writer wins)."""
        rendered = _render_key(key)
        payload = solution_to_payload(solution)
        backend, _, fingerprint = key
        with self._lock:
            self._puts += 1
            try:
                with self._connection:
                    self._connection.execute(
                        "INSERT OR REPLACE INTO results "
                        "(key, backend, fingerprint, payload, checksum) "
                        "VALUES (?, ?, ?, ?, ?)",
                        (
                            rendered,
                            backend,
                            fingerprint,
                            payload,
                            _checksum(rendered, payload),
                        ),
                    )
            except sqlite3.DatabaseError as exc:
                self._rebuild(exc)

    def evict(self, key: Tuple[str, str, str]) -> None:
        """Drop one row (used when a hit fails re-certification)."""
        rendered = _render_key(key)
        with self._lock:
            self._evict_locked(rendered, "caller-requested eviction")

    # -- maintenance -------------------------------------------------------

    def integrity_scan(self) -> StoreIntegrityReport:
        """Verify every row's checksum and SQLite's own file structure.

        Corrupt rows are evicted as they are found, so a scan both
        reports and repairs; after it returns, every remaining row is
        checksum-clean.
        """
        report = StoreIntegrityReport()
        with self._lock:
            try:
                verdict = self._connection.execute(
                    "PRAGMA integrity_check"
                ).fetchone()
                report.sqlite_verdict = str(verdict[0]) if verdict else "ok"
                rows = self._connection.execute(
                    "SELECT key, payload, checksum FROM results"
                ).fetchall()
            except sqlite3.DatabaseError as exc:
                self._rebuild(exc)
                report.sqlite_verdict = f"rebuilt ({exc})"
                return report
            for rendered, payload, checksum in rows:
                report.rows_checked += 1
                bad = checksum != _checksum(rendered, payload)
                if not bad:
                    try:
                        payload_to_solution(payload)
                    except (ValueError, KeyError, TypeError):
                        bad = True
                if bad:
                    report.rows_evicted += 1
                    report.evicted_keys.append(rendered)
                    self._evict_locked(rendered, "integrity scan")
        if report.sqlite_verdict != "ok":
            self._rebuild(
                sqlite3.DatabaseError(
                    f"integrity_check: {report.sqlite_verdict}"
                )
            )
        return report

    def __len__(self) -> int:
        with self._lock:
            try:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()
            except sqlite3.DatabaseError as exc:
                self._rebuild(exc)
                return 0
            return int(row[0])

    def info(self) -> StoreInfo:
        rows = len(self)
        with self._lock:
            return StoreInfo(
                path=str(self.path),
                rows=rows,
                hits=self._hits,
                misses=self._misses,
                puts=self._puts,
                corrupt_evictions=self._corrupt_evictions,
                corrupt_recoveries=self._corrupt_recoveries,
            )

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"ResultStore({info.path!r}, rows={info.rows}, "
            f"hits={info.hits}, misses={info.misses})"
        )
