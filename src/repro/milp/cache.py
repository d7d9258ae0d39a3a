"""An LRU cache of MILP solutions keyed by canonical model fingerprints.

DART batches routinely contain documents whose acquired tables are
byte-identical (re-issued balance sheets, duplicated submissions, the
same price list scraped twice).  Their grounded MILPs are identical
too, so solving them again is pure waste.  :class:`SolveCache` memoises
``(backend, options, fingerprint) -> Solution`` with LRU eviction.

The cache is *correct by construction*: the key covers everything that
can influence the solution (the full canonical model, the backend name
and the backend options -- minus :data:`PERFORMANCE_OPTIONS`, which
steer the search but never the answer), so a hit can be returned
verbatim.  Cached
:class:`~repro.milp.model.Solution` objects are treated as immutable
by every consumer in this repository; ``get`` hands back the stored
object without copying.

Certification hygiene: because :data:`PERFORMANCE_OPTIONS` are excluded
from keys, a solve that the numerics governor re-ran down its
degradation ladder (pricing/cuts disabled) would land on the
*pristine* fingerprint.  ``solve_with_stats(certify=True)`` therefore
only ever stores results from the first, as-requested ladder rung, and
re-certifies every hit on read — an uncertified or ladder-degraded
answer can never be served under the pristine key (see
:mod:`repro.milp.certify`).

Two-tier lookup: constructed with a ``store``
(:class:`~repro.repair.store.ResultStore`), the cache consults memory
first and the disk store second, promoting disk hits into memory.
Disk admission is gated by the caller: only ``put(..., certified=True)``
-- which :func:`~repro.milp.solver.solve_with_stats` issues exclusively
for first-rung exact-certified answers -- reaches the store, and the
store's own per-row checksums plus the solver's re-certification on
read guard the way back.  That is what makes duplicate documents free
*across* runs and tenants, not just within one process.

Thread-safety: a single lock guards the underlying ``OrderedDict``, so
one cache instance may be shared by concurrent threads.  Across
*processes* each worker holds its own instance (see
:mod:`repro.repair.batch`); fingerprints make the per-process caches
equivalent, they just warm up independently -- and a shared ``store``
lets them warm each other up through disk.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro.milp.fingerprint import canonical_fingerprint
from repro.milp.model import MILPModel, Solution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (repair -> milp)
    from repro.repair.store import ResultStore as ResultStoreLike

#: Default number of solutions retained.
DEFAULT_CACHE_SIZE = 256

CacheKey = Tuple[str, str, str]

#: Backend options that tune *how* the search runs but cannot change
#: the optimal solution (incumbent seeds, presolve/warm-start/cut
#: toggles, pricing rules).  Excluded from cache keys so a seeded
#: solve and a plain solve of the same model share one entry.
#: ``time_limit`` joins them because only wall-clock-independent
#: verdicts (optimal / infeasible / unbounded) are ever stored -- see
#: ``repro.milp.solver.solve_with_stats`` -- and those verdicts hold
#: under every budget.
PERFORMANCE_OPTIONS = frozenset(
    {
        "incumbent",
        "presolve",
        "warm_start",
        "pricing",
        "time_limit",
        "cuts",
    }
)


@dataclass
class CacheInfo:
    """Hit/miss accounting, in the style of ``functools.lru_cache``."""

    hits: int = 0
    misses: int = 0
    maxsize: int = DEFAULT_CACHE_SIZE
    currsize: int = 0
    #: Subset of ``hits`` served from the disk store tier (and
    #: promoted into memory on the way out).
    store_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SolveCache:
    """LRU memo of solved models.

    ``maxsize <= 0`` disables in-memory storage (every memory lookup
    misses), which lets callers thread one object through
    unconditionally; a disk ``store`` still works at ``maxsize=0``.

    ``store`` is an optional second tier
    (:class:`~repro.repair.store.ResultStore` or anything with its
    ``get``/``put``/``evict`` shape): memory misses fall through to
    it, and disk hits are promoted into memory.  Only *certified*
    results (``put(..., certified=True)``) are admitted to disk.
    """

    def __init__(
        self,
        maxsize: int = DEFAULT_CACHE_SIZE,
        store: Optional["ResultStoreLike"] = None,
    ) -> None:
        self.maxsize = int(maxsize)
        self.store = store
        self._store: "OrderedDict[CacheKey, Solution]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._store_hits = 0

    @staticmethod
    def key_for(
        model: MILPModel,
        backend: str,
        options: Optional[Mapping[str, Any]] = None,
        semantics: Optional[Mapping[str, Any]] = None,
    ) -> CacheKey:
        """The cache key: backend, canonical options, model fingerprint.

        *semantics* carries caller-level context that changes what the
        stored solution *means* without appearing in the model itself
        -- e.g. the repair strategy and mis-repair budget of a cascade
        solve (``repro.repair.cascade``), whose residue solution must
        never be served for a plain ``exact`` request on the same
        fingerprint.  Unlike backend options, semantics entries are
        always folded into the key, never filtered by
        :data:`PERFORMANCE_OPTIONS`.
        """
        rendered_options = repr(
            (
                sorted(
                    (name, value)
                    for name, value in (options or {}).items()
                    if name not in PERFORMANCE_OPTIONS
                ),
                sorted((semantics or {}).items()),
            )
        )
        return (backend, rendered_options, canonical_fingerprint(model))

    def get(self, key: CacheKey) -> Optional[Solution]:
        with self._lock:
            solution = self._store.get(key)
            if solution is not None:
                self._store.move_to_end(key)
                self._hits += 1
                return solution
        # Second tier, outside the memory lock: the store has its own
        # locking, and a disk read must not block memory hits.
        if self.store is not None:
            solution = self.store.get(key)
            if solution is not None:
                with self._lock:
                    self._store_hits += 1
                    self._hits += 1
                    if self.maxsize > 0:
                        self._store[key] = solution
                        self._store.move_to_end(key)
                        while len(self._store) > self.maxsize:
                            self._store.popitem(last=False)
                return solution
        with self._lock:
            self._misses += 1
        return None

    def put(self, key: CacheKey, solution: Solution, certified: bool = False) -> None:
        """Memoise *solution*; ``certified=True`` also persists it.

        The disk tier only admits results the caller vouches for with
        ``certified=True`` -- in practice, first-rung answers that
        passed exact-arithmetic certification.  Everything else stays
        in the volatile memory tier and dies with the process.
        """
        if certified and self.store is not None:
            self.store.put(key, solution)
        if self.maxsize <= 0:
            return
        with self._lock:
            self._store[key] = solution
            self._store.move_to_end(key)
            while len(self._store) > self.maxsize:
                self._store.popitem(last=False)

    def evict(self, key: CacheKey) -> None:
        """Drop *key* from both tiers (a hit failed re-certification)."""
        with self._lock:
            self._store.pop(key, None)
        if self.store is not None:
            self.store.evict(key)

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self._hits = 0
            self._misses = 0
            self._store_hits = 0

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(
                hits=self._hits,
                misses=self._misses,
                maxsize=self.maxsize,
                currsize=len(self._store),
                store_hits=self._store_hits,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __repr__(self) -> str:
        info = self.info()
        return (
            f"SolveCache(size={info.currsize}/{info.maxsize}, "
            f"hits={info.hits}, misses={info.misses})"
        )
