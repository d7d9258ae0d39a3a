"""Mixed-integer linear programming substrate.

The paper computes card-minimal repairs by solving the MILP instance
``S*(AC)`` with a commercial solver (LINDO API 4.0).  This package
provides the solver substrate from scratch:

- :mod:`repro.milp.model` -- variables (real / integer / binary),
  linear expressions, constraints, and the model object;
- :mod:`repro.milp.sparse` / :mod:`repro.milp.lowering` -- the CSR
  form every solver-side pass consumes;
- :mod:`repro.milp.revised` -- the sparse bounded-variable revised
  simplex (LU + eta file), the LP core of the ``bnb-simplex`` backend;
- :mod:`repro.milp.presolve` -- bound propagation, forced fixings and
  big-M coefficient tightening ahead of the search;
- :mod:`repro.milp.cuts` -- Gomory and cover cutting planes;
- :mod:`repro.milp.warmstart` -- parent-basis warm starts for the node
  LPs of the simplex-backed search;
- :mod:`repro.milp.node_lp` -- one persistent HiGHS instance per tree
  for the node LPs of the ``bnb`` backend;
- :mod:`repro.milp.branch_and_bound` -- best-first branch-and-bound
  with pseudo-cost branching and a pluggable LP-relaxation backend;
- :mod:`repro.milp.simplex` -- a dense two-phase simplex and
  :func:`~repro.milp.lowering.lower_model`, kept as reference
  implementations the tests compare the sparse core against;
- :mod:`repro.milp.scipy_backend` -- a thin adapter over
  ``scipy.optimize.milp`` (HiGHS);
- :mod:`repro.milp.solver` -- the ``solve()`` facade selecting a
  backend, plus the instrumented ``solve_with_stats()`` emitting
  :class:`~repro.milp.solver.SolveStats`;
- :mod:`repro.milp.iis` -- deletion-filtering IIS extraction for
  infeasible models (the forensics behind ``--explain-infeasible``);
- :mod:`repro.milp.fingerprint` -- canonical model hashing;
- :mod:`repro.milp.cache` -- the LRU solve cache keyed by canonical
  fingerprints (identical grounded MILPs skip the solver).

The two independent backends ("bnb" and "scipy") are cross-checked in
the test suite: for every solvable model they must agree on the
optimal objective value.
"""

from repro.milp.model import (
    Constraint,
    LinExpr,
    MILPModel,
    ModelError,
    Sense,
    SolveStatus,
    Solution,
    Variable,
    VarType,
)
from repro.milp.cache import CacheInfo, SolveCache
from repro.milp.fingerprint import canonical_fingerprint
from repro.milp.iis import IISError, IISMember, IISResult, extract_iis
from repro.milp.lowering import DenseArrays, lower_model
from repro.milp.mps import MpsError, read_mps, write_mps
from repro.milp.presolve import PresolveResult, PresolveStats
from repro.milp.solver import (
    FALLBACK_BACKEND,
    SolveStats,
    available_backends,
    solve,
    solve_with_stats,
)

__all__ = [
    "SolveCache",
    "CacheInfo",
    "SolveStats",
    "solve_with_stats",
    "canonical_fingerprint",
    "FALLBACK_BACKEND",
    "VarType",
    "Variable",
    "LinExpr",
    "Sense",
    "Constraint",
    "MILPModel",
    "ModelError",
    "Solution",
    "SolveStatus",
    "solve",
    "available_backends",
    "read_mps",
    "write_mps",
    "MpsError",
    "DenseArrays",
    "lower_model",
    "PresolveResult",
    "PresolveStats",
    "IISError",
    "IISMember",
    "IISResult",
    "extract_iis",
]
