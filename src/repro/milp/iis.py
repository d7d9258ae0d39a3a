"""Irreducible Infeasible Subsystem (IIS) extraction.

When the grounded repair MILP ``S*(AC)`` is infeasible the interesting
question is *which* constraints cannot hold together -- DART's operator
needs a conflict set small enough to read, not a 400-row model dump.
This module implements the classic **deletion filter**: starting from
the full (infeasible) constraint set, try dropping each row; if the
rest is still infeasible the row was not needed for the contradiction
and stays out, otherwise it is a proven member of the conflict and
stays in.  The invariant -- the working set is infeasible after every
step -- makes the final set an IIS: infeasible as a whole, feasible
after removing any single member.

Two accelerations keep the probe count far below ``n_rows``:

- **group prefilter**: callers pass batches of rows (e.g. the purely
  structural ``y``/link/abs rows of a repair translation) that can be
  probed -- and usually discarded -- in one shot;
- **presolve short-circuit**: each probe first runs
  :func:`~repro.milp.presolve.presolve`; its ``"infeasible"``
  proof (sound by construction) answers the probe without building an
  LP, and its implicated row is used to order the deletion filter so
  likely members are tested last (members are kept, so testing
  non-members first shrinks the model fastest).

Feasibility probes call :func:`repro.milp.solver.solve` directly and
never touch any :class:`~repro.milp.cache.SolveCache` -- probe models
are throwaway subsets and their verdicts must not pollute the cache.

Probes whose verdict is ambiguous (solver error, iteration limit,
per-probe deadline expiry) conservatively *keep* the row and clear
``proven_minimal``: the returned set is still infeasible (the
invariant never relied on the ambiguous probe) but may not be
irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.diagnostics import SolveTimeoutError
from repro.milp.deadline import Deadline
from repro.milp.lowering import lower_model_sparse
from repro.milp.model import (
    Constraint,
    LinExpr,
    MILPModel,
    Sense,
    SolveStatus,
)
from repro.milp.presolve import presolve
from repro.milp.solver import DEFAULT_BACKEND, solve


class IISError(ValueError):
    """Raised when no IIS exists or the initial probe is inconclusive."""


@dataclass(frozen=True)
class IISMember:
    """One constraint in the conflict: index into ``model.constraints``."""

    index: int
    name: str

    def __str__(self) -> str:
        return self.name or f"row#{self.index}"


@dataclass
class IISResult:
    """A (usually irreducible) infeasible subsystem of a model.

    ``members`` is always infeasible as a whole.  ``proven_minimal``
    is True when every deletion probe returned a definite verdict, in
    which case dropping any single member leaves a feasible system.
    """

    members: List[IISMember] = field(default_factory=list)
    proven_minimal: bool = True
    probes: int = 0
    presolve_short_circuits: int = 0

    @property
    def names(self) -> List[str]:
        return [member.name for member in self.members]

    @property
    def indices(self) -> List[int]:
        return [member.index for member in self.members]

    def as_dict(self) -> Dict[str, object]:
        return {
            "members": [
                {"index": m.index, "name": m.name} for m in self.members
            ],
            "proven_minimal": self.proven_minimal,
            "probes": self.probes,
            "presolve_short_circuits": self.presolve_short_circuits,
        }

    def __str__(self) -> str:
        flag = "minimal" if self.proven_minimal else "not proven minimal"
        return (
            f"IIS({len(self.members)} constraints, {flag}, "
            f"{self.probes} probes)"
        )


def _clone_subsystem(model: MILPModel, keep: Sequence[int]) -> MILPModel:
    """A fresh model with all variables but only the *keep* constraints.

    The objective is zeroed: probes ask about feasibility only, and a
    constant objective lets presolve fix unconstrained columns freely.
    """
    sub = MILPModel(name=f"{model.name}/probe" if model.name else "probe")
    for variable in model.variables:
        sub.add_variable(
            variable.name, variable.var_type, variable.lower, variable.upper
        )
    for index in keep:
        source = model.constraints[index]
        sub.add_constraint(
            Constraint(
                LinExpr(dict(source.expr.coefficients), source.expr.constant),
                source.sense,
                source.rhs,
                source.name,
            )
        )
    return sub


def _lowered_row_to_member(
    model: MILPModel, keep: Sequence[int], row: Tuple[str, int]
) -> Optional[int]:
    """Map a presolve ``("ub"|"eq", i)`` row back to a kept-constraint index.

    Lowering appends LE/GE constraints (in model order) to the ub
    block and EQ constraints (in model order) to the eq block, so the
    i-th ub row is the i-th kept non-equality constraint.
    """
    family, position = row
    wanted = 0
    for index in keep:
        sense = model.constraints[index].sense
        is_eq = sense is Sense.EQ
        if (family == "eq") == is_eq:
            if wanted == position:
                return index
            wanted += 1
    return None


def _probe(
    model: MILPModel,
    keep: Sequence[int],
    backend: str,
    deadline: Deadline,
    result: IISResult,
) -> Tuple[Optional[bool], Optional[int]]:
    """Is the subsystem over *keep* feasible?

    Returns ``(verdict, implicated)`` where verdict is True
    (feasible), False (infeasible) or None (ambiguous), and
    ``implicated`` is the kept-constraint index presolve blamed for an
    infeasibility, when it named one.
    """
    sub = _clone_subsystem(model, keep)
    result.probes += 1
    # Probes run off the sparse lowering: deletion filtering re-lowers
    # the subsystem once per probe, and the CSR path skips the (m, n)
    # zero-fill that dominated small-probe lowering time.
    reduction = presolve(lower_model_sparse(sub))
    if reduction.status == "infeasible":
        result.presolve_short_circuits += 1
        implicated = None
        if reduction.infeasible_row is not None:
            implicated = _lowered_row_to_member(
                model, keep, reduction.infeasible_row
            )
        return False, implicated
    if reduction.status == "solved":
        result.presolve_short_circuits += 1
        return True, None
    # "reduced": presolve could not decide; run a real solve.
    options = {}
    remaining = deadline.remaining()
    if remaining is not None:
        options["time_limit"] = remaining
    try:
        solution = solve(sub, backend=backend, **options)
    except SolveTimeoutError:
        return None, None
    if solution.status in (
        SolveStatus.OPTIMAL,
        SolveStatus.FEASIBLE_GAP,
        SolveStatus.UNBOUNDED,
    ):
        return True, None
    if solution.status is SolveStatus.INFEASIBLE:
        return False, None
    return None, None


def extract_iis(
    model: MILPModel,
    *,
    backend: str = DEFAULT_BACKEND,
    deadline: Optional[Deadline] = None,
    groups: Optional[Sequence[Sequence[int]]] = None,
) -> IISResult:
    """Extract an IIS from an infeasible *model* by deletion filtering.

    ``groups`` is an optional list of row-index batches to probe
    wholesale before the per-row filter (rows absent from every group
    are filtered individually); a group whose removal leaves the
    system infeasible is discarded in one probe.  Honors *deadline*
    cooperatively: expiry before the initial probe raises
    :class:`~repro.diagnostics.SolveTimeoutError`; expiry mid-filter
    returns the current (still infeasible) working set with
    ``proven_minimal=False``.

    Raises :class:`IISError` when the model is feasible (no IIS
    exists) or the initial probe cannot establish infeasibility.
    """
    deadline = deadline or Deadline(None)
    deadline.check("IIS extraction")
    result = IISResult()
    n_rows = len(model.constraints)
    working = list(range(n_rows))

    verdict, implicated = _probe(model, working, backend, deadline, result)
    if verdict is True:
        raise IISError("model is feasible; no IIS exists")
    if verdict is None:
        raise IISError(
            "could not establish infeasibility (probe solve was "
            "inconclusive); no IIS extracted"
        )

    # Group prefilter: drop whole batches that the contradiction does
    # not need.  Never drop the presolve-implicated row with its group.
    for group in groups or []:
        batch = {int(i) for i in group if 0 <= int(i) < n_rows} & set(working)
        if implicated is not None:
            batch.discard(implicated)
        if not batch:
            continue
        if deadline.expired:
            result.proven_minimal = False
            break
        candidate = [i for i in working if i not in batch]
        sub_verdict, sub_implicated = _probe(
            model, candidate, backend, deadline, result
        )
        if sub_verdict is False:
            working = candidate
            if sub_implicated is not None:
                implicated = sub_implicated
        elif sub_verdict is None:
            result.proven_minimal = False

    # Per-row deletion filter.  The presolve-implicated row is almost
    # certainly a member; testing it last keeps intermediate models
    # small (every confirmed member stays in all later probes).
    order = [i for i in working if i != implicated]
    if implicated is not None and implicated in working:
        order.append(implicated)
    members: List[int] = []
    pending = set(order)
    for row in order:
        pending.discard(row)
        if deadline.expired:
            # Invariant: members + pending (+ row) is still infeasible.
            members.extend([row, *sorted(pending)])
            result.proven_minimal = False
            break
        candidate = sorted(set(members) | pending)
        verdict, _ = _probe(model, candidate, backend, deadline, result)
        if verdict is False:
            continue  # contradiction survives without `row`: drop it
        if verdict is None:
            result.proven_minimal = False
        members.append(row)  # feasible (or unknown) without it: keep

    members.sort()
    result.members = [
        IISMember(index=i, name=model.constraints[i].name) for i in members
    ]
    return result
