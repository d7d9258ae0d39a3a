"""Differential testing of the MILP backends.

The repository ships two genuinely independent solve paths: the
from-scratch branch-and-bound over the from-scratch sparse revised
simplex (``bnb-simplex`` -- every line in this repo) and ``scipy.optimize``'s
HiGHS (``scipy``).  Card-minimality of DART's repairs rests on both
returning *optimal* objectives, so this suite generates randomized
grounded MILPs shaped like the repair translation ``S*(AC)`` --
z/y/delta variable blocks, ground rows, difference rows, Big-M link
rows, a delta-sum objective -- and asserts that every backend agrees
on the solve status and the optimal objective value.

Seeded cases include infeasible instances (contradictory ground
equalities) and degenerate ones (already-consistent instances with
optimum 0, duplicated rows, ties between alternative optima).  Seeds
honour ``REPRO_TEST_SEED`` (see ``tests/_seeds.py``) and appear in the
test ids and failure messages.
"""

from __future__ import annotations

import random

import pytest

from repro.milp.model import MILPModel, SolveStatus, VarType
from repro.milp.solver import solve

from tests._seeds import derived_seeds, describe_seed

N_CASES = 50

#: Objective agreement tolerance: objectives are sums of binaries so
#: exact small integers, but the scipy path goes through floats.
TOL = 1e-6

OWN_BACKEND = "bnb-simplex"
PRODUCTION_BACKEND = "scipy"
#: The hybrid (our search over scipy's LP) rides along for free.
ALL_BACKENDS = [OWN_BACKEND, "bnb", PRODUCTION_BACKEND]


def random_grounded_milp(seed: int) -> MILPModel:
    """A random instance with the exact shape of ``S*(AC)``.

    ``n`` involved cells with current values ``v_i``; a handful of
    ground rows over the ``z`` block; ``y_i = z_i - v_i`` difference
    rows; Big-M link rows; ``min sum(d_i)``.  Every third seed wires a
    contradictory pair of ground equalities (infeasible); every fourth
    seed uses the consistent right-hand sides (optimum 0, degenerate);
    remaining seeds perturb the right-hand sides so a non-trivial
    repair is needed.  Duplicated ground rows are injected at random
    to exercise degeneracy in the simplex basis.
    """
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    big_m = 200.0
    values = [float(rng.randint(-20, 20)) for _ in range(n)]

    model = MILPModel(f"diff-{seed}")
    z = [
        model.add_variable(f"z{i + 1}", VarType.INTEGER, lower=-big_m, upper=big_m)
        for i in range(n)
    ]
    y = [
        model.add_variable(f"y{i + 1}", VarType.INTEGER, lower=-big_m, upper=big_m)
        for i in range(n)
    ]
    d = [model.add_variable(f"d{i + 1}", VarType.BINARY) for i in range(n)]

    flavour = "infeasible" if seed % 3 == 0 else (
        "consistent" if seed % 4 == 0 else "violated"
    )

    n_rows = rng.randint(1, 3)
    for row_index in range(n_rows):
        # Signed unit coefficients, like real grounded aggregate rows
        # (sums of cells with +/- signs); non-unit coefficients push
        # the pure-integer search into pathological branching depths
        # that no DART translation produces.
        support = rng.sample(range(n), rng.randint(1, n))
        coefficients = {i: float(rng.choice([-1, 1])) for i in support}
        current = sum(c * values[i] for i, c in coefficients.items())
        sense = rng.choice(["<=", ">=", "="])
        if flavour == "consistent":
            rhs = current
        elif sense == "<=":
            rhs = current - float(rng.randint(1, 15))  # current violates
        else:
            rhs = current + float(rng.randint(1, 15))  # current violates
        for label in ["", "dup"] if rng.random() < 0.3 else [""]:
            # The dup pass adds a byte-identical redundant row
            # (degenerate simplex bases, same optimum).
            expr = sum((c * z[i] for i, c in coefficients.items()), start=0)
            if sense == "<=":
                constraint = expr <= rhs
            elif sense == ">=":
                constraint = expr >= rhs
            else:
                constraint = expr == rhs
            model.add_constraint(constraint, name=f"g{row_index}{label}")

    if flavour == "infeasible":
        pivot = rng.randrange(n)
        model.add_constraint(z[pivot] == 0.0, name="contra-a")
        model.add_constraint(z[pivot] == 5.0, name="contra-b")

    for i in range(n):
        model.add_constraint(y[i] - z[i] == -values[i], name=f"y{i + 1}_def")
        model.add_constraint(y[i] - big_m * d[i] <= 0, name=f"link+{i + 1}")
        model.add_constraint(-1 * y[i] - big_m * d[i] <= 0, name=f"link-{i + 1}")

    model.set_objective(sum(d, start=0))
    return model


@pytest.mark.parametrize(
    "seed", derived_seeds(N_CASES), ids=lambda s: f"seed{s}"
)
def test_backends_agree_on_randomized_grounded_milps(seed):
    model = random_grounded_milp(seed)
    solutions = {name: solve(model, backend=name) for name in ALL_BACKENDS}

    statuses = {name: s.status for name, s in solutions.items()}
    assert len(set(statuses.values())) == 1, (
        f"backends disagree on status: {statuses} {describe_seed(seed)}"
    )

    reference = solutions[PRODUCTION_BACKEND]
    if reference.status is SolveStatus.OPTIMAL:
        for name, solution in solutions.items():
            assert solution.objective == pytest.approx(
                reference.objective, abs=TOL
            ), (
                f"{name} found objective {solution.objective}, "
                f"{PRODUCTION_BACKEND} found {reference.objective} "
                f"{describe_seed(seed)}"
            )
            # Every claimed optimum must actually be feasible.
            assignment = [
                solution.values[v.name] for v in model.variables
            ]
            assert model.check_feasible(assignment), (
                f"{name} returned an infeasible point {describe_seed(seed)}"
            )
    else:
        assert reference.status is SolveStatus.INFEASIBLE, (
            f"unexpected terminal status {reference.status} {describe_seed(seed)}"
        )


def test_known_infeasible_instance_agrees():
    """A hand-built contradiction: both backends must say infeasible."""
    model = MILPModel("contradiction")
    x = model.add_variable("x", VarType.INTEGER, lower=0, upper=10)
    model.add_constraint(x <= 2, name="low")
    model.add_constraint(x >= 7, name="high")
    model.set_objective(x)
    for name in ALL_BACKENDS:
        assert solve(model, backend=name).status is SolveStatus.INFEASIBLE, name


def _wide_bounds_pin_conflict(big_m: float) -> MILPModel:
    """Integrality + wide bounds + contradictory pin rows.

    This is the exact shape on which some HiGHS builds return a
    spurious status from presolve (see the re-run guard in
    ``repro.milp.scipy_backend``): a repair-style model whose only
    contradiction is a pair of pin equalities over otherwise loose
    ``[-M, M]`` integer boxes.
    """
    model = MILPModel("wide-pins")
    z = [
        model.add_variable(f"z{i}", VarType.INTEGER, lower=-big_m, upper=big_m)
        for i in range(3)
    ]
    d = [model.add_variable(f"d{i}", VarType.BINARY) for i in range(3)]
    model.add_constraint(z[0] + z[1] - z[2] == 0.0, name="g0:agg")
    for i in range(3):
        model.add_constraint(z[i] - big_m * d[i] <= 0, name=f"link+{i}")
        model.add_constraint(-1 * z[i] - big_m * d[i] <= 0, name=f"link-{i}")
    model.add_constraint(z[0] == 100.0, name="pin1")
    model.add_constraint(z[1] == 50.0, name="pin2")
    model.add_constraint(z[2] == 999.0, name="pin3")
    model.set_objective(sum(d, start=0))
    return model


def _wide_bounds_feasible(big_m: float) -> MILPModel:
    """The same shape with reconcilable pins: must NOT read infeasible."""
    model = _wide_bounds_pin_conflict(big_m)
    feasible = MILPModel("wide-pins-feasible")
    for variable in model.variables:
        feasible.add_variable(
            variable.name, variable.var_type, variable.lower, variable.upper
        )
    for constraint in model.constraints:
        if constraint.name == "pin3":
            continue
        feasible.add_constraint(constraint)
    feasible.set_objective(model.objective)
    return feasible


@pytest.mark.parametrize("big_m", [200.0, 2e4, 7.64e6, 7.64e9])
def test_infeasible_verdicts_agree_on_wide_bound_pin_conflicts(big_m):
    """Regression for the scipy backend's spurious-status guard.

    Every backend must call the contradictory instance INFEASIBLE and
    the one-pin-fewer instance feasible, across the Big-M escalation
    ladder the repair engine actually walks.  A spurious infeasible on
    the feasible twin (or a missed infeasible on the contradictory
    one) is exactly the failure mode the presolve re-run exists to
    correct.
    """
    conflict = _wide_bounds_pin_conflict(big_m)
    for name in ALL_BACKENDS:
        assert solve(conflict, backend=name).status is SolveStatus.INFEASIBLE, (
            f"{name} missed the contradiction at big_m={big_m:g}"
        )
    feasible = _wide_bounds_feasible(big_m)
    for name in ALL_BACKENDS:
        assert solve(feasible, backend=name).status is SolveStatus.OPTIMAL, (
            f"{name} spuriously reported infeasible at big_m={big_m:g}"
        )


@pytest.mark.parametrize(
    "seed", derived_seeds(20), ids=lambda s: f"pinseed{s}"
)
def test_randomized_pin_conflicts_agree_across_backends(seed):
    """Seeded contradictory pin sets: unanimous INFEASIBLE verdicts."""
    rng = random.Random(seed)
    big_m = float(rng.choice([200, 10_000, 7_640_000]))
    model = MILPModel(f"pins-{seed}")
    n = rng.randint(2, 4)
    z = [
        model.add_variable(f"z{i}", VarType.INTEGER, lower=-big_m, upper=big_m)
        for i in range(n)
    ]
    coefficients = {i: float(rng.choice([-1, 1])) for i in range(n)}
    expr = sum((c * z[i] for i, c in coefficients.items()), start=0)
    model.add_constraint(expr == 0.0, name="g0:sum")
    # Pin every variable so the row's value is forced off zero.
    total = 0.0
    for i in range(n - 1):
        value = float(rng.randint(-50, 50))
        total += coefficients[i] * value
        model.add_constraint(z[i] == value, name=f"pin{i + 1}")
    off = float(rng.randint(1, 40))
    last = (off - total) / coefficients[n - 1]
    model.add_constraint(z[n - 1] == last, name=f"pin{n}")
    model.set_objective(sum(z, start=0) * 0)
    statuses = {name: solve(model, backend=name).status for name in ALL_BACKENDS}
    assert set(statuses.values()) == {SolveStatus.INFEASIBLE}, (
        f"backends disagree on a pin contradiction: {statuses} "
        f"{describe_seed(seed)}"
    )


def test_known_degenerate_tie_agrees():
    """Two symmetric optima with equal objective: backends may pick
    different supports but must report the same objective value."""
    model = MILPModel("tie")
    a = model.add_variable("a", VarType.BINARY)
    b = model.add_variable("b", VarType.BINARY)
    model.add_constraint(a + b >= 1, name="cover")
    model.set_objective(a + b)
    objectives = {
        name: solve(model, backend=name).objective for name in ALL_BACKENDS
    }
    assert all(v == pytest.approx(1.0) for v in objectives.values()), objectives


# ---------------------------------------------------------------------------
# Cascade vs exact: the tiered strategy is a different *algorithm*, not
# a different backend, so it gets the same differential treatment --
# on real repair instances rather than raw models.
# ---------------------------------------------------------------------------

N_CASCADE_SEEDS = 12


@pytest.mark.parametrize(
    "seed", derived_seeds(N_CASCADE_SEEDS), ids=lambda s: f"cseed{s}"
)
@pytest.mark.parametrize("n_errors", [1, 3, 5])
def test_cascade_matches_exact_optimum(seed, n_errors):
    """Same cardinality as the exact MILP, and a consistent result.

    The cascade's acceptance rules only ever commit a fix whose
    cardinality is backed by a proven lower bound, so its final repair
    must tie the exact backend's optimum exactly -- never merely
    approximate it.
    """
    from repro.acquisition.ocr import inject_value_errors
    from repro.datasets import generate_cash_budget
    from repro.repair.engine import RepairEngine

    workload = generate_cash_budget(n_years=2, seed=seed)
    corrupted, _ = inject_value_errors(
        workload.ground_truth, n_errors, seed=seed + 1000
    )

    exact = RepairEngine(
        corrupted, workload.constraints, backend=PRODUCTION_BACKEND
    ).find_card_minimal_repair()
    engine = RepairEngine(
        corrupted, workload.constraints, strategy="cascade"
    )
    outcome = engine.find_card_minimal_repair()

    assert outcome.cardinality == exact.cardinality, (
        f"cascade changed {outcome.cardinality} cells, exact optimum is "
        f"{exact.cardinality} {describe_seed(seed)}"
    )
    repaired = engine.apply(outcome.repair)
    assert engine.is_consistent(repaired), (
        f"cascade repair leaves violations {describe_seed(seed)}"
    )


@pytest.mark.parametrize(
    "seed", derived_seeds(6), ids=lambda s: f"bseed{s}"
)
def test_cascade_agrees_with_own_backend_residue(seed):
    """Cascade over the from-scratch backend ties the scipy optimum."""
    from repro.acquisition.ocr import inject_value_errors
    from repro.datasets import generate_cash_budget
    from repro.repair.engine import RepairEngine

    workload = generate_cash_budget(n_years=2, seed=seed)
    corrupted, _ = inject_value_errors(
        workload.ground_truth, 4, seed=seed + 500
    )
    exact = RepairEngine(
        corrupted, workload.constraints, backend=PRODUCTION_BACKEND
    ).find_card_minimal_repair()
    cascade = RepairEngine(
        corrupted,
        workload.constraints,
        strategy="cascade",
        backend=OWN_BACKEND,
    ).find_card_minimal_repair()
    assert cascade.cardinality == exact.cardinality, describe_seed(seed)
