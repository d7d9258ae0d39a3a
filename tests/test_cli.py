"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import main
from repro.datasets import paper_ground_truth
from repro.relational.csvio import load_database
from repro.relational.schematext import load_schema


@pytest.fixture
def project(tmp_path):
    """An initialised project directory (the running example)."""
    directory = tmp_path / "proj"
    assert main(["init", str(directory)]) == 0
    return directory


class TestInit:
    def test_creates_all_files(self, project):
        assert (project / "schema.txt").exists()
        assert (project / "constraints.dsl").exists()
        assert (project / "CashBudget.csv").exists()

    def test_data_is_the_acquired_instance(self, project):
        schema = load_schema(project / "schema.txt")
        database = load_database(schema, project)
        assert database.get_value("CashBudget", 3, "Value") == 250


class TestCheck:
    def test_inconsistent_project_exits_one(self, project, capsys):
        assert main(["check", str(project)]) == 1
        out = capsys.readouterr().out
        assert "INCONSISTENT" in out
        assert "detail_vs_aggregate" in out

    def test_consistent_project_exits_zero(self, project, tmp_path, capsys):
        fixed = tmp_path / "fixed"
        main(["repair", str(project), "--output", str(fixed)])
        # Reuse the metadata next to the repaired data.
        (fixed / "schema.txt").write_text((project / "schema.txt").read_text())
        (fixed / "constraints.dsl").write_text(
            (project / "constraints.dsl").read_text()
        )
        capsys.readouterr()
        assert main(["check", str(fixed)]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_missing_project_errors(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["check", str(tmp_path / "nope")])
        assert info.value.code == 2


class TestRepair:
    def test_prints_the_suggested_update(self, project, capsys):
        assert main(["repair", str(project)]) == 0
        out = capsys.readouterr().out
        assert "250 -> 220" in out

    def test_output_written_and_correct(self, project, tmp_path, capsys):
        fixed = tmp_path / "out"
        assert main(["repair", str(project), "--output", str(fixed)]) == 0
        schema = load_schema(project / "schema.txt")
        repaired = load_database(schema, fixed)
        assert repaired == paper_ground_truth()

    def test_show_milp(self, project, capsys):
        main(["repair", str(project), "--show-milp"])
        out = capsys.readouterr().out
        assert "min (d1 + d2" in out
        assert "y4 = z4 - 250" in out

    def test_total_change_objective(self, project, capsys):
        assert main(["repair", str(project), "--objective", "total-change"]) == 0
        assert "250 -> 220" in capsys.readouterr().out

    def test_export_mps(self, project, tmp_path, capsys):
        target = tmp_path / "instance.mps"
        assert main(["repair", str(project), "--export-mps", str(target)]) == 0
        from repro.milp import SolveStatus, read_mps, solve

        model = read_mps(target)
        solution = solve(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0)

    def test_stats_show_new_counters(self, project, capsys):
        assert main(
            ["repair", str(project), "--backend", "bnb-simplex", "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "seeded(gap=" in out


CONTRADICTORY_PINS = [
    "--pin", "CashBudget:1:Value=100",
    "--pin", "CashBudget:2:Value=50",
    "--pin", "CashBudget:3:Value=999",
]


class TestInfeasibilityForensics:
    def test_explain_infeasible_on_repairable_project_exits_zero(
        self, project, capsys
    ):
        assert main(["repair", str(project), "--explain-infeasible"]) == 0
        assert "repairable" in capsys.readouterr().out

    def test_explain_infeasible_names_the_conflict(self, project, capsys):
        code = main(
            ["repair", str(project), "--explain-infeasible"]
            + CONTRADICTORY_PINS
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "INFEASIBLE" in out
        assert "detail_vs_aggregate" in out
        assert "CashBudget[3].Value = 999" in out

    def test_contradictory_pins_exit_unrepairable(self, project, capsys):
        with pytest.raises(SystemExit) as info:
            main(["repair", str(project)] + CONTRADICTORY_PINS)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "unrepairable" in err and "under the given pins" in err

    def test_bad_pin_spec_errors(self, project):
        with pytest.raises(SystemExit) as info:
            main(["repair", str(project), "--pin", "CashBudget-3-Value-999"])
        assert info.value.code == 2


class TestAnswers:
    def test_consistent_answer(self, project, capsys):
        code = main(
            ["answers", str(project), "--function", "chi2",
             "--args", "2003,total cash receipts"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "consistent answer: 220" in out
        assert "acquired instance: 250" in out

    def test_unknown_function_errors(self, project):
        with pytest.raises(SystemExit) as info:
            main(["answers", str(project), "--function", "nope", "--args", "1"])
        assert info.value.code == 2

    def test_wrong_arity_errors(self, project):
        with pytest.raises(SystemExit) as info:
            main(["answers", str(project), "--function", "chi2", "--args", "2003"])
        assert info.value.code == 2


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "card-minimal repair" in out
        assert "250 -> 220" in out


class TestNativeSolverOutput:
    """A native solver printing to fd 1 mid-solve (scipy's HiGHS does)
    lands on standard error, not among the command's result lines."""

    LINE = "native solver line"

    @pytest.fixture(autouse=True)
    def keep_signal_handlers(self):
        """``serve`` installs SIGTERM/SIGINT drain handlers and leaves
        them; put the previous ones back, or a process pool forked by a
        later test would hand them to workers its watchdog must kill."""
        import signal

        saved = {
            signum: signal.getsignal(signum)
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        yield
        for signum, handler in saved.items():
            signal.signal(signum, handler)

    @pytest.fixture
    def noisy_scipy(self, monkeypatch):
        import os

        from repro.milp import solver

        real = solver._BACKENDS["scipy"]

        def noisy(model, **options):
            os.write(1, f"{self.LINE}\n".encode())
            return real(model, **options)

        monkeypatch.setitem(solver._BACKENDS, "scipy", noisy)

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["repair", "{project}", "--backend", "scipy"], "250 -> 220"),
            (["batch", "{project}", "--backend", "scipy"],
             "repaired (1 value(s) changed)"),
            (["serve", "{project}", "--backend", "scipy"],
             "repaired (1 value(s) changed)"),
            (["answers", "{project}", "--function", "chi2",
              "--args", "2003,total cash receipts"], "consistent answer: 220"),
            (["demo"], "250 -> 220"),
        ],
        ids=["repair", "batch", "serve", "answers", "demo"],
    )
    def test_native_line_goes_to_stderr(
        self, project, capfd, noisy_scipy, argv, expected
    ):
        argv = [arg.format(project=project) for arg in argv]
        assert main(argv) == 0
        captured = capfd.readouterr()
        assert self.LINE in captured.err
        assert self.LINE not in captured.out
        assert expected in captured.out
