"""End-to-end tests of the assembled DART system (repro.core.system)."""

import pytest

from repro.acquisition.documents import SourceFormat
from repro.acquisition.ocr import OcrChannel
from repro.core import (
    DartSystem,
    balance_sheet_scenario,
    cash_budget_scenario,
    catalog_scenario,
)
from repro.datasets import (
    generate_balance_sheet,
    generate_cash_budget,
    generate_catalog,
)


def noiseless():
    return OcrChannel(numeric_error_rate=0.0, string_error_rate=0.0, seed=0)


class TestCleanPipeline:
    def test_cash_budget_clean_roundtrip(self):
        workload = generate_cash_budget(n_years=2, seed=7)
        scenario = cash_budget_scenario(workload)
        session = DartSystem(scenario, ocr_channel=noiseless()).process()
        assert session.was_consistent
        assert session.proposed_repair is None
        assert session.final_database == workload.ground_truth
        assert session.values_inspected == 0

    def test_balance_sheet_clean_roundtrip(self):
        workload = generate_balance_sheet(depth=2, branching=2, seed=7)
        scenario = balance_sheet_scenario(workload)
        session = DartSystem(scenario, ocr_channel=noiseless()).process()
        assert session.was_consistent
        assert session.final_database == workload.ground_truth

    def test_catalog_html_source_skips_ocr(self):
        workload = generate_catalog(seed=7)
        scenario = catalog_scenario(workload)
        # Even an aggressive channel must not touch an HTML document.
        channel = OcrChannel(numeric_error_rate=1.0, string_error_rate=1.0, seed=1)
        session = DartSystem(scenario, ocr_channel=channel).process()
        assert session.acquisition.injected_errors == []
        assert session.final_database == workload.ground_truth


class TestNoisyPipeline:
    def test_cash_budget_recovers_truth(self):
        workload = generate_cash_budget(n_years=2, seed=7)
        scenario = cash_budget_scenario(workload)
        channel = OcrChannel(numeric_error_rate=0.08, string_error_rate=0.1, seed=42)
        session = DartSystem(scenario, ocr_channel=channel).process()
        assert session.acquisition.injected_errors
        assert session.final_database == workload.ground_truth

    def test_balance_sheet_recovers_truth(self):
        workload = generate_balance_sheet(depth=2, branching=2, seed=3)
        scenario = balance_sheet_scenario(workload)
        channel = OcrChannel(numeric_error_rate=0.1, string_error_rate=0.05, seed=11)
        session = DartSystem(scenario, ocr_channel=channel).process()
        assert session.final_database == workload.ground_truth

    def test_catalog_paper_source_recovers_truth(self):
        workload = generate_catalog(n_categories=3, products_per_category=4, seed=5)
        scenario = catalog_scenario(workload, source_format=SourceFormat.PAPER)
        channel = OcrChannel(numeric_error_rate=0.15, string_error_rate=0.1, seed=9)
        session = DartSystem(scenario, ocr_channel=channel).process()
        assert session.final_database == workload.ground_truth

    def test_session_artefacts_exposed(self):
        workload = generate_cash_budget(n_years=2, seed=7)
        scenario = cash_budget_scenario(workload)
        channel = OcrChannel(numeric_error_rate=0.08, string_error_rate=0.1, seed=42)
        session = DartSystem(scenario, ocr_channel=channel).process()
        assert "<table" in session.acquisition.html
        assert session.wrapping.instances
        assert session.acquired_database.total_tuples() == 20
        assert not session.was_consistent
        assert session.proposed_repair is not None
        assert session.validation is not None
        assert session.iterations >= 1
        assert session.values_inspected >= 1

    def test_non_interactive_mode_applies_first_proposal(self):
        workload = generate_cash_budget(n_years=2, seed=7)
        scenario = cash_budget_scenario(workload)
        channel = OcrChannel(numeric_error_rate=0.08, string_error_rate=0.1, seed=42)
        session = DartSystem(scenario, ocr_channel=channel).process(interactive=False)
        assert session.validation is None
        assert session.proposed_repair is not None
        # The first proposal makes the instance consistent, though not
        # necessarily equal to the source.
        from repro.constraints.grounding import check_consistency

        assert check_consistency(session.final_database, scenario.constraints) == []

    def test_string_noise_repaired_by_msi(self):
        workload = generate_cash_budget(n_years=2, seed=7)
        scenario = cash_budget_scenario(workload)
        channel = OcrChannel(numeric_error_rate=0.0, string_error_rate=0.5, seed=13)
        session = DartSystem(scenario, ocr_channel=channel).process()
        string_errors = [
            e for e in session.acquisition.injected_errors if e.kind == "string"
        ]
        assert string_errors
        # All string damage is absorbed by the wrapper's msi binding.
        assert session.final_database == workload.ground_truth


def _noisy_scenario(kind: str, seed: int):
    if kind == "cash budget":
        scenario = cash_budget_scenario(generate_cash_budget(n_years=2, seed=seed))
        channel = OcrChannel(numeric_error_rate=0.08, string_error_rate=0.1, seed=seed)
    else:
        scenario = balance_sheet_scenario(
            generate_balance_sheet(depth=2, branching=3, seed=seed)
        )
        channel = OcrChannel(numeric_error_rate=0.06, string_error_rate=0.04, seed=seed)
    return scenario, channel


class TestFirstProposalSolvedOnce:
    @pytest.mark.parametrize(
        "kind, seed",
        [("cash budget", seed) for seed in (2, 3, 4, 7)]
        + [("balance sheet", seed) for seed in (1, 2, 3, 4)],
    )
    def test_session_equals_a_loop_that_solves_it_again(
        self, kind, seed, monkeypatch
    ):
        from repro.repair.engine import RepairEngine
        from repro.repair.interactive import OracleOperator, ValidationLoop

        scenario, channel = _noisy_scenario(kind, seed)
        solve = RepairEngine.find_card_minimal_repair
        unpinned = []

        def counting(engine, pins=None, *args, **kwargs):
            if not pins:
                unpinned.append(engine)
            return solve(engine, pins, *args, **kwargs)

        monkeypatch.setattr(RepairEngine, "find_card_minimal_repair", counting)
        session = DartSystem(scenario, ocr_channel=channel).process()
        assert session.validation is not None
        assert len(unpinned) == 1
        assert session.validation.log[0].proposal == session.proposed_repair

        acquired = session.acquired_database
        replay = ValidationLoop(
            RepairEngine(acquired, scenario.constraints),
            OracleOperator(scenario.ground_truth, acquired=acquired),
        ).run()
        assert len(unpinned) == 2
        assert session.validation.accepted_repair == replay.accepted_repair
        assert session.validation.iterations == replay.iterations
        assert session.validation.values_inspected == replay.values_inspected
        assert session.validation.retractions == replay.retractions
        assert session.validation.log == replay.log
        assert session.validation == replay
        assert session.final_database == scenario.ground_truth
