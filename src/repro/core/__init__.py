"""DART system orchestration: the architecture of Figures 2 and 5.

- :mod:`repro.core.scenarios` -- per-workload extraction metadata and
  document renderers (the acquisition designer's artefacts): the cash
  budget of the running example (domains and hierarchy of Figure 6,
  the row pattern of Figure 7a), hierarchical balance sheets, and
  product catalogs;
- :mod:`repro.core.system` -- :class:`DartSystem`, wiring acquisition
  -> wrapping -> database generation -> repairing -> supervised
  validation, and :class:`AcquisitionSession`, the full per-document
  result object.
"""

from repro.core.scenarios import (
    Scenario,
    balance_sheet_scenario,
    cash_budget_document,
    cash_budget_metadata,
    cash_budget_scenario,
    catalog_scenario,
)
from repro.core.system import AcquisitionSession, DartSystem

__all__ = [
    "Scenario",
    "cash_budget_metadata",
    "cash_budget_document",
    "cash_budget_scenario",
    "balance_sheet_scenario",
    "catalog_scenario",
    "DartSystem",
    "AcquisitionSession",
]
