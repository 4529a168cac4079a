"""Rendering of paper-style tables and figure data as text.

``render_paper_report`` is resolved on first access (PEP 562): it
imports the whole analysis layer and numpy, which ``repro-gov run``
never uses but reaches through this package for ``render_table``.
"""

from repro.reporting.tables import render_table, format_fraction
from repro.reporting.faults import render_fault_report
from repro.reporting.figures import (
    render_mix_bars,
    render_split_bars,
    render_region_table,
)
from repro.reporting.sections import (
    SECTION_NAMES,
    render_report_section,
    render_trend_report,
)
from repro.reporting.obs import render_run_summary

__all__ = [
    "SECTION_NAMES",
    "render_report_section",
    "render_trend_report",
    "render_table",
    "format_fraction",
    "render_fault_report",
    "render_run_summary",
    "render_mix_bars",
    "render_split_bars",
    "render_region_table",
    "render_paper_report",
]


def __getattr__(name: str):
    if name == "render_paper_report":
        from repro.reporting.paper_report import render_paper_report

        return render_paper_report
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
