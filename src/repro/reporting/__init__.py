"""Rendering of paper-style tables and figure data as text.

Every name resolves on first access (PEP 562): ``render_paper_report``
imports the whole analysis layer and numpy, and the command line reads
only ``SECTION_NAMES`` and ``render_table`` at start-up.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.reporting.tables": ["render_table", "format_fraction"],
    "repro.reporting.faults": ["render_fault_report"],
    "repro.reporting.figures": [
        "render_mix_bars", "render_split_bars", "render_region_table"],
    "repro.reporting.sections": [
        "SECTION_NAMES", "render_report_section", "render_trend_report"],
    "repro.reporting.obs": ["render_run_summary"],
    "repro.reporting.paper_report": ["render_paper_report"],
})
