"""Single-pass columnar analysis engine for the Section 5-7 report layer.

:mod:`repro.analysis.engine.index` holds the columnar
:class:`AnalysisIndex`.  The pre-engine record-loop implementations it
is checked and benchmarked against live outside the package, in the
test oracle ``tests/analysis/oracle.py``.
"""

from repro.analysis.engine.index import (
    CATEGORIES,
    AnalysisIndex,
    DatasetOrIndex,
    ensure_index,
    underlying_dataset,
)

__all__ = [
    "CATEGORIES",
    "AnalysisIndex",
    "DatasetOrIndex",
    "ensure_index",
    "underlying_dataset",
]
