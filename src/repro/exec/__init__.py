"""Pluggable execution layer for the measurement pipeline.

``Pipeline.run(countries, executor=...)`` accepts any
:class:`~repro.exec.base.ExecutionStrategy`:

* :class:`SerialExecutor` — one country after another (default);
* :class:`ProcessExecutor` — a process pool whose tasks each generate
  the world of one unit of the wave from its ``WorldConfig``
  (:func:`~repro.exec.base.plan_wave`, the rule both follow).

All strategies produce **bit-identical** datasets: per-country work is
independent, and the two cross-country reductions (provider footprints,
validation stats) are merged with order-independent functions in
:mod:`repro.exec.partials`.
"""

from typing import Optional

from repro.exec.base import ExecutionStrategy, ScanIntegrityError, scan_keyed
from repro.exec.partials import (
    CountryPartial,
    HostAnnotation,
    merge_faults,
    merge_footprints,
    merge_validation,
)
from repro.exec.processes import ProcessExecutor
from repro.exec.serial import SerialExecutor


def make_executor(workers: Optional[int] = None) -> ExecutionStrategy:
    """The strategy for a worker count (the CLI's ``--workers``).

    ``None`` or 1 runs serially; N >= 2 fans out over a pool of N
    processes.  Anything below 1 raises :class:`ValueError`.
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")
    if workers is None or workers == 1:
        return SerialExecutor()
    return ProcessExecutor(workers=workers)


__all__ = [
    "ExecutionStrategy",
    "ScanIntegrityError",
    "SerialExecutor",
    "ProcessExecutor",
    "CountryPartial",
    "HostAnnotation",
    "merge_faults",
    "merge_footprints",
    "merge_validation",
    "make_executor",
    "scan_keyed",
]
