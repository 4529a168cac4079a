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

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro._lazy import lazy_exports

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.base import ExecutionStrategy


def make_executor(workers: Optional[int] = None) -> ExecutionStrategy:
    """The strategy for a worker count (the CLI's ``--workers``).

    ``None`` or 1 runs serially; N >= 2 fans out over a pool of N
    processes.  Anything below 1 raises :class:`ValueError`.
    """
    if workers is not None and workers < 1:
        raise ValueError("workers must be a positive integer")
    if workers is None or workers == 1:
        from repro.exec.serial import SerialExecutor

        return SerialExecutor()
    from repro.exec.processes import ProcessExecutor

    return ProcessExecutor(workers=workers)


__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.exec": ["make_executor"],
    "repro.exec.base": ["ExecutionStrategy", "ScanIntegrityError", "scan_keyed"],
    "repro.exec.partials": [
        "CountryPartial", "HostAnnotation",
        "merge_faults", "merge_footprints", "merge_validation"],
    "repro.exec.processes": ["ProcessExecutor"],
    "repro.exec.serial": ["SerialExecutor"],
})
