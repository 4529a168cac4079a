"""The default single-worker strategy: one country after another."""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.exec.base import ExecutionStrategy
from repro.exec.partials import CountryPartial

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import Pipeline


class SerialExecutor(ExecutionStrategy):
    """Runs every country inline on the calling thread."""

    name = "serial"

    def scan(
        self, groups: Sequence[tuple["Pipeline", Sequence[str]]]
    ) -> list[list[CountryPartial]]:
        return [[pipeline.scan_partial(code) for code in codes]
                for pipeline, codes in groups]


__all__ = ["SerialExecutor"]
