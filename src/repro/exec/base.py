"""Execution strategies for the measurement pipeline.

A strategy answers one question: how to fan the per-country phase-1
scans out over workers.  Strategies never decide *what* to compute —
the pipeline does, including the cheap phase-2 finalization it runs
inline after the cross-country barrier — and every strategy must
return phase-1 partials in submission order so the driver's merges
are deterministic.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from repro.exec.partials import CountryPartial

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from repro.cache import ScanCache
    from repro.core.pipeline import Pipeline


class ExecutionStrategy(abc.ABC):
    """How per-country pipeline work is scheduled onto workers."""

    #: Human-readable strategy name (CLI value, log labels).
    name: str = "abstract"

    @abc.abstractmethod
    def scan(
        self, pipeline: "Pipeline", codes: Sequence[str]
    ) -> list[CountryPartial]:
        """Run phase 1 for every country, returning partials in the
        order of ``codes`` regardless of completion order."""

    def scan_groups(
        self, groups: Sequence[tuple["Pipeline", Sequence[str]]]
    ) -> list[list[CountryPartial]]:
        """Phase 1 for several pipelines' country batches in one wave.

        The scenario sweep deduplicates its (scenario, country) matrix
        down to unique scan tasks grouped by pipeline (one pipeline per
        distinct world config) and dispatches them all here at once, so
        a pooled strategy can fill its workers across group boundaries
        instead of draining between per-scenario batches.  Results come
        back as one list per group, each in that group's submission
        order.  The default runs the groups sequentially through
        :meth:`scan`; pooled strategies override this to submit every
        task up front.
        """
        return [self.scan(pipeline, list(codes)) for pipeline, codes in groups]

    def scan_cached(
        self,
        pipeline: "Pipeline",
        codes: Sequence[str],
        cache: "ScanCache",
    ) -> list[CountryPartial]:
        """Phase 1 with a warm start: serve hits, fan out only misses.

        Hits are loaded from the cache; misses keep their submission
        order and go through :meth:`scan` — whatever worker fabric this
        strategy owns — then get stored back tagged with their *own*
        scan's wall seconds (``Pipeline.scan_seconds``, which every
        strategy records per country), so future hits report the time
        actually saved rather than an even split of the batch.  The
        combined partials come back in the order of ``codes``, so a
        warm run merges exactly like a cold one and the resulting
        dataset is byte-identical either way.
        """
        keyed = [(code, cache.key_for(pipeline, code)) for code in codes]
        partials: dict[str, CountryPartial] = {}
        misses: list[tuple[str, str]] = []
        for code, key in keyed:
            hit = cache.load(key, code)
            if hit is None:
                misses.append((code, key))
            else:
                partials[code] = hit
        if misses:
            fresh = self.scan(pipeline, [code for code, _ in misses])
            for (code, key), partial in zip(misses, fresh):
                cache.store(key, partial,
                            scan_s=pipeline.scan_seconds[code.upper()])
                partials[code] = partial
        return [partials[code] for code, _ in keyed]

    def close(self) -> None:
        """Release worker resources (no-op for in-process strategies)."""

    def __enter__(self) -> "ExecutionStrategy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


__all__ = ["ExecutionStrategy"]
