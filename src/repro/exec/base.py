"""Execution strategies for the measurement pipeline.

A strategy answers one question: how to fan a wave of per-country
phase-1 scans out over workers.  Its one method,
:meth:`ExecutionStrategy.scan`, takes one ``(pipeline, codes)`` group
per world config and returns each group's partials in submission
order, so the cross-country merges are deterministic.  Strategies never
decide *what* to compute — the pipeline does, including the cheap
phase-2 finalization it runs inline after the cross-country barrier.
:func:`scan_keyed` puts the scan cache in front of a wave.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.exec.partials import CountryPartial

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (pipeline imports us)
    from repro.cache import ScanCache
    from repro.core.pipeline import Pipeline


class ScanIntegrityError(RuntimeError):
    """A scan wave did not return exactly one partial per keyed task."""


class ExecutionStrategy(abc.ABC):
    """How per-country pipeline work is scheduled onto workers."""

    #: Human-readable strategy name (CLI value, log labels).
    name: str = "abstract"

    @abc.abstractmethod
    def scan(
        self, groups: Sequence[tuple["Pipeline", Sequence[str]]]
    ) -> list[list[CountryPartial]]:
        """Phase 1 for every group's countries in one wave.

        Returns one partial list per group, each in the order of that
        group's codes, and records each country's wall seconds in its
        pipeline's ``scan_seconds``.  A pooled strategy submits every
        task before collecting any result.
        """

    def close(self) -> None:
        """Release worker resources (no-op for in-process strategies)."""

    def __enter__(self) -> "ExecutionStrategy":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


def scan_keyed(
    strategy: ExecutionStrategy,
    tasks: Mapping[str, tuple["Pipeline", str]],
    cache: Optional["ScanCache"],
) -> tuple[dict[str, CountryPartial], int, int]:
    """Phase 1 for ordered ``{key: (pipeline, country)}`` tasks.

    Serves hits from ``cache``, groups the misses by pipeline in
    first-occurrence order, sends them through one ``strategy.scan``
    wave and stores each back with its own ``pipeline.scan_seconds``
    (so future hits report the time actually saved).  Returns the
    partials by key plus the hit and executed counts.  A short group, a
    partial for the wrong country or ``hits + executed`` short of the
    keys raises :class:`ScanIntegrityError`.
    """
    if cache is not None and not all(
        pipeline.supports_caching for pipeline, _ in tasks.values()
    ):
        raise ValueError(
            "caching requires the pipeline's default geolocator; a custom "
            "geolocator's results cannot be keyed by the world config — "
            "run without cache="
        )
    partials: dict[str, CountryPartial] = {}
    misses: dict["Pipeline", list[tuple[str, str]]] = {}
    for key, (pipeline, code) in tasks.items():
        hit = cache.load(key, code) if cache is not None else None
        if hit is None:
            misses.setdefault(pipeline, []).append((key, code))
        else:
            partials[key] = hit
    hits = len(partials)
    groups = list(misses.items())
    scanned = strategy.scan([
        (pipeline, [code for _, code in pending])
        for pipeline, pending in groups
    ]) if groups else []
    executed = 0
    for (pipeline, pending), fresh in zip(groups, scanned):
        if len(fresh) != len(pending):
            raise ScanIntegrityError(
                f"scan wave returned {len(fresh)} partials for "
                f"{len(pending)} submitted countries"
            )
        for (key, code), partial in zip(pending, fresh):
            if partial.country != code:
                raise ScanIntegrityError(
                    f"key {key} resolved to country {partial.country}, "
                    f"expected {code}"
                )
            if cache is not None:
                cache.store(key, partial, scan_s=pipeline.scan_seconds[code])
            partials[key] = partial
            executed += 1
    if hits + executed != len(tasks):
        raise ScanIntegrityError(
            f"scan accounting broken: {hits} hits + {executed} executed "
            f"!= {len(tasks)} unique keys"
        )
    return partials, hits, executed


__all__ = ["ExecutionStrategy", "ScanIntegrityError", "scan_keyed"]
