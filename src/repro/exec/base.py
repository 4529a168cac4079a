"""Execution strategies for the measurement pipeline.

A strategy answers one question: how to fan a wave of per-country
phase-1 scans out over workers.  Its one method,
:meth:`ExecutionStrategy.scan`, takes one ``(pipeline, codes)`` group
per world config and returns each group's partials in submission
order, so the cross-country merges are deterministic.  Strategies never
decide *what* to compute — the pipeline does, including the cheap
phase-2 finalization it runs inline after the cross-country barrier.
:func:`plan_wave` decides which world each scan of a wave runs in, for
every strategy; :func:`scan_keyed` puts the scan cache in front of a
wave.
"""

from __future__ import annotations

import abc
import dataclasses
from typing import TYPE_CHECKING, Mapping, Optional, Sequence

from repro.datagen.config import WorldConfig
from repro.datagen.generator import world_key
from repro.exec.partials import CountryPartial
from repro.world.countries import COUNTRIES

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


def _deal(codes: Sequence[str], parts: int) -> list[set[str]]:
    """Split ``codes`` into at most ``parts`` sets of similar scan cost.
    A country weighs its paper-scale internal URL count (the crawl
    dominates a scan); the heaviest goes first, each to the lightest
    set."""
    weight = {code: getattr(COUNTRIES.get(code), "internal_urls", 0)
              for code in codes}
    loads = [(0, at, set()) for at in range(min(parts, len(codes)))]
    for code in sorted(codes, key=weight.__getitem__, reverse=True):
        load, at, part = min(loads)
        part.add(code)
        loads[at] = (load + weight[code], at, part)
    return [part for _, _, part in loads]


def plan_wave(
    groups: Sequence[tuple["Pipeline", Sequence[str]]], parts: int = 1,
) -> list[tuple[WorldConfig, list[tuple[int, list[str]]]]]:
    """Split a scan wave into units of work: the generator input of the
    world each unit scans in, with the ``(group index, codes)`` it scans.

    A pipeline built from a world scans in that world, so its units
    carry the world's own config.  Pipelines built from configs with one
    :func:`~repro.datagen.generator.world_key` share worlds generated
    over exactly the countries they scan (a country's partial does not
    depend on which others its world holds); those countries are dealt
    by size over at most ``parts`` units, one world each.
    """
    shared: dict[object, tuple[WorldConfig, bool, list]] = {}
    for index, (pipeline, codes) in enumerate(groups):
        held = pipeline.world
        _, _, members = shared.setdefault(
            index if held is not None else world_key(pipeline.config),
            (pipeline.config, held is not None, []))
        members.append((index, [code.upper() for code in codes]))
    units = []
    for config, held, members in shared.values():
        wanted = list(dict.fromkeys(
            code for _, codes in members for code in codes))
        for part in _deal(wanted, parts):
            units.append((
                config if held else dataclasses.replace(config, countries=tuple(
                    code for code in wanted if code in part)),
                [(index, [code for code in codes if code in part])
                 for index, codes in members if not part.isdisjoint(codes)],
            ))
    return units


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


__all__ = ["ExecutionStrategy", "ScanIntegrityError", "plan_wave", "scan_keyed"]
