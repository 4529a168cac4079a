"""Process-pool execution strategy.

Sidesteps the GIL for the CPU-bound scan phase.  Worker processes do
not receive the (unpicklable) synthetic world: a wave is split into
about one unit per worker by the rule the serial strategy follows too
(:func:`~repro.exec.base.plan_wave`), and each task carries its unit's
:class:`~repro.datagen.config.WorldConfig`, from which the worker
generates the world (a pure function of its config).  A worker keeps
the world of its last task and the pipelines it built there, so a pool
that scans one world wave after wave generates it once per worker.  An
observed scan records into a fresh :class:`~repro.obs.scan.ScanObs`
that travels back with its picklable
:class:`~repro.exec.partials.CountryPartial`; cross-country merges and
phase 2 stay on the driver, so partials cross the process boundary
once.  Processes win once the scan work dwarfs world generation (large
scales, many countries); below that, serial execution is faster.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
from typing import TYPE_CHECKING, Optional, Sequence

from repro.datagen.config import WorldConfig
from repro.exec.base import ExecutionStrategy, plan_wave
from repro.exec.partials import CountryPartial

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import Pipeline
    from repro.datagen.generator import SyntheticWorld
    from repro.obs.scan import ScanObs

logger = logging.getLogger(__name__)

#: The world this worker process generated last, with its generator
#: input and the pipelines (one per scan config) it built there.
_LAST_BUILT: Optional[
    tuple[WorldConfig, "SyntheticWorld", list["Pipeline"]]
] = None


def _scan_unit(
    world_config: WorldConfig,
    entries: Sequence[tuple[WorldConfig, bool, Sequence[str]]],
) -> list[tuple[CountryPartial, float, Optional["ScanObs"]]]:
    """Worker task: scan ``(config, observe, codes)`` entries in the
    world ``world_config`` generates; returns each scan's partial, wall
    seconds and scope, in order.

    An observing entry records each scan into a fresh scope that is
    shipped back with the partial and merged by the calling process, in
    submission order, so long-lived workers never accumulate spans.
    """
    from repro.core.pipeline import Pipeline
    from repro.datagen.generator import SyntheticWorld

    global _LAST_BUILT
    if _LAST_BUILT is None or _LAST_BUILT[0] != world_config:
        _LAST_BUILT = None  # free the old world before generating the next
        _LAST_BUILT = (world_config, SyntheticWorld.generate(world_config), [])
    _, world, pipelines = _LAST_BUILT
    scanned = []
    for config, observe, codes in entries:
        pipeline = next(
            (built for built in pipelines if built.config == config), None)
        if pipeline is None:
            pipeline = Pipeline(config)
            pipeline._bind(world)
            pipelines.append(pipeline)
        for code in codes:
            scope = None
            if observe:
                from repro.obs.scan import ScanObs

                scope = ScanObs(code)
            partial = pipeline.scan_partial(code, scope)
            scanned.append((partial, pipeline.scan_seconds[code], scope))
    return scanned


class ProcessExecutor(ExecutionStrategy):
    """Fans per-country work out over a ``ProcessPoolExecutor``."""

    name = "processes"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer")
        self.workers = workers or os.cpu_count() or 1
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def scan(
        self, groups: Sequence[tuple["Pipeline", Sequence[str]]]
    ) -> list[list[CountryPartial]]:
        for pipeline, _ in groups:
            if not pipeline.supports_caching:
                raise ValueError(
                    "ProcessExecutor requires the pipeline's default "
                    "geolocator; a custom one cannot be rebuilt inside "
                    "worker processes — use SerialExecutor"
                )
        if self._pool is None:
            logger.debug("starting process pool: workers=%d", self.workers)
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        # One pool-filling wave: every unit is submitted before any
        # result is collected.
        units = plan_wave(groups, self.workers)
        futures = [
            self._pool.submit(_scan_unit, world_config, [
                (groups[index][0].config, groups[index][0].obs is not None,
                 codes)
                for index, codes in members
            ])
            for world_config, members in units
        ]
        found: list[dict[str, tuple]] = [{} for _ in groups]
        for (_, members), future in zip(units, futures):
            scanned = iter(future.result())
            for index, codes in members:
                found[index].update((code, next(scanned)) for code in codes)
        results: list[list[CountryPartial]] = []
        for (pipeline, codes), by_code in zip(groups, found):
            partials: list[CountryPartial] = []
            for code in codes:
                partial, seconds, scope = by_code[code.upper()]
                pipeline.scan_seconds[partial.country] = seconds
                if scope is not None:
                    # Absorbing in submission order keeps the merged
                    # trace and metrics identical across executors.
                    pipeline.obs.absorb_scan(scope)
                partials.append(partial)
            results.append(partials)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


__all__ = ["ProcessExecutor"]
