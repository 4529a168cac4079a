"""Process-pool execution strategy.

Sidesteps the GIL for the CPU-bound scan phase.  Worker processes do
not receive the (unpicklable) synthetic world: each task carries its
pipeline's :class:`~repro.datagen.config.WorldConfig`, from which the
worker deterministically *rebuilds* the world — world generation is a
pure function of its config, which alone identifies a scan.  A worker
keeps only the pipeline it built last, so one pool serves any sequence
of configs; as workers take tasks in submission order and a wave
submits each config's countries contiguously, a worker builds each
config at most once per wave.  Whether a task is observed does not
change what the worker builds: an observed task records into a fresh
:class:`~repro.obs.scan.ScanObs` that travels back with its partial.
Workers return picklable
:class:`~repro.exec.partials.CountryPartial` objects; all cross-country
state (provider footprints, validation stats) is merged on the driver.

The per-worker rebuild is a fixed cost amortized over the worker's
shard of each config, so processes win once the scan work dwarfs world
generation (large scales, many countries); below that, serial
execution is faster.  Phase 2 (categorize + deferred record assembly)
needs the driver's merged footprint and runs inline on the driver, so
partials never cross the process boundary twice.
"""

from __future__ import annotations

import concurrent.futures
import logging
import os
from typing import TYPE_CHECKING, Optional, Sequence

from repro.datagen.config import WorldConfig
from repro.exec.base import ExecutionStrategy
from repro.exec.partials import CountryPartial

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pipeline import Pipeline
    from repro.obs.scan import ScanObs

logger = logging.getLogger(__name__)

#: The pipeline this worker process built last, with the config it was
#: built for.
_LAST_BUILT: Optional[tuple[WorldConfig, "Pipeline"]] = None


def _scan_one(
    config: WorldConfig, observe: bool, code: str
) -> tuple[CountryPartial, float, Optional["ScanObs"]]:
    """Worker task: one country's partial, scan seconds and scope.

    An observing task records into a fresh scope that is shipped back
    with the partial and merged by the calling process, in submission
    order, so long-lived workers never accumulate spans.
    """
    global _LAST_BUILT
    if _LAST_BUILT is None or _LAST_BUILT[0] != config:
        _LAST_BUILT = None  # free the old world before building the next
        from repro.core.pipeline import Pipeline
        from repro.datagen.generator import SyntheticWorld

        _LAST_BUILT = (config, Pipeline(SyntheticWorld.generate(config)))
    pipeline = _LAST_BUILT[1]
    code = code.upper()
    scope = None
    if observe:
        from repro.obs.scan import ScanObs

        scope = ScanObs(code)
    partial = pipeline.scan_partial(code, scope)
    return partial, pipeline.scan_seconds[code], scope


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
        # One pool-filling wave: every task of every group is submitted
        # before any result is collected, each group contiguously.
        submitted = [
            [self._pool.submit(_scan_one, pipeline.world.config,
                               pipeline.obs is not None, code)
             for code in codes]
            for pipeline, codes in groups
        ]
        results: list[list[CountryPartial]] = []
        for (pipeline, codes), futures in zip(groups, submitted):
            partials: list[CountryPartial] = []
            for code, future in zip(codes, futures):
                partial, seconds, scope = future.result()
                pipeline.scan_seconds[code.upper()] = seconds
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
