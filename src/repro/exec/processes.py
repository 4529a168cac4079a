"""Process-pool execution strategy.

Sidesteps the GIL for the CPU-bound scan phase.  Worker processes do
not receive the (unpicklable) synthetic world; each one deterministically
*rebuilds* it from the pipeline's :class:`~repro.datagen.config.WorldConfig`
in the pool initializer — world generation is a pure function of its
config — and keeps a private :class:`~repro.core.pipeline.Pipeline` for
the life of the pool.  Workers return picklable
:class:`~repro.exec.partials.CountryPartial` objects; all cross-country
state (provider footprints, validation stats) is merged on the driver.

The per-worker rebuild is a fixed cost amortized over the worker's
whole shard, so processes win once the scan work dwarfs world
generation (large scales, many countries); below that, serial
execution is faster.  Phase 2 (categorize + deferred record assembly)
needs the driver's merged footprint and runs inline on the driver, so
partials never cross the process boundary twice.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
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

#: The rebuilt pipeline of the current worker process.
_WORKER_PIPELINE: Optional["Pipeline"] = None

#: One worker task's result: the partial plus its scan's wall seconds
#: and (when the pool observes) the per-country observability scope.
_ScanResult = tuple[CountryPartial, float, Optional["ScanObs"]]


def _init_worker(config: WorldConfig, max_depth: int, observe: bool) -> None:
    """Pool initializer: rebuild the world and pipeline once per worker.

    ``observe`` gives the worker pipeline a capture-only observability
    sink: scopes are buffered per task and shipped back with the
    partial instead of merging in the worker, so a long-lived pool
    never accumulates spans and the *driver* performs every merge (in
    submission order — the same discipline as the data reductions).
    """
    global _WORKER_PIPELINE
    from repro.core.pipeline import Pipeline
    from repro.datagen.generator import SyntheticWorld

    world = SyntheticWorld.generate(config)
    obs = None
    if observe:
        from repro.obs import Observability

        obs = Observability(capture_only=True)
    _WORKER_PIPELINE = Pipeline(world, max_depth=max_depth, obs=obs)


def _scan_one(code: str) -> _ScanResult:
    """Worker task: phase 1 for a single country."""
    pipeline = _WORKER_PIPELINE
    assert pipeline is not None, "worker initializer did not run"
    partial = pipeline.scan_partial(code)
    scope = None
    if pipeline.obs is not None:
        captured = pipeline.obs.take_scans()
        scope = captured[-1] if captured else None
    return partial, pipeline.scan_seconds[code.upper()], scope


#: Sweep workers keep one rebuilt pipeline per distinct world config
#: (hashable key: the config itself plus the crawl depth), so a
#: multi-scenario wave re-generates each world at most once per worker
#: instead of restarting the pool per config.
_SWEEP_PIPELINES: dict[tuple[WorldConfig, int], "Pipeline"] = {}


def _sweep_scan_one(
    config: WorldConfig, max_depth: int, code: str
) -> tuple[CountryPartial, float]:
    """Sweep worker task: phase 1 for one (config, country) pair."""
    key = (config, max_depth)
    pipeline = _SWEEP_PIPELINES.get(key)
    if pipeline is None:
        from repro.core.pipeline import Pipeline
        from repro.datagen.generator import SyntheticWorld

        pipeline = Pipeline(SyntheticWorld.generate(config), max_depth=max_depth)
        _SWEEP_PIPELINES[key] = pipeline
    partial = pipeline.scan_partial(code)
    return partial, pipeline.scan_seconds[code.upper()]


class ProcessExecutor(ExecutionStrategy):
    """Fans per-country work out over a ``ProcessPoolExecutor``."""

    name = "processes"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be a positive integer")
        self.workers = workers or os.cpu_count() or 1
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_key: Optional[tuple[WorldConfig, int, bool]] = None
        #: Separate multi-config pool for sweep waves: its workers build
        #: pipelines lazily per task config instead of in an initializer,
        #: so it never restarts between scenarios.
        self._sweep_pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_pool(
        self, config: WorldConfig, max_depth: int, observe: bool
    ) -> concurrent.futures.ProcessPoolExecutor:
        key = (config, max_depth, observe)
        if self._pool is not None and self._pool_key != key:
            # The pool's workers hold a pipeline for a different world.
            self.close()
        if self._pool is None:
            logger.debug(
                "starting process pool: workers=%d observe=%s",
                self.workers, observe,
            )
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(config, max_depth, observe),
            )
            self._pool_key = key
        return self._pool

    def scan(
        self, pipeline: "Pipeline", codes: Sequence[str]
    ) -> list[CountryPartial]:
        if not pipeline.supports_process_execution:
            raise ValueError(
                "ProcessExecutor requires the pipeline's default geolocator "
                "and a config-derived fault plan; custom objects cannot be "
                "rebuilt inside worker processes — use SerialExecutor"
            )
        obs = pipeline.obs
        pool = self._ensure_pool(
            pipeline.world.config, pipeline.crawler.max_depth, obs is not None
        )
        # map preserves submission order, so merges stay deterministic.
        results: list[_ScanResult] = list(pool.map(_scan_one, codes))
        partials: list[CountryPartial] = []
        for code, (partial, seconds, scope) in zip(codes, results):
            pipeline.scan_seconds[code.upper()] = seconds
            if obs is not None and scope is not None:
                # Absorbing in submission order keeps the merged trace
                # and metrics identical across executors.
                obs.absorb_scan(scope)
            partials.append(partial)
        return partials

    def _ensure_sweep_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._sweep_pool is None:
            logger.debug("starting sweep process pool: workers=%d", self.workers)
            self._sweep_pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        return self._sweep_pool

    def scan_groups(
        self, groups: Sequence[tuple["Pipeline", Sequence[str]]]
    ) -> list[list[CountryPartial]]:
        for pipeline, _ in groups:
            if not pipeline.supports_process_execution:
                raise ValueError(
                    "ProcessExecutor requires the pipeline's default "
                    "geolocator and a config-derived fault plan; custom "
                    "objects cannot be rebuilt inside worker processes — "
                    "use SerialExecutor"
                )
            if pipeline.obs is not None:
                raise ValueError(
                    "sweep scan waves do not ship observability scopes "
                    "across the process boundary; trace sweeps with the "
                    "serial executor"
                )
        pool = self._ensure_sweep_pool()
        # One pool-filling wave: every task of every group is submitted
        # before any result is collected, so workers drain the whole
        # sweep instead of idling at per-scenario batch boundaries.
        submitted = []
        for pipeline, codes in groups:
            config = pipeline.world.config
            if config.countries is not None and not isinstance(
                config.countries, tuple
            ):
                # Workers key their pipeline memo by the config, which
                # must hash; a list-valued country selection is the one
                # unhashable field a caller can reach.
                config = dataclasses.replace(
                    config, countries=tuple(config.countries)
                )
            max_depth = pipeline.crawler.max_depth
            submitted.append([
                pool.submit(_sweep_scan_one, config, max_depth, code)
                for code in codes
            ])
        results: list[list[CountryPartial]] = []
        for (pipeline, codes), futures in zip(groups, submitted):
            partials: list[CountryPartial] = []
            for code, future in zip(codes, futures):
                partial, seconds = future.result()
                pipeline.scan_seconds[code.upper()] = seconds
                partials.append(partial)
            results.append(partials)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_key = None
        if self._sweep_pool is not None:
            self._sweep_pool.shutdown(wait=True)
            self._sweep_pool = None


__all__ = ["ProcessExecutor"]
