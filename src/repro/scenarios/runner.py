"""The two-level sweep scheduler with cross-scenario scan deduplication.

Naively, an S-scenario sweep costs S full ``Pipeline.run`` calls.  But
the scan cache keys one country's phase-1 result by
``(global fingerprint, country, country-slice fingerprint)`` — and most
(scenario, country) pairs across a matrix share that key: an outage
what-if shares *every* scan with the baseline, a vantage shift or an
evolution step re-keys only the countries it touches.  The
:class:`SweepRunner` therefore works in two levels:

1. **dedup** — flatten the matrix into (scenario, country) tasks, key
   each with the cache fingerprint functions, and group by key so every
   unique key is scanned exactly once;
2. **dispatch** — probe the shared :class:`~repro.cache.ScanCache` for
   hits, then push *all* remaining unique tasks through the execution
   strategy in one pool-filling wave
   (:meth:`~repro.exec.base.ExecutionStrategy.scan_groups`) instead of
   S sequential ``Pipeline.run`` calls.

Each scenario's dataset is then assembled by fanning the shared
partials back out (``Pipeline.assemble``), with scenarios whose configs
are identical (run fingerprint) sharing one dataset *object* — so the
comparison layer's :func:`~repro.analysis.engine.index.ensure_index`
builds each distinct index once.  World *generation* is deduplicated
one level further: configs that differ only in measurement-plane knobs
(fault plan, vantage ranks) describe the same world, which is generated
once and shared across their pipelines (:func:`_world_key`).

The dedup accounting is enforced at runtime the way
:class:`~repro.evolve.series.SnapshotSeries` enforces
``hits == unchanged``: the number of scans actually executed must equal
the unique keys minus the cache hits, and every scenario's every
country must be covered — a violation raises
:class:`SweepIntegrityError` instead of silently over- or
under-scanning.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.datagen.config import WorldConfig

from repro.cache.fingerprint import (
    country_key,
    country_slice_fingerprint,
    global_fingerprint,
    run_fingerprint,
)
from repro.core.crawler import DEFAULT_MAX_DEPTH
from repro.core.dataset import GovernmentHostingDataset
from repro.core.pipeline import Pipeline
from repro.datagen.generator import SyntheticWorld
from repro.exec import ExecutionStrategy, SerialExecutor
from repro.exec.partials import CountryPartial
from repro.faults import FaultPlan
from repro.scenarios.matrix import Scenario, ScenarioMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache import ScanCache
    from repro.obs.registry import RunRegistry

logger = logging.getLogger(__name__)


def _world_key(config: WorldConfig) -> str:
    """Identity of the *generated world* a config describes.

    The fault plan and per-country vantage ranks steer the measurement
    plane only -- :mod:`repro.datagen` never reads them -- so configs
    that differ in nothing else describe byte-identical worlds.  The
    runner generates each distinct world once (generation dominates a
    run's cost at bench scales) and hands every sharing pipeline a
    shallow config-swapped view of it.
    """
    neutral = dataclasses.replace(
        config,
        fault_rate=0.0, fault_profile="mixed", fault_seed=None,
        country_overrides=tuple(
            dataclasses.replace(override, vantage_rank=0)
            for override in config.country_overrides
        ),
    )
    # canonical_dict drops now-default overrides, so a config whose only
    # override was a vantage shift keys like the un-overridden baseline.
    return json.dumps(neutral.canonical_dict(), sort_keys=True)


class SweepIntegrityError(RuntimeError):
    """The sweep's dedup accounting failed its runtime verification."""


@dataclasses.dataclass(frozen=True)
class SweepAccounting:
    """What the dedup level saved, in verifiable numbers."""

    #: Scenarios swept (including the baseline).
    scenarios: int
    #: Countries per scenario (the base selection).
    countries: int
    #: Flat (scenario, country) task count: ``scenarios * countries``.
    total_tasks: int
    #: Distinct ``(global, country, slice)`` keys across all tasks.
    unique_keys: int
    #: Unique keys served from the persistent cache.
    cache_hits: int
    #: Unique keys actually scanned this sweep.
    executed: int
    #: Distinct world configs (= pipelines built = datasets assembled).
    distinct_configs: int
    #: Distinct generated worlds (configs differing only in the
    #: measurement plane -- faults, vantage ranks -- share one).
    distinct_worlds: int
    #: Wall seconds of the scan wave.
    scan_wave_s: float

    @property
    def dedup_factor(self) -> float:
        """Tasks per unique key (1.0 = nothing shared)."""
        return self.total_tasks / self.unique_keys if self.unique_keys else 0.0

    def summary(self) -> str:
        """The grep-able one-line dedup accounting."""
        return (
            f"sweep: {self.scenarios} scenarios x {self.countries} countries "
            f"= {self.total_tasks} tasks -> {self.unique_keys} unique scans "
            f"({self.cache_hits} cache hits, {self.executed} executed, "
            f"dedup {self.dedup_factor:.2f}x), "
            f"{self.distinct_configs} distinct configs, "
            f"{self.distinct_worlds} worlds"
        )

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["dedup_factor"] = round(self.dedup_factor, 6)
        return data


@dataclasses.dataclass
class ScenarioResult:
    """One scenario's swept outcome."""

    scenario: Scenario
    dataset: GovernmentHostingDataset
    #: Full-config fingerprint; scenarios sharing it share ``dataset``.
    run_fp: str
    #: Countries whose scan key differs from the baseline's (sorted).
    changed_countries: tuple[str, ...]

    @property
    def name(self) -> str:
        return self.scenario.name

    @property
    def shares_baseline_dataset(self) -> bool:
        return not self.changed_countries and self.scenario.kind != "baseline"


@dataclasses.dataclass
class SweepResult:
    """Everything one sweep produced, baseline first."""

    results: tuple[ScenarioResult, ...]
    accounting: SweepAccounting

    @property
    def baseline(self) -> ScenarioResult:
        return self.results[0]

    def by_name(self, name: str) -> ScenarioResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(f"no scenario named {name!r} in this sweep")

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)


class SweepRunner:
    """Schedules a compiled scenario matrix as one deduplicated wave."""

    def __init__(
        self,
        matrix: Union[ScenarioMatrix, Sequence[Scenario]],
        max_depth: int = DEFAULT_MAX_DEPTH,
        cache: Optional["ScanCache"] = None,
        executor: Optional[ExecutionStrategy] = None,
        registry: Optional["RunRegistry"] = None,
    ) -> None:
        scenarios = (
            matrix.compile() if isinstance(matrix, ScenarioMatrix)
            else tuple(matrix)
        )
        if not scenarios:
            raise ValueError("a sweep needs at least one scenario")
        names = [scenario.name for scenario in scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate scenario names in sweep: {names}")
        base_codes = scenarios[0].config.country_codes()
        for scenario in scenarios[1:]:
            if scenario.config.country_codes() != base_codes:
                raise ValueError(
                    f"scenario {scenario.name!r} selects different "
                    f"countries than the baseline; sweeps compare like "
                    f"with like"
                )
        self.scenarios = scenarios
        self.codes = base_codes
        self.max_depth = max_depth
        self.cache = cache
        self._executor = executor
        #: When set, one manifest per distinct config is recorded into
        #: this cross-run registry after assembly.
        self.registry = registry

    # -------------------------------------------------------------- run

    def run(self) -> SweepResult:
        """Dedup, dispatch one scan wave, fan out, assemble, verify."""
        strategy = self._executor or SerialExecutor()
        scenarios = self.scenarios
        codes = self.codes

        # Level 1: one pipeline per distinct config (keyed by the full
        # run fingerprint — configs themselves are not hashable), plus
        # each distinct config's (country, scan key) task list.  The
        # resolved plan matches what Pipeline builds for itself, so the
        # keys here are exactly what `cache.key_for(pipeline, code)`
        # would derive.
        pipelines: dict[str, Pipeline] = {}
        worlds: dict[str, "SyntheticWorld"] = {}
        scenario_fps: list[str] = []
        tasks_by_fp: dict[str, list[tuple[str, str]]] = {}
        for scenario in scenarios:
            config = scenario.config
            plan = FaultPlan.from_config(config)
            fp = run_fingerprint(config, self.max_depth, plan)
            if fp not in pipelines:
                world_key = _world_key(config)
                world = worlds.get(world_key)
                if world is None:
                    world = SyntheticWorld.generate(config)
                    worlds[world_key] = world
                if world.config is not config:
                    # Same world, different measurement plane: share the
                    # expensive substrates, swap in the scenario config.
                    world = dataclasses.replace(world, config=config)
                pipelines[fp] = Pipeline(world, max_depth=self.max_depth)
                global_fp = global_fingerprint(config, self.max_depth, plan)
                tasks_by_fp[fp] = [
                    (code, country_key(
                        global_fp, code,
                        country_slice_fingerprint(config, code),
                    ))
                    for code in codes
                ]
            scenario_fps.append(fp)

        # Flatten to unique keys, first-occurrence order (scenario
        # order, then canonical country order within each scenario).
        unique: dict[str, tuple[str, str]] = {}
        for fp in scenario_fps:
            for code, key in tasks_by_fp[fp]:
                if key not in unique:
                    unique[key] = (fp, code)

        # Level 2a: probe the shared cache for hits.
        partials: dict[str, CountryPartial] = {}
        cache_hits = 0
        if self.cache is not None:
            for key, (fp, code) in unique.items():
                hit = self.cache.load(key, code)
                if hit is not None:
                    partials[key] = hit
                    cache_hits += 1

        # Level 2b: group the misses by their owning pipeline (the one
        # whose scenario saw the key first — by per-country hermeticity
        # any sharing config would scan the identical partial), keeping
        # first-occurrence order, and dispatch them all in ONE wave.
        miss_by_fp: dict[str, tuple[list[str], list[str]]] = {}
        for key, (fp, code) in unique.items():
            if key in partials:
                continue
            group_codes, group_keys = miss_by_fp.setdefault(fp, ([], []))
            group_codes.append(code)
            group_keys.append(key)
        miss_groups = [
            (pipelines[fp], group_codes)
            for fp, (group_codes, _) in miss_by_fp.items()
        ]
        miss_keys = [
            group_keys for _, (_, group_keys) in miss_by_fp.items()
        ]
        wave_started = time.perf_counter()
        executed = 0
        if miss_groups:
            scanned = strategy.scan_groups(miss_groups)
            for (pipeline, group_codes), keys, fresh in zip(
                miss_groups, miss_keys, scanned
            ):
                if len(fresh) != len(group_codes):
                    raise SweepIntegrityError(
                        f"scan wave returned {len(fresh)} partials for "
                        f"{len(group_codes)} submitted countries"
                    )
                for code, key, partial in zip(group_codes, keys, fresh):
                    partials[key] = partial
                    executed += 1
                    if self.cache is not None and pipeline.supports_caching:
                        self.cache.store(
                            key, partial,
                            scan_s=pipeline.scan_seconds.get(code, 0.0),
                        )
        scan_wave_s = time.perf_counter() - wave_started

        # Runtime verification, SnapshotSeries-style: the dedup promise
        # is `executed == unique - hits` with every task covered.
        if cache_hits + executed != len(unique):
            raise SweepIntegrityError(
                f"sweep dedup accounting broken: {cache_hits} hits + "
                f"{executed} executed != {len(unique)} unique keys"
            )
        for fp in scenario_fps:
            for code, key in tasks_by_fp[fp]:
                partial = partials.get(key)
                if partial is None:
                    raise SweepIntegrityError(
                        f"no partial for country {code} under key {key}"
                    )
                if partial.country != code:
                    raise SweepIntegrityError(
                        f"key {key} resolved to country {partial.country}, "
                        f"expected {code}"
                    )

        # Fan out: assemble each distinct config's dataset exactly once
        # (scenarios sharing a fingerprint share the dataset OBJECT, so
        # downstream ensure_index() builds one index for all of them).
        datasets: dict[str, GovernmentHostingDataset] = {}
        for fp, pipeline in pipelines.items():
            ordered = [partials[key] for _, key in tasks_by_fp[fp]]
            datasets[fp] = pipeline.assemble(ordered)

        if self.registry is not None:
            from repro.obs import RunManifest

            # One manifest per distinct config.  cache=None on purpose:
            # the shared cache's stats describe the whole wave, and
            # stamping sweep-wide accounting onto every per-config
            # manifest would misattribute it.
            for fp, pipeline in pipelines.items():
                self.registry.record(RunManifest.collect(
                    pipeline, datasets[fp], executor=strategy, cache=None,
                ))

        baseline_fp = scenario_fps[0]
        baseline_keys = dict(tasks_by_fp[baseline_fp])
        results = []
        for scenario, fp in zip(scenarios, scenario_fps):
            changed = tuple(sorted(
                code for code, key in tasks_by_fp[fp]
                if baseline_keys[code] != key
            ))
            results.append(ScenarioResult(
                scenario=scenario, dataset=datasets[fp], run_fp=fp,
                changed_countries=changed,
            ))

        accounting = SweepAccounting(
            scenarios=len(scenarios),
            countries=len(codes),
            total_tasks=len(scenarios) * len(codes),
            unique_keys=len(unique),
            cache_hits=cache_hits,
            executed=executed,
            distinct_configs=len(pipelines),
            distinct_worlds=len(worlds),
            scan_wave_s=round(scan_wave_s, 6),
        )
        logger.info("%s", accounting.summary())
        return SweepResult(results=tuple(results), accounting=accounting)


__all__ = [
    "ScenarioResult",
    "SweepAccounting",
    "SweepIntegrityError",
    "SweepResult",
    "SweepRunner",
]
