"""The two-level sweep scheduler with cross-scenario scan deduplication.

Naively, an S-scenario sweep costs S full ``Pipeline.run`` calls.  But
the scan cache keys one country's phase-1 result by
``(global fingerprint, country, country-slice fingerprint)`` — and most
(scenario, country) pairs across a matrix share that key: an outage
what-if shares *every* scan with the baseline, an evolution step
re-keys only the countries it touches.  The
:class:`SweepRunner` therefore works in two levels:

1. **dedup** — flatten the matrix into (scenario, country) tasks, key
   each with :func:`~repro.cache.fingerprint.scan_keys` (the derivation
   ``Pipeline.run`` uses), and group by key so every unique key is
   scanned exactly once;
2. **dispatch** — hand the unique keys to
   :func:`~repro.exec.base.scan_keyed`, which serves hits from the
   shared :class:`~repro.cache.ScanCache` and pushes *all* remaining
   tasks through the execution strategy in one pool-filling
   :meth:`~repro.exec.base.ExecutionStrategy.scan` wave instead of S
   sequential ``Pipeline.run`` calls.

Each scenario's dataset is then assembled by fanning the shared
partials back out (:func:`~repro.core.pipeline.assemble`, the phase 2
of ``Pipeline.run``), with scenarios whose configs are identical (run
fingerprint) sharing one dataset *object* — so the comparison layer's
:func:`~repro.analysis.engine.index.ensure_index` builds each distinct
index once.  Every pipeline is built from its scenario's config, so
the wave generates worlds over the cache's misses only, shared by all
the configs that differ only in fault plan
(:func:`~repro.exec.base.plan_wave`).

The dedup accounting is enforced at runtime: the number of scans
actually executed must equal the unique keys minus the cache hits, and
every scenario's every country must be covered by a partial for that
country — ``scan_keyed`` verifies the wave, and the sweep re-raises any
violation as :class:`SweepIntegrityError` instead of silently over- or
under-scanning.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.cache.fingerprint import run_fingerprint, scan_keys
from repro.core.dataset import GovernmentHostingDataset
from repro.core.pipeline import Pipeline, assemble
from repro.exec import (
    ExecutionStrategy,
    ScanIntegrityError,
    SerialExecutor,
    scan_keyed,
)
from repro.scenarios.matrix import Scenario, ScenarioMatrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cache import ScanCache

logger = logging.getLogger(__name__)


class SweepIntegrityError(ScanIntegrityError):
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
    #: Wall seconds of the scan wave, generation and cache I/O included.
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
            f"{self.distinct_configs} distinct configs"
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
        cache: Optional["ScanCache"] = None,
        executor: Optional[ExecutionStrategy] = None,
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
        self.cache = cache
        self._executor = executor

    # -------------------------------------------------------------- run

    def run(self) -> SweepResult:
        """Dedup, dispatch one scan wave, fan out, assemble, verify."""
        strategy = self._executor or SerialExecutor()
        scenarios = self.scenarios
        codes = self.codes

        # Level 1: one pipeline per distinct config (keyed by the full
        # run fingerprint — configs themselves are not hashable), plus
        # each distinct config's (country, scan key) task list: exactly
        # the keys `Pipeline.run` derives from the same config.
        pipelines: dict[str, Pipeline] = {}
        scenario_fps: list[str] = []
        tasks_by_fp: dict[str, list[tuple[str, str]]] = {}
        for scenario in scenarios:
            config = scenario.config
            fp = run_fingerprint(config)
            if fp not in pipelines:
                pipelines[fp] = Pipeline(config)
                tasks_by_fp[fp] = list(zip(codes, scan_keys(config, codes)))
            scenario_fps.append(fp)

        # Flatten to unique keys in first-occurrence order, each owned
        # by the first pipeline to see it (by per-country hermeticity
        # any sharing config would scan the identical partial).
        unique: dict[str, tuple[Pipeline, str]] = {}
        for fp in scenario_fps:
            for code, key in tasks_by_fp[fp]:
                unique.setdefault(key, (pipelines[fp], code))

        # Level 2: hits from the shared cache, every miss in ONE wave;
        # scan_keyed verifies every unique key (hence every scenario's
        # every country) is covered by a partial for its own country.
        wave_started = time.perf_counter()
        try:
            partials, cache_hits, executed = scan_keyed(
                strategy, unique, self.cache
            )
        except ScanIntegrityError as exc:
            raise SweepIntegrityError(str(exc)) from exc
        scan_wave_s = time.perf_counter() - wave_started

        # Fan out: assemble each distinct config's dataset exactly once
        # (scenarios sharing a fingerprint share the dataset OBJECT, so
        # downstream ensure_index() builds one index for all of them).
        datasets: dict[str, GovernmentHostingDataset] = {}
        for fp, tasks in tasks_by_fp.items():
            datasets[fp] = assemble([partials[key] for _, key in tasks])

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
