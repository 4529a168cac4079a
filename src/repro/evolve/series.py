"""The snapshot-series runner: N worlds, one cache, incremental scans.

:class:`SnapshotSeries` drives ``Pipeline.run`` once per snapshot over
a shared :class:`~repro.cache.ScanCache`.  Snapshot 0 measures the base
configuration; each later snapshot's configuration is derived by the
:class:`~repro.evolve.model.EvolutionModel` from its predecessor.
Because unchanged countries keep their cache keys, every incremental
snapshot re-scans exactly the countries its evolution step touched, and
as each snapshot's pipeline is built from its config, it generates a
world over those countries only (a warm re-run generates none).
The runner *asserts* the contract behind this on the keys themselves,
before each incremental snapshot scans: the countries whose
:func:`~repro.cache.fingerprint.scan_keys` key moved since the previous
snapshot must be exactly the countries the step mutated, or
:class:`SeriesIntegrityError` is raised — a hermeticity bug, not a
degradation.  The check needs no cache, and a cache that already holds
the whole series is legal: a warm re-run serves every snapshot from it.

Each snapshot is identified by its configuration alone: its keys and
run fingerprint come from :mod:`repro.cache.fingerprint`.  Each
snapshot's accounting is a fresh :class:`~repro.cache.CacheStats` (the
shared cache's cumulative stats are preserved in
:attr:`SnapshotSeries.total_stats`).  The runner only measures; a
caller that records provenance (``repro-gov evolve --manifest``) takes
each snapshot's :class:`~repro.obs.RunManifest` ``evolution`` block
from :meth:`SnapshotSeries.evolution_provenance`, which chains it to
its parent: the parent's run fingerprint, the mutation seed, the step
number and the changed-country list.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional, Union

from repro.cache import CacheStats, ScanCache, run_fingerprint, scan_keys
from repro.core.pipeline import Pipeline
from repro.datagen.config import WorldConfig
from repro.evolve.model import EvolutionModel, EvolutionRates
from repro.evolve.mutations import Mutation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.dataset import GovernmentHostingDataset
    from repro.exec import ExecutionStrategy


@dataclasses.dataclass
class SnapshotRecord:
    """One measured snapshot of a series."""

    #: Position in the series (0 = the base snapshot).
    step: int
    #: Display label ("T+0", "T+1", ...).
    label: str
    #: The configuration this snapshot measured.
    config: WorldConfig
    #: The measured dataset.
    dataset: "GovernmentHostingDataset"
    #: Run fingerprint of this snapshot (manifest identity).
    fingerprint: str
    #: Cache accounting of this snapshot alone.
    cache_stats: Optional[CacheStats]
    #: Mutations the evolution step applied to *reach* this snapshot
    #: (empty for the base snapshot).
    mutations: tuple[Mutation, ...]
    #: Countries the step rewrote (sorted; empty for the base).
    changed_countries: tuple[str, ...]
    #: The previous snapshot's fingerprint (None for the base).
    parent_fingerprint: Optional[str]

    @property
    def expected_hit_rate(self) -> Optional[float]:
        """Unchanged-country fraction (None for the base snapshot)."""
        if self.parent_fingerprint is None:
            return None
        total = len(self.config.country_codes())
        if total == 0:
            return 0.0
        return (total - len(self.changed_countries)) / total


class SeriesIntegrityError(RuntimeError):
    """An evolution step re-keyed other countries than it mutated."""


class SnapshotSeries:
    """Run a longitudinal series of snapshots incrementally."""

    def __init__(
        self,
        base_config: WorldConfig,
        snapshots: int,
        *,
        evolution_seed: int = 1,
        rates: Optional[EvolutionRates] = None,
        cache: Optional[Union[ScanCache, str]] = None,
        executor: Optional["ExecutionStrategy"] = None,
    ) -> None:
        if snapshots < 1:
            raise ValueError(f"snapshots must be >= 1, got {snapshots}")
        self.base_config = base_config
        self.snapshots = snapshots
        self.model = EvolutionModel(evolution_seed, rates)
        self.cache = ScanCache(cache) if isinstance(cache, str) else cache
        self.executor = executor
        #: Aggregated cache accounting across every snapshot run so far.
        self.total_stats = CacheStats()

    def run(self) -> list[SnapshotRecord]:
        """Measure every snapshot; returns the records in series order."""
        records: list[SnapshotRecord] = []
        config = self.base_config
        parent_fingerprint: Optional[str] = None
        parent_keys: Optional[dict[str, str]] = None
        mutations: tuple[Mutation, ...] = ()
        for step in range(self.snapshots):
            if step:
                evolution = self.model.evolve(config, step)
                config, mutations = evolution.config, evolution.mutations
            codes = config.country_codes()
            keys = dict(zip(codes, scan_keys(config, codes)))
            if parent_keys is not None:
                self._verify(f"T+{step}", keys, parent_keys, mutations)
            record = self._run_snapshot(
                step, config, mutations, parent_fingerprint
            )
            records.append(record)
            parent_fingerprint = record.fingerprint
            parent_keys = keys
        return records

    # --------------------------------------------------------- internals

    def _run_snapshot(
        self,
        step: int,
        config: WorldConfig,
        mutations: tuple[Mutation, ...],
        parent_fingerprint: Optional[str],
    ) -> SnapshotRecord:
        snapshot_stats: Optional[CacheStats] = None
        if self.cache is not None:
            # Fresh per-snapshot accounting; the cumulative view lives
            # in total_stats.
            self.cache.stats = CacheStats()
        dataset = Pipeline(config).run(executor=self.executor,
                                       cache=self.cache)
        if self.cache is not None:
            snapshot_stats = self.cache.stats
            self._accumulate(snapshot_stats)
        changed = tuple(sorted({m.country for m in mutations}))
        return SnapshotRecord(
            step=step,
            label=f"T+{step}",
            config=config,
            dataset=dataset,
            fingerprint=run_fingerprint(config),
            cache_stats=snapshot_stats,
            mutations=mutations,
            changed_countries=changed,
            parent_fingerprint=parent_fingerprint,
        )

    def evolution_provenance(self, record: SnapshotRecord) -> Optional[dict]:
        """The manifest ``evolution`` block chaining ``record`` to its
        parent (None for the base snapshot — it was not evolved)."""
        if record.parent_fingerprint is None:
            return None
        return {
            "parent_fingerprint": record.parent_fingerprint,
            "seed": self.model.seed,
            "step": record.step,
            "changed_countries": list(record.changed_countries),
            "mutations": [m.to_dict() for m in record.mutations],
        }

    def _accumulate(self, stats: CacheStats) -> None:
        total = self.total_stats
        total.hits += stats.hits
        total.misses += stats.misses
        total.stores += stats.stores
        total.evicted += stats.evicted
        total.bytes_read += stats.bytes_read
        total.bytes_written += stats.bytes_written
        total.time_saved_s += stats.time_saved_s

    @staticmethod
    def _verify(
        label: str,
        keys: dict[str, str],
        parent_keys: dict[str, str],
        mutations: tuple[Mutation, ...],
    ) -> None:
        """Incremental contract: re-keyed countries == mutated countries.

        A country re-keyed without a mutation means an untouched config
        slice moved; a mutated country that kept its key means the
        mutation never reached its slice.  Either is a hermeticity bug.
        """
        rekeyed = sorted(
            code for code, key in keys.items() if parent_keys.get(code) != key
        )
        mutated = sorted({mutation.country for mutation in mutations})
        if rekeyed != mutated:
            raise SeriesIntegrityError(
                f"snapshot {label}: re-keyed "
                f"{', '.join(rekeyed) or 'none'} but the evolution step "
                f"mutated {', '.join(mutated) or 'none'} — the "
                "per-country hermeticity contract is broken"
            )


__all__ = [
    "SeriesIntegrityError",
    "SnapshotRecord",
    "SnapshotSeries",
]
