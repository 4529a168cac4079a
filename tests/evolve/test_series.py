"""SnapshotSeries: incremental hit rates, byte identity, evolution
provenance."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache import ScanCache
from repro.datagen.config import CountryOverride
from repro.evolve import EvolutionRates, SnapshotSeries
from repro.evolve.model import EvolutionStep
from repro.evolve.mutations import Mutation
from repro.evolve.series import SeriesIntegrityError

CODES = ("BR", "US", "FR", "DE", "JP", "IN", "ZA", "MX")


def _base_config() -> WorldConfig:
    return WorldConfig(seed=42, scale=0.05, countries=CODES)


@pytest.fixture(scope="module")
def series_records(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("series-cache")
    series = SnapshotSeries(
        _base_config(), 3, evolution_seed=11, cache=str(cache_dir),
    )
    return series, series.run()


def _manifests(series_records):
    """Each snapshot's manifest, collected as ``repro-gov evolve`` does."""
    from repro.obs import RunManifest

    series, records = series_records
    return [
        RunManifest.collect(record.config, record.dataset,
                            cache_stats=record.cache_stats,
                            evolution=series.evolution_provenance(record))
        for record in records
    ]


def test_series_shape(series_records):
    _, records = series_records
    assert [record.label for record in records] == ["T+0", "T+1", "T+2"]
    assert records[0].changed_countries == ()
    assert records[0].parent_fingerprint is None


def test_incremental_hit_rate_matches_unchanged_fraction(series_records):
    """The headline guarantee: hit rate == unchanged / total, exactly."""
    _, records = series_records
    total = len(CODES)
    assert records[0].cache_stats.misses == total  # cold base
    for record in records[1:]:
        changed = len(record.changed_countries)
        assert 0 < changed < total, "seed 11 should change some, not all"
        assert record.cache_stats.misses == changed
        assert record.cache_stats.hits == total - changed
        assert record.cache_stats.hit_rate == pytest.approx(
            record.expected_hit_rate
        )


def test_total_stats_accumulate(series_records):
    series, records = series_records
    assert series.total_stats.hits == \
        sum(record.cache_stats.hits for record in records)
    assert series.total_stats.misses == \
        sum(record.cache_stats.misses for record in records)


def test_manifest_chain(series_records):
    _, records = series_records
    manifests = _manifests(series_records)
    assert manifests[0].evolution is None
    for position, record in enumerate(records[1:], start=1):
        evolution = manifests[position].evolution
        assert evolution["parent_fingerprint"] == \
            records[position - 1].fingerprint
        assert evolution["parent_fingerprint"] == \
            manifests[position - 1].fingerprint
        assert evolution["seed"] == 11
        assert evolution["step"] == position
        assert evolution["changed_countries"] == \
            list(record.changed_countries)


def test_manifest_evolution_round_trips(series_records, tmp_path):
    from repro.obs import RunManifest

    manifest = _manifests(series_records)[1]
    path = tmp_path / "snapshot.manifest.json"
    manifest.write(path)
    loaded = RunManifest.read(path)
    assert loaded.evolution == manifest.evolution


def _dataset_bytes(dataset, tmp_path, name: str) -> bytes:
    from repro.io import save_dataset

    out = tmp_path / f"{name}.jsonl"
    save_dataset(dataset, out)
    return out.read_bytes()


def test_incremental_dataset_byte_identical_to_cold_run(series_records,
                                                        tmp_path):
    """A warm incremental snapshot equals a cold run of its config."""
    _, records = series_records
    evolved_config = records[1].config
    assert evolved_config != records[0].config
    cold = Pipeline(SyntheticWorld.generate(evolved_config)).run()
    assert _dataset_bytes(cold, tmp_path, "cold") == \
        _dataset_bytes(records[1].dataset, tmp_path, "warm")


def test_series_replay_is_deterministic(series_records, tmp_path):
    _, records = series_records
    replay = SnapshotSeries(
        _base_config(), 3, evolution_seed=11,
        cache=str(tmp_path / "fresh-cache"),
    ).run()
    for original, replayed in zip(records, replay):
        assert replayed.config == original.config
        assert replayed.fingerprint == original.fingerprint
        assert _dataset_bytes(replayed.dataset, tmp_path,
                              f"replay-{replayed.step}") == \
            _dataset_bytes(original.dataset, tmp_path,
                           f"orig-{original.step}")


def test_incremental_snapshot_generates_only_its_changed_countries(
        series_records, tmp_path, generated_worlds):
    """T+1 into a cache holding T+0 generates one world, over the
    countries its evolution step changed."""
    _, records = series_records
    cache = ScanCache(tmp_path / "cache")
    SnapshotSeries(_base_config(), 1, cache=cache).run()
    generated_worlds.clear()
    series = SnapshotSeries(_base_config(), 2, evolution_seed=11, cache=cache)
    second = series.run()[1]
    assert [c.countries for c in generated_worlds] == [tuple(
        code for code in CODES if code in records[1].changed_countries)]
    assert _dataset_bytes(second.dataset, tmp_path, "t1") == \
        _dataset_bytes(records[1].dataset, tmp_path, "recorded-t1")


def test_no_cache_series_still_runs(tmp_path):
    records = SnapshotSeries(
        WorldConfig(seed=7, scale=0.05, countries=("BR", "US")),
        2, evolution_seed=2,
    ).run()
    assert len(records) == 2
    assert records[0].cache_stats is None


def test_warm_rerun_serves_every_snapshot_from_cache(series_records,
                                                    tmp_path, monkeypatch):
    """Re-running a series into the cache it filled is legal: every
    snapshot is served from the cache, no world is generated and
    nothing moves."""
    series, records = series_records

    def no_world(config):
        raise AssertionError("a warm snapshot generated a world")

    monkeypatch.setattr(SyntheticWorld, "generate", staticmethod(no_world))
    rerun = SnapshotSeries(
        _base_config(), 3, evolution_seed=11,
        cache=str(series.cache.cache_dir),
    ).run()
    for original, warm in zip(records, rerun):
        assert warm.cache_stats.misses == 0
        assert warm.cache_stats.hits == len(CODES)
        assert warm.fingerprint == original.fingerprint
        assert _dataset_bytes(warm.dataset, tmp_path, f"warm-{warm.step}") \
            == _dataset_bytes(original.dataset, tmp_path,
                              f"cold-{original.step}")


@pytest.mark.parametrize(
    "rekey, mutate",
    [(True, False), (False, True)],
    ids=["unmutated-country-rekeyed", "mutated-country-kept-its-key"],
)
def test_integrity_error_when_rekeyed_differs_from_mutated(monkeypatch,
                                                           rekey, mutate):
    """The series refuses a step whose re-keyed countries are not
    exactly its mutated ones, with or without a cache."""
    series = SnapshotSeries(
        WorldConfig(seed=7, scale=0.05, countries=("BR", "US", "FR")),
        2, evolution_seed=11,
    )

    def evolve(config, step):
        overrides = (CountryOverride(country="US", extra_soes=1),) \
            if rekey else ()
        mutations = (Mutation(country="US", kind="new-soe"),) \
            if mutate else ()
        return EvolutionStep(
            step=step,
            config=dataclasses.replace(config, country_overrides=overrides),
            mutations=mutations,
        )

    monkeypatch.setattr(series.model, "evolve", evolve)
    with pytest.raises(SeriesIntegrityError, match="T\\+1: re-keyed"):
        series.run()


def test_snapshot_count_validated():
    with pytest.raises(ValueError):
        SnapshotSeries(_base_config(), 0)
