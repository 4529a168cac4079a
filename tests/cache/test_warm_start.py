"""Warm-start contract: byte-identical datasets cold vs warm, under every
executor, with and without fault injection; recovery and gating rules."""

from __future__ import annotations

import dataclasses

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache import ScanCache
from repro.core.geolocation import Geolocator
from repro.exec import ProcessExecutor, SerialExecutor
from repro.io import save_dataset

CONFIG = WorldConfig(seed=42, scale=0.03, countries=("BR", "US", "FR", "JP"))
FAULTED = dataclasses.replace(CONFIG, fault_rate=0.15)


@pytest.fixture(scope="module")
def warm_world() -> SyntheticWorld:
    return SyntheticWorld.generate(CONFIG)


def _export(world, tmp_path, name, cache=None, executor=None, countries=None):
    pipeline = Pipeline(world)
    if executor is not None:
        with executor:
            dataset = pipeline.run(countries, executor=executor, cache=cache)
    else:
        dataset = pipeline.run(countries, cache=cache)
    out = tmp_path / f"{name}.jsonl"
    save_dataset(dataset, out)
    return out.read_bytes()


def test_cold_then_warm_byte_identical(warm_world, tmp_path):
    uncached = _export(warm_world, tmp_path, "uncached")
    cold_cache = ScanCache(tmp_path / "cache")
    cold = _export(warm_world, tmp_path, "cold", cache=cold_cache)
    warm_cache = ScanCache(tmp_path / "cache")
    warm = _export(warm_world, tmp_path, "warm", cache=warm_cache)

    assert cold == uncached  # caching must not change results
    assert warm == cold
    assert cold_cache.stats.misses == len(CONFIG.countries)
    assert warm_cache.stats.hits == len(CONFIG.countries)
    assert warm_cache.stats.misses == 0


def test_faulted_cold_then_warm_byte_identical(tmp_path):
    world = SyntheticWorld.generate(FAULTED)
    uncached = _export(world, tmp_path, "uncached")
    cold = _export(world, tmp_path, "cold", cache=ScanCache(tmp_path / "c"))
    warm_cache = ScanCache(tmp_path / "c")
    warm = _export(world, tmp_path, "warm", cache=warm_cache)
    assert cold == uncached
    assert warm == cold
    assert warm_cache.stats.misses == 0


@pytest.mark.parametrize("make_executor", [
    lambda: ProcessExecutor(workers=2),
], ids=["processes"])
def test_warm_start_under_parallel_executors(warm_world, tmp_path, make_executor):
    serial = _export(warm_world, tmp_path, "serial")
    # Cold fan-out through the parallel executor populates the cache...
    cold_cache = ScanCache(tmp_path / "cache")
    cold = _export(warm_world, tmp_path, "cold",
                   cache=cold_cache, executor=make_executor())
    # ...and a warm run through the same kind of executor hits fully.
    warm_cache = ScanCache(tmp_path / "cache")
    warm = _export(warm_world, tmp_path, "warm",
                   cache=warm_cache, executor=make_executor())
    assert cold == serial
    assert warm == serial
    assert warm_cache.stats.misses == 0


def test_cache_shared_across_executors(warm_world, tmp_path):
    # Entries written by a process fan-out serve a serial warm start.
    serial = _export(warm_world, tmp_path, "serial")
    _export(warm_world, tmp_path, "cold",
            cache=ScanCache(tmp_path / "cache"),
            executor=ProcessExecutor(workers=2))
    warm_cache = ScanCache(tmp_path / "cache")
    warm = _export(warm_world, tmp_path, "warm", cache=warm_cache,
                   executor=SerialExecutor())
    assert warm == serial
    assert warm_cache.stats.misses == 0


def test_partial_hit_scans_only_misses(warm_world, tmp_path):
    cache = ScanCache(tmp_path / "cache")
    pipeline = Pipeline(warm_world)
    pipeline.run(["BR", "US"], cache=cache)

    warm_cache = ScanCache(tmp_path / "cache")
    full = Pipeline(warm_world).run(cache=warm_cache)
    assert warm_cache.stats.hits == 2
    assert warm_cache.stats.misses == len(CONFIG.countries) - 2
    assert set(full.countries) == set(CONFIG.countries)

    uncached = Pipeline(warm_world).run()
    assert full.summarize() == uncached.summarize()
    assert full.validation == uncached.validation


def test_config_change_misses_cleanly(tmp_path):
    world = SyntheticWorld.generate(CONFIG)
    cache = ScanCache(tmp_path / "cache")
    Pipeline(world).run(cache=cache)

    # Same cache dir, different world: every lookup must miss (different
    # keys), and the shifted world's dataset must match its own uncached run.
    shifted_config = dataclasses.replace(CONFIG, seed=CONFIG.seed + 1)
    shifted = SyntheticWorld.generate(shifted_config)
    shifted_cache = ScanCache(tmp_path / "cache")
    cached = _export(shifted, tmp_path, "cached", cache=shifted_cache)
    assert shifted_cache.stats.hits == 0
    assert shifted_cache.stats.misses == len(CONFIG.countries)
    assert cached == _export(shifted, tmp_path, "uncached")


def test_corrupt_entry_recovered_transparently(warm_world, tmp_path):
    cache = ScanCache(tmp_path / "cache")
    cold = _export(warm_world, tmp_path, "cold", cache=cache)

    entries = sorted(cache.cache_dir.glob("*/*.partial"))
    assert len(entries) == len(CONFIG.countries)
    entries[0].write_bytes(b"torn write")
    blob = bytearray(entries[1].read_bytes())
    blob[-3] ^= 0x55
    entries[1].write_bytes(bytes(blob))

    warm_cache = ScanCache(tmp_path / "cache")
    warm = _export(warm_world, tmp_path, "warm", cache=warm_cache)
    assert warm == cold  # recomputed, never trusted
    assert warm_cache.stats.evicted == 2
    assert warm_cache.stats.misses == 2
    assert warm_cache.stats.hits == len(CONFIG.countries) - 2
    # The recomputed entries were stored back and now serve hits.
    again_cache = ScanCache(tmp_path / "cache")
    again = _export(warm_world, tmp_path, "again", cache=again_cache)
    assert again == cold
    assert again_cache.stats.misses == 0


def test_custom_geolocator_rejects_cache(warm_world, tmp_path):
    w = warm_world
    custom = Geolocator(ipinfo=w.ipinfo, manycast=w.manycast,
                        atlas=Pipeline(w).atlas, hoiho=w.hoiho, ipmap=w.ipmap)
    pipeline = Pipeline(w, geolocator=custom)
    assert not pipeline.supports_caching
    with pytest.raises(ValueError, match="custom geolocator"):
        pipeline.run(cache=ScanCache(tmp_path / "cache"))


def test_default_run_does_not_touch_disk(warm_world, tmp_path):
    # cache=None (the default) must not create or read any cache state.
    Pipeline(warm_world).run(["BR"])
    assert list(tmp_path.iterdir()) == []
