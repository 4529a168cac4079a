"""ScanCache store semantics: round-trips, recovery, stats, maintenance."""

from __future__ import annotations

import errno
import json
import os
import pathlib
import pickle

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache import CACHE_FORMAT_VERSION, ScanCache, scan_keys
from repro.exec.partials import CountryPartial


@pytest.fixture(scope="module")
def cache_world() -> SyntheticWorld:
    return SyntheticWorld.generate(
        WorldConfig(seed=11, scale=0.05, countries=("BR", "US"))
    )


def _key(pipeline: Pipeline, country: str) -> str:
    [key] = scan_keys(pipeline.world.config, pipeline.crawler.max_depth,
                      pipeline.fault_plan, [country])
    return key


@pytest.fixture()
def populated(cache_world, tmp_path):
    """A cache holding BR's partial, plus the pipeline and key."""
    pipeline = Pipeline(cache_world)
    cache = ScanCache(tmp_path / "cache")
    key = _key(pipeline, "BR")
    partial = pipeline.scan_partial("BR")
    cache.store(key, partial, scan_s=1.5)
    return cache, pipeline, key, partial


def _entry_path(cache: ScanCache, key: str):
    files = list(cache.cache_dir.glob(f"*/{key}.partial"))
    assert len(files) == 1
    return files[0]


def test_round_trip(populated):
    cache, _, key, partial = populated
    loaded = cache.load(key, "BR")
    assert loaded == partial
    assert cache.stats.hits == 1
    assert cache.stats.time_saved_s == pytest.approx(1.5)


def test_bulk_is_deferred_until_touched(populated):
    cache, _, key, partial = populated
    loaded = cache.load(key, "BR")
    assert loaded._hosts is None  # bulk still raw bytes
    assert loaded.hosts == partial.hosts  # materializes on demand
    assert loaded.urls == partial.urls
    assert loaded._load_bulk is None


def test_absent_entry_is_a_miss(populated):
    cache, _, _, _ = populated
    assert cache.load("0" * 32, "BR") is None
    assert cache.stats.misses == 1
    assert cache.stats.evicted == 0


def test_truncated_entry_evicted_and_recovered(populated):
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1
    assert not path.exists()


def test_corrupt_payload_evicted(populated):
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip a payload byte; digest check must catch it
    path.write_bytes(bytes(blob))
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1
    assert not path.exists()


def test_garbage_header_evicted(populated):
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    path.write_bytes(b"not a header\n" + b"\x00" * 16)
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1


def test_stale_format_version_evicted(populated):
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    blob = path.read_bytes()
    newline = blob.find(b"\n")
    header = json.loads(blob[:newline])
    header["format"] = CACHE_FORMAT_VERSION + 1
    path.write_bytes(
        json.dumps(header, sort_keys=True).encode() + blob[newline:]
    )
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1


def test_key_mismatch_evicted(populated):
    # An entry renamed (or hash-colliding) to a key it was not stored
    # under fails the header's key check.
    cache, _, key, _ = populated
    other = "f" * 32
    target = cache.cache_dir / other[:2] / f"{other}.partial"
    target.parent.mkdir(parents=True, exist_ok=True)
    _entry_path(cache, key).rename(target)
    assert cache.load(other, "BR") is None
    assert cache.stats.evicted == 1


def test_country_mismatch_evicted(populated):
    cache, pipeline, _, partial = populated
    us_key = _key(pipeline, "US")
    cache.store(us_key, partial)  # BR's partial filed under US's key
    assert cache.load(us_key, "US") is None
    assert cache.stats.evicted == 1


def test_recompute_after_eviction_round_trips(populated):
    cache, pipeline, key, partial = populated
    _entry_path(cache, key).write_bytes(b"torn")
    assert cache.load(key, "BR") is None
    cache.store(key, pipeline.scan_partial("BR"))
    assert cache.load(key, "BR") == partial


@pytest.mark.parametrize("step", ["write", "replace"])
def test_failed_store_removes_its_temp_file(populated, monkeypatch, step):
    cache, _, key, partial = populated

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    if step == "replace":
        monkeypatch.setattr(os, "replace", no_space)
    else:
        write_bytes = pathlib.Path.write_bytes

        def torn_write(path, data):
            write_bytes(path, data[: len(data) // 2])
            no_space()

        monkeypatch.setattr(pathlib.Path, "write_bytes", torn_write)
    with pytest.raises(OSError, match="No space"):
        cache.store(key, partial, scan_s=9.0)
    monkeypatch.undo()
    assert not list(cache.cache_dir.glob("*/*.tmp.*"))
    assert cache.stats.stores == 1
    # The entry stored earlier under the same key still serves hits.
    assert cache.load(key, "BR") == partial
    assert cache.stats.time_saved_s == pytest.approx(1.5)


def test_entry_count_and_clear(populated):
    cache, pipeline, _, partial = populated
    cache.store(_key(pipeline, "US"), partial)
    assert cache.entry_count() == 2
    assert cache.clear() == 2
    assert cache.entry_count() == 0


def test_stats_summary_renders():
    stats = ScanCache.__new__(ScanCache)  # summary needs only stats
    from repro.cache import CacheStats

    s = CacheStats(hits=3, misses=1, bytes_read=2048, time_saved_s=1.25)
    assert "3 hits, 1 misses (75% hit rate)" in s.summary()
    assert "2.0 KiB read" in s.summary()


def test_partial_pickles_with_bulk_forced(populated):
    # Process executors ship partials across process boundaries; a
    # deferred partial must materialize, not pickle its loader.
    cache, _, key, partial = populated
    lazy = cache.load(key, "BR")
    assert lazy._hosts is None
    clone = pickle.loads(pickle.dumps(lazy))
    assert isinstance(clone, CountryPartial)
    assert clone == partial
    assert clone._hosts is not None
