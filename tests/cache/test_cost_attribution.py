"""Per-country scan cost attribution in the cache (``scan_cached``).

Entries must record the wall seconds of *their own* country's scan —
not an even split of the miss batch — so warm starts report the time
they actually saved.  Every executor records ``Pipeline.scan_seconds``
per country (process shards ship theirs back with the partials).
"""

from __future__ import annotations

import json

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache import ScanCache
from repro.exec import ProcessExecutor, SerialExecutor

COUNTRIES = ("BR", "US", "FR", "JP")
CONFIG = WorldConfig(seed=42, scale=0.03, countries=COUNTRIES,
                     include_topsites=False)


@pytest.fixture(scope="module")
def cost_world() -> SyntheticWorld:
    return SyntheticWorld.generate(CONFIG)


def _entry_costs(cache: ScanCache) -> dict[str, float]:
    """country -> recorded scan_s, read from the entry headers."""
    costs = {}
    for entry in cache.cache_dir.glob("*/*.partial"):
        header = json.loads(entry.read_bytes().split(b"\n", 1)[0])
        costs[header["country"]] = header["scan_s"]
    return costs


@pytest.mark.parametrize("executor_factory", [
    SerialExecutor,
    lambda: ProcessExecutor(workers=2),
], ids=["serial", "processes"])
def test_entries_record_their_own_scan_cost(cost_world, tmp_path,
                                            executor_factory):
    cache = ScanCache(tmp_path / "cache")
    pipeline = Pipeline(cost_world)
    with executor_factory() as executor:
        pipeline.run(list(COUNTRIES), executor=executor, cache=cache)
    costs = _entry_costs(cache)
    assert set(costs) == set(COUNTRIES)
    # True per-country figures, not the batch average: they match the
    # pipeline's own records and therefore are not all equal.
    for country in COUNTRIES:
        assert costs[country] == pytest.approx(
            pipeline.scan_seconds[country], abs=1e-6
        )
    assert len(set(costs.values())) > 1


def test_every_executor_records_scan_seconds(cost_world):
    for factory in (SerialExecutor, lambda: ProcessExecutor(workers=2)):
        pipeline = Pipeline(cost_world)
        with factory() as executor:
            pipeline.run(list(COUNTRIES), executor=executor)
        assert set(pipeline.scan_seconds) == set(COUNTRIES)
        assert all(seconds > 0.0
                   for seconds in pipeline.scan_seconds.values())


def test_warm_hits_report_summed_per_entry_costs(cost_world, tmp_path):
    cold_cache = ScanCache(tmp_path / "cache")
    Pipeline(cost_world).run(list(COUNTRIES), cache=cold_cache)
    per_entry = _entry_costs(cold_cache)

    warm_cache = ScanCache(tmp_path / "cache")
    Pipeline(cost_world).run(list(COUNTRIES), cache=warm_cache)
    assert warm_cache.stats.hits == len(COUNTRIES)
    assert warm_cache.stats.time_saved_s == pytest.approx(
        sum(per_entry.values()), abs=1e-5
    )
