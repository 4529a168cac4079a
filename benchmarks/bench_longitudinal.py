"""Incremental delta-scan vs cold full run over a two-snapshot series.

Runs ``SnapshotSeries`` (base + one evolved month at realistic churn)
against a content-addressed ``ScanCache``, then times the T+1 snapshot
two ways over the identical world: warm (unchanged countries decode
from cache, changed ones re-scan) and cold (every country scanned).
Both timings are best-of-``_REPEATS`` of the pipeline pass alone --
world generation is identical on both sides and excluded.

Archived as ``BENCH_longitudinal.json``.  Gates:

* incremental T+1 wall-clock >=5x faster than the cold full run at the
  default scale (>=1.5x on sub-default smoke runs, where per-country
  scan cost shrinks toward fixed overhead);
* cache hit-rate equals the unchanged-country fraction *exactly*
  (hits == unchanged, misses == changed);
* the incremental dataset is byte-identical (jsonl export) to the cold
  run of the same derived config under the serial and process
  executors.
"""

from __future__ import annotations

import time

from conftest import BENCH_SCALE, BENCH_SEED, write_bench_json

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache import CacheStats, ScanCache
from repro.evolve import EvolutionRates, SnapshotSeries
from repro.exec import ProcessExecutor, SerialExecutor
from repro.io import save_dataset

#: Monthly-churn evolution rates: a handful of the 61 countries see a
#: hosting change per step, the rest must ride the cache.
_MONTHLY = EvolutionRates(
    provider_gain=0.03,
    provider_loss=0.02,
    hyperscaler_migration=0.03,
    soe_formation=0.01,
    prefix_reregistration=0.01,
)

_REPEATS = 3


def _best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _dataset_bytes(dataset, tmp_path, name: str) -> bytes:
    out = tmp_path / f"{name}.jsonl"
    save_dataset(dataset, out)
    return out.read_bytes()


def test_incremental_snapshot_vs_cold(report, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("longitudinal_bench")
    base = WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)

    series = SnapshotSeries(base, 2, evolution_seed=BENCH_SEED,
                            rates=_MONTHLY, cache=str(tmp / "series-cache"))
    records = series.run()  # verifies the hit-rate contract internally
    evolved = records[1]
    total = len(base.country_codes())
    changed = len(evolved.changed_countries)
    assert 0 < changed < total

    base_pipeline = Pipeline(SyntheticWorld.generate(base))
    primed = iter(range(1000))

    def prime() -> ScanCache:
        """A cache holding exactly the T+0 snapshot — the state an
        incremental T+1 run starts from.  Fresh per measurement: a warm
        run stores the changed countries, which would turn a repeat
        into a 100%-hit replay instead of a delta-scan."""
        cache = ScanCache(tmp / f"primed-{next(primed)}")
        base_pipeline.run(cache=cache)
        cache.stats = CacheStats()
        return cache

    # Time the T+1 pipeline pass over the identical world, warm vs cold.
    pipeline = Pipeline(SyntheticWorld.generate(evolved.config))
    incremental_s = float("inf")
    stats = None
    for _ in range(_REPEATS):
        cache = prime()
        start = time.perf_counter()
        pipeline.run(cache=cache)
        incremental_s = min(incremental_s, time.perf_counter() - start)
        stats = cache.stats
        assert stats.hits == total - changed
        assert stats.misses == changed

    cold_s = _best_of(_REPEATS, pipeline.run)
    speedup = cold_s / incremental_s if incremental_s else float("inf")

    # Byte identity: warm runs under every executor == the cold run.
    cold_bytes = _dataset_bytes(pipeline.run(), tmp, "cold")
    identical = {}
    for name, factory in (("serial", SerialExecutor),
                          ("processes", ProcessExecutor)):
        cache = prime()
        with factory() as executor:
            dataset = pipeline.run(executor=executor, cache=cache)
        identical[name] = (
            _dataset_bytes(dataset, tmp, f"warm-{name}") == cold_bytes
            and cache.stats.hits == total - changed
        )

    report(
        "longitudinal",
        f"countries={total}, changed at T+1: {changed} "
        f"({evolved.changed_countries})\n"
        f"T+1 incremental: {incremental_s * 1000:.1f} ms "
        f"({stats.summary()})\n"
        f"T+1 cold:        {cold_s * 1000:.1f} ms\n"
        f"speedup:         {speedup:.2f}x "
        f"(hit rate {stats.hit_rate:.3f}, "
        f"expected {evolved.expected_hit_rate:.3f})\n"
        f"byte-identical:  {identical}",
    )
    write_bench_json("longitudinal", {
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "countries": total,
        "changed_countries": list(evolved.changed_countries),
        "incremental_s": round(incremental_s, 6),
        "cold_s": round(cold_s, 6),
        "speedup": round(speedup, 2),
        "cache_hits": stats.hits,
        "cache_misses": stats.misses,
        "hit_rate": round(stats.hit_rate, 6),
        "expected_hit_rate": round(evolved.expected_hit_rate, 6),
        "byte_identical": identical,
    })

    assert stats.hit_rate == evolved.expected_hit_rate
    assert all(identical.values()), \
        f"incremental dataset diverged from cold run: {identical}"
    floor = 5.0 if BENCH_SCALE >= 0.05 else 1.5
    assert speedup >= floor, \
        f"expected >={floor}x incremental speedup, got {speedup:.2f}x"
