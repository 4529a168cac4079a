"""Parallel-vs-serial equivalence of the pipeline execution layer.

The contract of ``repro.exec`` is strict: every strategy, at every
worker count, produces a dataset **bit-identical** to the serial run —
same records, same validation stats, same Table 3/4 summaries — because
per-country work is order-independent and the cross-country reductions
merge deterministically.
"""

import dataclasses
import pickle

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.exec import ProcessExecutor, SerialExecutor, make_executor
from repro.exec import processes
from repro.exec.base import plan_wave
from repro.obs import Observability
from tests.records import iter_records

COUNTRIES = ("BR", "US", "FR", "MA")


@pytest.fixture(scope="module")
def exec_world() -> SyntheticWorld:
    return SyntheticWorld.generate(
        WorldConfig(seed=13, scale=0.03, countries=COUNTRIES,
                    include_topsites=False)
    )


@pytest.fixture(scope="module")
def serial_baseline(exec_world):
    return Pipeline(exec_world).run(list(COUNTRIES))


def _fingerprint(dataset):
    """Everything the equivalence contract covers, in comparable form."""
    return (
        sorted(iter_records(dataset), key=lambda r: (r.country, r.url)),
        dataset.validation,
        dataset.summarize(),
        dataset.validation.table4(),
        dataset.per_country_stats(),
        {code: ds.depth_histogram for code, ds in dataset.countries.items()},
        {code: sorted(ds.unresolved_hostnames)
         for code, ds in dataset.countries.items()},
    )


@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("strategy", ["serial", "processes"])
def test_every_strategy_matches_serial(exec_world, serial_baseline,
                                       strategy, workers):
    if strategy == "serial" and workers > 1:
        pytest.skip("serial has no worker knob")
    executor = (SerialExecutor() if strategy == "serial"
                else ProcessExecutor(workers=workers))
    try:
        dataset = Pipeline(exec_world).run(list(COUNTRIES), executor=executor)
    finally:
        executor.close()
    assert _fingerprint(dataset) == _fingerprint(serial_baseline)


@pytest.mark.parametrize("seed", [3, 11])
def test_process_pool_matches_serial_across_seeds(seed):
    config = WorldConfig(seed=seed, scale=0.02, countries=("BR", "JP"),
                         include_topsites=False)
    world = SyntheticWorld.generate(config)
    serial = Pipeline(world).run(["BR", "JP"])
    executor = ProcessExecutor(workers=2)
    try:
        parallel = Pipeline(world).run(["BR", "JP"], executor=executor)
    finally:
        executor.close()
    assert _fingerprint(parallel) == _fingerprint(serial)


def test_executor_pool_is_reusable_across_runs(exec_world, serial_baseline):
    """Config A, then B, then A observed: one pool, serial results."""
    other_world = SyntheticWorld.generate(
        dataclasses.replace(exec_world.config, seed=14)
    )
    other_serial = Pipeline(other_world).run(list(COUNTRIES))
    serial_observed = Pipeline(exec_world, obs=Observability())
    serial_observed.run(list(COUNTRIES))
    observed = Pipeline(exec_world, obs=Observability())
    executor = ProcessExecutor(workers=2)
    try:
        first = Pipeline(exec_world).run(list(COUNTRIES), executor=executor)
        pool = executor._pool
        other = Pipeline(other_world).run(list(COUNTRIES), executor=executor)
        assert executor._pool is pool
        again = observed.run(list(COUNTRIES), executor=executor)
        assert executor._pool is pool
    finally:
        executor.close()
    assert _fingerprint(first) == _fingerprint(serial_baseline)
    assert _fingerprint(other) == _fingerprint(other_serial)
    assert _fingerprint(again) == _fingerprint(serial_baseline)
    assert observed.obs.metrics.to_dict() == \
        serial_observed.obs.metrics.to_dict()


def test_worker_rebuilds_only_for_a_new_build_key(monkeypatch,
                                                  generated_worlds):
    """A worker keeps the world of its last unit and the pipelines it
    built there: an equal unit reuses both, observed or not, and a new
    one rebuilds.  A unit's world holds only the countries it scans, and
    its partials equal those of a world over every country."""
    monkeypatch.setattr(processes, "_LAST_BUILT", None)
    config = WorldConfig(seed=5, scale=0.01, countries=("BR", "JP"),
                         include_topsites=False)
    full = Pipeline(SyntheticWorld.generate(config)).scan_partial("JP")
    generated_worlds.clear()
    unit = dataclasses.replace(config, countries=("JP",))
    [(partial, seconds, scope)] = processes._scan_unit(
        unit, [(config, False, ["JP"])])
    [built] = processes._LAST_BUILT[2]
    assert pickle.dumps(partial) == pickle.dumps(full)
    assert seconds > 0.0 and scope is None
    # An equal config (every task unpickles its own copy) is a reuse;
    # observing records into a fresh scope on the same pipeline.
    [(observed, _, scope)] = processes._scan_unit(
        dataclasses.replace(unit), [(dataclasses.replace(config), True, ["JP"])])
    assert processes._LAST_BUILT[2] == [built] and built.obs is None
    assert observed == partial
    assert scope.country == "JP" and scope.metrics.to_dict()["counters"]
    assert [c.countries for c in generated_worlds] == [("JP",)]

    reseeded = dataclasses.replace(config, seed=6)
    processes._scan_unit(dataclasses.replace(unit, seed=6),
                         [(reseeded, False, ["JP"])])
    assert built not in processes._LAST_BUILT[2]
    assert len(generated_worlds) == 2


def test_a_pool_wave_generates_one_world_per_unit(exec_world, serial_baseline,
                                                   generated_worlds):
    """A config-built wave over two workers generates two worlds that
    split its countries by size; a world-built one rebuilds its world."""
    config = exec_world.config
    with ProcessExecutor(workers=2) as executor:
        assert plan_wave([(Pipeline(config), list(COUNTRIES))], 2) == [
            (dataclasses.replace(config, countries=("US",)), [(0, ["US"])]),
            (dataclasses.replace(config, countries=("BR", "FR", "MA")),
             [(0, ["BR", "FR", "MA"])]),
        ]
        dataset = Pipeline(config).run(list(COUNTRIES), executor=executor)
        assert plan_wave([(Pipeline(exec_world), ["MA", "US"])], 2) == [
            (config, [(0, ["US"])]), (config, [(0, ["MA"])]),
        ]
    assert _fingerprint(dataset) == _fingerprint(serial_baseline)
    # The workers generate in their own processes; the driver none.
    assert generated_worlds == []


def test_country_order_does_not_change_records(exec_world):
    """Submission order fixes the stats replay, not the records."""
    forward = Pipeline(exec_world).run(list(COUNTRIES))
    backward = Pipeline(exec_world).run(list(reversed(COUNTRIES)))
    key = lambda r: (r.country, r.url)
    assert sorted(iter_records(forward), key=key) == \
        sorted(iter_records(backward), key=key)


def test_make_executor_follows_worker_count():
    assert isinstance(make_executor(), SerialExecutor)
    assert isinstance(make_executor(1), SerialExecutor)
    with make_executor(3) as pooled:
        assert isinstance(pooled, ProcessExecutor)
        assert pooled.workers == 3
    for workers in (0, -1):
        with pytest.raises(ValueError, match="positive integer"):
            make_executor(workers)


def test_process_executor_rejects_custom_geolocator(exec_world):
    from repro.core.geolocation import Geolocator

    pipeline = Pipeline(exec_world)
    custom = Pipeline(
        exec_world,
        geolocator=Geolocator(
            ipinfo=exec_world.ipinfo, manycast=exec_world.manycast,
            atlas=pipeline.atlas, hoiho=exec_world.hoiho,
            ipmap=exec_world.ipmap, enable_active_probing=False,
        ),
    )
    executor = ProcessExecutor(workers=1)
    try:
        with pytest.raises(ValueError, match="default geolocator"):
            custom.run(["BR"], executor=executor)
    finally:
        executor.close()


def test_serial_executor_is_default(exec_world, serial_baseline):
    explicit = Pipeline(exec_world).run(list(COUNTRIES),
                                        executor=SerialExecutor())
    assert _fingerprint(explicit) == _fingerprint(serial_baseline)
