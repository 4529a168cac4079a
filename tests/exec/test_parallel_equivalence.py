"""Parallel-vs-serial equivalence of the pipeline execution layer.

The contract of ``repro.exec`` is strict: every strategy, at every
worker count, produces a dataset **bit-identical** to the serial run —
same records, same validation stats, same Table 3/4 summaries — because
per-country work is order-independent and the cross-country reductions
merge deterministically.
"""

import dataclasses

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.exec import ProcessExecutor, SerialExecutor, make_executor
from repro.exec import processes
from repro.obs import Observability

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
        sorted(dataset.iter_records(), key=lambda r: (r.country, r.url)),
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


def test_worker_rebuilds_only_for_a_new_build_key(monkeypatch):
    """A worker reuses its last pipeline while the config compares
    equal, observed or not, and rebuilds when the config changes."""
    monkeypatch.setattr(processes, "_LAST_BUILT", None)
    config = WorldConfig(seed=5, scale=0.01, countries=("BR", "JP"),
                         include_topsites=False)
    processes._scan_one(config, False, "BR")
    built = processes._LAST_BUILT[1]
    # An equal config (every task unpickles its own copy) is a reuse.
    partial, seconds, scope = processes._scan_one(
        dataclasses.replace(config), False, "JP")
    assert processes._LAST_BUILT[1] is built
    assert partial.country == "JP" and seconds > 0.0 and scope is None
    # Observing records into a fresh scope on the same pipeline.
    observed, _, scope = processes._scan_one(config, True, "jp")
    assert processes._LAST_BUILT[1] is built and built.obs is None
    assert observed == partial
    assert scope.country == "JP" and scope.metrics.to_dict()["counters"]
    _, _, again = processes._scan_one(config, True, "BR")
    assert again is not scope and again.country == "BR"

    processes._scan_one(dataclasses.replace(config, seed=6), False, "BR")
    assert processes._LAST_BUILT[1] is not built


def test_country_order_does_not_change_records(exec_world):
    """Submission order fixes the stats replay, not the records."""
    forward = Pipeline(exec_world).run(list(COUNTRIES))
    backward = Pipeline(exec_world).run(list(reversed(COUNTRIES)))
    key = lambda r: (r.country, r.url)
    assert sorted(forward.iter_records(), key=key) == \
        sorted(backward.iter_records(), key=key)


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
