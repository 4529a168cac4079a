"""SweepRunner: dedup accounting, determinism, executor identity.

The sweep's core promise is twofold: every unique ``(global, country,
slice)`` key is scanned exactly once per sweep (verified by the
runner's own integrity checks *and* re-asserted here from the outside),
and the swept datasets are byte-identical to what standalone
``Pipeline.run`` calls would have produced — across executors and
across cold/warm cache states.
"""

from __future__ import annotations

import pytest

from repro import Pipeline, SyntheticWorld
from repro.cache import ScanCache
from repro.exec import ProcessExecutor, ScanIntegrityError, SerialExecutor
from repro.io import save_dataset
from repro.reporting.scenarios import render_sweep_report
from repro.scenarios import (
    Scenario,
    ScenarioMatrix,
    SweepIntegrityError,
    SweepRunner,
    compare_sweep,
)
from tests.scenarios.conftest import CODES, make_base, make_matrix


def _dataset_bytes(dataset, tmp_path, name: str) -> bytes:
    path = tmp_path / f"{name}.jsonl"
    save_dataset(dataset, path)
    return path.read_bytes()


def _strip_timing(report: str) -> str:
    return "\n".join(
        line for line in report.splitlines()
        if not line.startswith("scan wave:")
    )


def test_accounting_adds_up(sweep):
    accounting = sweep.accounting
    assert accounting.scenarios == 4
    assert accounting.countries == len(CODES)
    assert accounting.total_tasks == 4 * len(CODES)
    # The outage scenario shares every key with the baseline; evolution
    # shares the untouched countries; so unique < total.
    assert accounting.unique_keys < accounting.total_tasks
    assert accounting.cache_hits == 0
    assert accounting.executed == accounting.unique_keys
    assert accounting.dedup_factor > 1.0
    # outage shares the baseline config entirely -> 3 configs, not 4.
    assert accounting.distinct_configs == 3
    summary = accounting.summary()
    assert f"-> {accounting.unique_keys} unique scans" in summary
    assert f"{accounting.executed} executed" in summary


def test_results_are_baseline_first(sweep):
    names = [result.name for result in sweep]
    assert names == \
        ["baseline", "dns-stress", "cf-down", "evolved"]
    assert sweep.baseline.scenario.kind == "baseline"
    assert sweep.by_name("evolved").scenario.kind == "evolution"
    with pytest.raises(KeyError):
        sweep.by_name("nope")


def test_outage_scenario_shares_the_baseline_dataset(sweep):
    outage = sweep.by_name("cf-down")
    assert outage.dataset is sweep.baseline.dataset
    assert outage.changed_countries == ()
    assert outage.shares_baseline_dataset
    assert outage.run_fp == sweep.baseline.run_fp


def test_changed_countries_track_rekeyed_slices(sweep):
    # A fault profile re-keys every country (the plan is global).
    assert sweep.by_name("dns-stress").changed_countries == \
        tuple(sorted(CODES))
    evolved = sweep.by_name("evolved").changed_countries
    assert evolved and set(evolved) < set(CODES)


def test_swept_datasets_match_standalone_runs(sweep, tmp_path):
    """Gate (c): every scenario == a standalone Pipeline.run, per byte."""
    seen_fps = set()
    for result in sweep:
        if result.run_fp in seen_fps:
            continue  # shared dataset object, already proven
        seen_fps.add(result.run_fp)
        standalone = Pipeline(
            SyntheticWorld.generate(result.scenario.config)
        ).run()
        assert _dataset_bytes(result.dataset, tmp_path,
                              f"swept-{result.name}") == \
            _dataset_bytes(standalone, tmp_path,
                           f"standalone-{result.name}"), \
            f"scenario {result.name} diverged from a standalone run"


@pytest.mark.parametrize("executor_name", ["processes"])
def test_executor_identity(sweep, executor_name, tmp_path):
    """Same matrix, parallel wave -> byte-identical datasets + report."""
    executor = ProcessExecutor(workers=2)
    try:
        parallel = SweepRunner(
            make_matrix(make_base()), executor=executor
        ).run()
    finally:
        executor.close()
    assert parallel.accounting.unique_keys == sweep.accounting.unique_keys
    assert parallel.accounting.executed == sweep.accounting.executed
    for serial_result, parallel_result in zip(sweep, parallel):
        assert _dataset_bytes(serial_result.dataset, tmp_path,
                              f"serial-{serial_result.name}") == \
            _dataset_bytes(parallel_result.dataset, tmp_path,
                           f"{executor_name}-{parallel_result.name}")
    assert _strip_timing(render_sweep_report(parallel)) == \
        _strip_timing(render_sweep_report(sweep))


def _no_world(config):
    raise AssertionError("a fully warm sweep generated a world")


def test_measurement_plane_scenarios_share_one_generated_world(
        sweep, generated_worlds, tmp_path):
    """Baseline and fault scenarios differ only in what the generator
    never reads: one wave generates one world for both, over every
    country, and each scenario still matches its own sweep result byte
    for byte."""
    matrix = ScenarioMatrix(make_base())
    matrix.add_faults("dns-stress", rate=0.3, profile="dns")
    shared = SweepRunner(matrix).run()
    assert [c.countries for c in generated_worlds] == [CODES]
    for result in shared:
        assert _dataset_bytes(result.dataset, tmp_path,
                              f"shared-{result.name}") == \
            _dataset_bytes(sweep.by_name(result.name).dataset, tmp_path,
                           f"sweep-{result.name}")


def test_cold_then_warm_cache_is_deterministic(sweep, tmp_path):
    cache = ScanCache(tmp_path / "cache")
    cold = SweepRunner(make_matrix(make_base()), cache=cache).run()
    assert cold.accounting.cache_hits == 0
    assert cold.accounting.executed == cold.accounting.unique_keys

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SyntheticWorld, "generate", staticmethod(_no_world))
        warm = SweepRunner(make_matrix(make_base()), cache=cache).run()
    assert warm.accounting.cache_hits == warm.accounting.unique_keys
    assert warm.accounting.executed == 0

    for uncached_result, cold_result, warm_result in zip(sweep, cold, warm):
        baseline_bytes = _dataset_bytes(
            uncached_result.dataset, tmp_path,
            f"uncached-{uncached_result.name}"
        )
        assert baseline_bytes == _dataset_bytes(
            cold_result.dataset, tmp_path, f"cold-{cold_result.name}")
        assert baseline_bytes == _dataset_bytes(
            warm_result.dataset, tmp_path, f"warm-{warm_result.name}")
    assert compare_sweep(warm) == compare_sweep(sweep)


def test_sweep_rejects_mismatched_country_selections():
    base = make_base()
    other = make_base(countries=("US", "DE"))
    scenarios = (
        Scenario(name="baseline", kind="baseline", config=base),
        Scenario(name="narrow", kind="faults", config=other),
    )
    with pytest.raises(ValueError, match="different\\s+countries"):
        SweepRunner(scenarios)


def test_sweep_rejects_duplicate_names_and_empty_matrices():
    base = make_base()
    scenario = Scenario(name="twin", kind="baseline", config=base)
    with pytest.raises(ValueError, match="duplicate"):
        SweepRunner((scenario, scenario))
    with pytest.raises(ValueError, match="at least one"):
        SweepRunner(())


class _DroppingExecutor(SerialExecutor):
    """Loses the last partial of the wave's first group."""

    def scan(self, groups):
        results = super().scan(groups)
        results[0].pop()
        return results


class _MislabellingExecutor(SerialExecutor):
    """Returns the first group's first two partials swapped."""

    def scan(self, groups):
        results = super().scan(groups)
        first = results[0]
        first[0], first[1] = first[1], first[0]
        return results


BROKEN_WAVES = pytest.mark.parametrize(
    "strategy", [_DroppingExecutor, _MislabellingExecutor],
    ids=["dropped", "mislabelled"],
)


@BROKEN_WAVES
def test_sweep_rejects_a_broken_scan_wave(strategy):
    baseline = Scenario(name="baseline", kind="baseline",
                        config=make_base(countries=("US", "DE")))
    with pytest.raises(SweepIntegrityError):
        SweepRunner((baseline,), executor=strategy()).run()


@BROKEN_WAVES
def test_cached_run_rejects_a_broken_scan_wave(strategy, tmp_path):
    pipeline = Pipeline(SyntheticWorld.generate(
        make_base(countries=("US", "DE"))
    ))
    with pytest.raises(ScanIntegrityError):
        pipeline.run(executor=strategy(), cache=ScanCache(tmp_path / "cache"))
