"""Pipeline-level fault-injection contracts.

Three guarantees anchor the layer:

1. rate 0 is *byte-identical* to a fault-free run (the faulted code
   paths are never entered);
2. a faulted run is deterministic for a fixed ``fault_seed`` and
   bit-identical across the serial and process executors;
3. unrecoverable faults degrade gracefully — the run completes and the
   losses land in the methodology's existing fallbacks, fully accounted
   by a consistent :class:`FaultReport`.
"""

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.core.geolocation import ValidationMethod
from repro.exec import make_executor
from repro.faults import FaultReport
from repro.io import save_dataset
from tests.records import iter_records

COUNTRIES = ("BR", "US", "FR", "MA")
FAULT_RATE = 0.08


def _config(**overrides) -> WorldConfig:
    base = dict(seed=13, scale=0.03, countries=COUNTRIES,
                include_topsites=False)
    base.update(overrides)
    return WorldConfig(**base)


def _run(config: WorldConfig, workers=None):
    world = SyntheticWorld.generate(config)
    executor = make_executor(workers)
    try:
        return Pipeline(world).run(list(COUNTRIES), executor=executor)
    finally:
        executor.close()


@pytest.fixture(scope="module")
def faulted_dataset():
    return _run(_config(fault_rate=FAULT_RATE))


def _bytes_of(dataset, tmp_path, name) -> bytes:
    path = tmp_path / name
    save_dataset(dataset, path)
    return path.read_bytes()


# -------------------------------------------------------------- rate zero

def test_rate_zero_is_byte_identical(tmp_path):
    plain = _run(_config())
    zeroed = _run(_config(fault_rate=0.0, fault_seed=1234))
    assert _bytes_of(plain, tmp_path, "plain.jsonl") == \
        _bytes_of(zeroed, tmp_path, "zeroed.jsonl")
    assert zeroed.faults == FaultReport()


def test_rate_zero_run_creates_no_sessions():
    world = SyntheticWorld.generate(_config())
    pipeline = Pipeline(world)
    assert not pipeline.fault_plan.enabled
    partial = pipeline.scan_partial("BR")
    assert partial.faults == FaultReport()


# ---------------------------------------------------------- determinism

def test_faulted_run_is_deterministic_for_fixed_fault_seed(tmp_path,
                                                           faulted_dataset):
    repeat = _run(_config(fault_rate=FAULT_RATE))
    assert _bytes_of(faulted_dataset, tmp_path, "first.jsonl") == \
        _bytes_of(repeat, tmp_path, "repeat.jsonl")
    assert repeat.faults == faulted_dataset.faults


def test_fault_seed_varies_failures_with_the_world_fixed(faulted_dataset):
    other = _run(_config(fault_rate=FAULT_RATE, fault_seed=777))
    assert other.faults != faulted_dataset.faults


@pytest.mark.parametrize("workers", [2], ids=["processes-2"])
def test_faulted_runs_identical_across_executors(tmp_path, faulted_dataset,
                                                 workers):
    parallel = _run(_config(fault_rate=FAULT_RATE), workers)
    assert _bytes_of(parallel, tmp_path, "parallel.jsonl") == \
        _bytes_of(faulted_dataset, tmp_path, "serial.jsonl")
    assert parallel.faults == faulted_dataset.faults


# ----------------------------------------------------------- degradation

def test_faulted_run_completes_with_consistent_report(faulted_dataset):
    report = faulted_dataset.faults
    assert report.consistent
    total = report.total()
    assert total.injected > 0
    assert total.injected == total.retried + total.degraded
    assert set(report.countries) <= set(COUNTRIES)


def test_degradations_land_in_existing_fallbacks():
    """Lost dns/whois lookups surface as unresolved hostnames.

    The ``lookups`` profile leaves the crawl untouched, so the hostname
    universe matches the fault-free run and lost lookups can only move
    hostnames from resolved to unresolved.
    """
    plain = _run(_config())
    faulted = _run(_config(fault_rate=0.2, fault_profile="lookups"))
    domains = faulted.faults.domain_totals()
    assert domains.get("dns") or domains.get("whois")
    for code in COUNTRIES:
        before = set(plain.countries[code].unresolved_hostnames)
        after = set(faulted.countries[code].unresolved_hostnames)
        assert before <= after
    total_lost = sum(
        len(faulted.countries[code].unresolved_hostnames)
        - len(plain.countries[code].unresolved_hostnames)
        for code in COUNTRIES
    )
    assert total_lost > 0


def test_lookup_profile_cannot_touch_probes():
    dataset = _run(_config(fault_rate=0.2, fault_profile="lookups"))
    domains = dataset.faults.domain_totals()
    assert not {"probe", "congestion", "vpn"} & set(domains)
    assert {"dns", "whois", "ipinfo", "peeringdb"} & set(domains)


def test_vpn_profile_reselects_vantage_without_crashing():
    dataset = _run(_config(fault_rate=0.9, fault_profile="vpn"))
    domains = dataset.faults.domain_totals()
    assert set(domains) == {"vpn"}
    assert domains["vpn"].degraded > 0  # at 90%, some exits must flap out
    # the run still measured every country
    assert set(dataset.countries) == set(COUNTRIES)
    assert all(ds.url_count for ds in dataset.countries.values())


def test_probe_faults_produce_unresolved_validations():
    heavy = _run(_config(fault_rate=0.6, fault_profile="probes"))
    methods = {record.validation for record in iter_records(heavy)}
    assert ValidationMethod.UNRESOLVED in methods
    assert heavy.faults.consistent


# ----------------------------------------------------------- persistence

def test_fault_report_round_trips_through_io(tmp_path, faulted_dataset):
    from repro.io import load_dataset

    path = tmp_path / "faulted.jsonl"
    save_dataset(faulted_dataset, path)
    loaded = load_dataset(path)
    assert loaded.faults == faulted_dataset.faults
