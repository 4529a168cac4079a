"""Property-based tests (hypothesis) on core data structures and invariants."""

import dataclasses
import json
import pathlib
import pickle
import random
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.analysis.diversification import hhi
from repro.analysis.engine.index import AnalysisIndex
from repro.categories import HostingCategory
from repro.core.dataset import DatasetSummary
from repro.datagen.sitebuilder import largest_remainder
from repro.evolve import EvolutionModel
from repro.io import dataset_header, save_dataset
from repro.netsim.anycast import AnycastGroup
from repro.netsim.asn import PoP
from repro.netsim.latency import country_threshold_ms, propagation_rtt_ms
from repro.netsim.tls import Certificate
from repro.urltools import registrable_domain
from repro.world.countries import COUNTRIES
from repro.world.geography import haversine_km
from tests.records import iter_records, record_dict

_share_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e6, allow_nan=False), min_size=1,
    max_size=50,
)


@given(_share_lists)
def test_hhi_bounds(shares):
    value = hhi(shares)
    assert 1.0 / len(shares) - 1e-9 <= value <= 1.0 + 1e-9


@given(_share_lists)
def test_hhi_scale_invariant(shares):
    assert hhi(shares) == pytest.approx(hhi([s * 3.5 for s in shares]),
                                        rel=1e-6)


@given(st.integers(min_value=1, max_value=49))
def test_hhi_uniform_is_minimum(n):
    assert hhi([1.0] * n) == pytest.approx(1.0 / n)


_coords = st.tuples(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


@given(st.lists(_coords, min_size=1, max_size=8), _coords)
def test_anycast_catchment_is_argmin(pop_coords, client):
    pops = tuple(
        PoP(country=f"C{i}", city=f"c{i}", lat=lat, lon=lon)
        for i, (lat, lon) in enumerate(pop_coords)
    )
    group = AnycastGroup(address=1, asn=1, pops=pops)
    chosen = group.catchment(*client)
    chosen_distance = haversine_km(client[0], client[1], chosen.lat, chosen.lon)
    for pop in pops:
        other = haversine_km(client[0], client[1], pop.lat, pop.lon)
        assert chosen_distance <= other + 1e-6


@given(st.floats(min_value=0, max_value=25000))
def test_threshold_always_exceeds_propagation(span_km):
    # A server exactly at the span distance remains below the threshold.
    assert country_threshold_ms(span_km) > propagation_rtt_ms(span_km)


@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=1, max_value=30),
       st.randoms(use_true_random=False))
def test_largest_remainder_permutation_stable_total(total, n, rng):
    weights = [rng.random() + 0.01 for _ in range(n)]
    counts = largest_remainder(total, weights)
    assert sum(counts) == total


_hostname = st.from_regex(r"[a-z]{1,10}(\.[a-z]{1,10}){0,4}\.[a-z]{2,6}",
                          fullmatch=True)


@given(_hostname)
def test_registrable_domain_idempotent(hostname):
    domain = registrable_domain(hostname)
    assert registrable_domain(domain) == domain
    assert 1 <= domain.count(".") <= 2


@given(_hostname)
def test_certificate_covers_subject_and_sans(hostname):
    certificate = Certificate(subject=hostname, sans=(hostname,))
    assert certificate.covers(hostname)
    assert certificate.covers(hostname.upper())
    assert not certificate.covers("unrelated.example")


@given(st.sampled_from(sorted(HostingCategory, key=lambda c: c.value)))
def test_category_third_party_partition(category):
    assert category.is_third_party == (category is not HostingCategory.GOVT_SOE)


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**31), st.integers(2, 30))
def test_mix_assignment_matches_targets(seed, n_slots):
    """The generator's greedy category assignment tracks any target mix."""
    rng = random.Random(seed)
    budgets = sorted(
        (max(1, int(rng.paretovariate(1.2) * 10)) for _ in range(n_slots)),
        reverse=True,
    )
    total = sum(budgets)
    shares = [rng.random() + 0.05 for _ in range(4)]
    share_sum = sum(shares)
    shares = [s / share_sum for s in shares]
    targets = dict(zip(HostingCategory, [s * total for s in shares]))
    assigned = {category: 0 for category in HostingCategory}
    remaining = dict(targets)
    for budget in budgets:
        category = max(remaining, key=lambda c: remaining[c])
        assigned[category] += budget
        remaining[category] -= budget
    # Greedy is within the largest single budget of every target.
    biggest = budgets[0]
    for category in HostingCategory:
        assert abs(assigned[category] - targets[category]) <= biggest + 1e-9


@settings(max_examples=18, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.lists(st.sampled_from(sorted(COUNTRIES)), min_size=1, max_size=3,
             unique=True),
)
def test_summarize_equals_index_summary(seed, fault_rate, countries):
    """Table 3 has two implementations (the host loop behind ``run``
    and the index behind ``report``/``serve``); they must agree."""
    dataset = Pipeline(SyntheticWorld.generate(WorldConfig(
        seed=seed, scale=0.02, countries=tuple(countries),
        include_topsites=False, fault_rate=fault_rate,
    ))).run()
    assert dataset.summarize() == AnalysisIndex.build(dataset).summary()
    assert all((record.category is HostingCategory.GOVT_SOE)
               == record.gov_operated for record in iter_records(dataset))


def _record_loop_summary(dataset) -> DatasetSummary:
    """Table 3 counted record by record."""
    records = list(iter_records(dataset))
    landing = sum(cd.landing_count for cd in dataset.countries.values())
    return DatasetSummary(
        landing_urls=landing,
        internal_urls=max(0, len(records) - landing),
        total_unique_urls=len(records),
        unique_hostnames=len({r.hostname for r in records}),
        ases=len({r.asn for r in records}),
        government_ases=len({r.asn for r in records if r.gov_operated}),
        unique_addresses=len({r.address for r in records}),
        anycast_addresses=len({r.address for r in records if r.anycast}),
        countries_with_servers=len({r.server_country for r in records
                                    if r.server_country is not None}),
    )


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**16),
    st.sampled_from([0.0, 0.3, 1.0]),
    st.lists(st.sampled_from(sorted(COUNTRIES)), min_size=1, max_size=3,
             unique=True),
)
def test_host_tables_save_and_summarize_as_their_records(seed, fault_rate,
                                                         countries):
    """``run`` writes and summarizes from host tables: the bytes must be
    ``json.dumps`` of each record's JSON object, line by line,
    and the summary the record loop's.  The host loop is exact because
    every host row of a pipeline partial carries at least one URL."""
    dataset = Pipeline(SyntheticWorld.generate(WorldConfig(
        seed=seed, scale=0.02, countries=tuple(countries),
        include_topsites=False, fault_rate=fault_rate,
    ))).run()
    for country_dataset in dataset.countries.values():
        table = country_dataset.host_table
        assert sorted(set(table.host_index)) == list(range(len(table.hosts)))
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "dataset.jsonl"
        save_dataset(dataset, path)
        written = path.read_text(encoding="utf-8")
    assert written == "".join(
        [json.dumps(dataset_header(dataset)) + "\n"]
        + [json.dumps(record_dict(r)) + "\n"
           for r in iter_records(dataset)]
    )
    assert dataset.summarize() == _record_loop_summary(dataset)


def _partial_bytes(config: WorldConfig, countries, code: str) -> bytes:
    """``code``'s pickled partial from a world over ``countries``."""
    world = SyntheticWorld.generate(
        dataclasses.replace(config, countries=tuple(countries)))
    return pickle.dumps(Pipeline(world).scan_partial(code))


@settings(max_examples=8, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**16),
    st.floats(min_value=0.005, max_value=0.02),
    st.sampled_from([0.0, 0.2, 1.0]),
    st.integers(min_value=0, max_value=2),
    st.lists(st.sampled_from(sorted(COUNTRIES)), min_size=2, max_size=4,
             unique=True),
    st.data(),
)
def test_partial_does_not_depend_on_the_world_s_other_countries(
        seed, scale, fault_rate, steps, countries, data):
    """What lets a run generate only the countries it scans: a
    country's partial is the same in a world over it alone as in a
    world over more countries, evolved and faulted alike."""
    config = WorldConfig(seed=seed, scale=scale, countries=tuple(countries),
                         fault_rate=fault_rate)
    model = EvolutionModel(seed)
    for step in range(1, steps + 1):
        config = model.evolve(config, step).config
    code = data.draw(st.sampled_from(countries))
    assert _partial_bytes(config, countries, code) == \
        _partial_bytes(config, [code], code)


def test_topsite_name_collisions_stay_out_of_partials():
    """At 0.05/42 a ZA and an IN topsite CDN name collide with FR's and
    AE's and get a numeric suffix in the full world only; neither name
    reaches a partial, so ZA and IN scan the same as in one-country
    worlds."""
    config = WorldConfig(seed=42, scale=0.05)
    full = SyntheticWorld.generate(config)
    assert full.zone.get("www.auto11.za").target == "cdn2.auto11-static.com"
    assert full.zone.get("www.news1.in").target == "cdn2.news1-static.com"
    pipeline = Pipeline(full)
    for code in ("ZA", "IN"):
        assert pickle.dumps(pipeline.scan_partial(code)) == \
            _partial_bytes(config, [code], code)
