"""Tests for name pools and generator configuration variants."""

import itertools

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.datagen.names import (
    AGENCY_NAMES,
    MINISTRY_SECTORS,
    SOE_NAMES,
    government_org_name,
    iter_site_names,
    soe_org_name,
)
from repro.datagen.seeds import derive_rng
from repro.websim.sites import SiteKind


def test_name_pools_are_disjoint_enough():
    assert not set(MINISTRY_SECTORS) & set(SOE_NAMES)
    assert not set(AGENCY_NAMES) & set(SOE_NAMES)


def test_iter_site_names_is_infinite_and_unique():
    rng = derive_rng(1, "names")
    names = list(itertools.islice(iter_site_names(SiteKind.AGENCY, rng), 200))
    assert len(names) == len(set(names))
    # Pool wraps around with numeric suffixes.
    assert any(name[-1].isdigit() for name in names[len(AGENCY_NAMES):])


def test_org_names_mention_country():
    rng = derive_rng(2, "org")
    name = government_org_name("health", "Brazil", rng)
    assert "Brazil" in name
    assert "Health" in name


def test_soe_org_name_variants():
    rng = derive_rng(3, "soe")
    names = {soe_org_name("petro-fiscal", "Brazil", rng) for _ in range(20)}
    # Both templates appear: with and without the country name.
    assert any("Brazil" in name for name in names)
    assert any("S.A." in name for name in names)


def test_no_topsites_variant():
    world = SyntheticWorld.generate(WorldConfig(
        seed=9, scale=0.03, countries=("US", "JP"), include_topsites=False,
    ))
    assert world.topsites == {}


def test_no_anycast_variant():
    config = WorldConfig(seed=9, scale=0.03, countries=("US", "GB"),
                         include_topsites=False)
    world = SyntheticWorld.generate(config)
    # anycast share is profile-driven; with anycast there should be groups.
    assert len(world.anycast_index) >= 0  # smoke
    dataset = Pipeline(world).run(["US", "GB"])
    assert dataset.summarize().total_unique_urls > 0


def test_zero_geo_dns_variant():
    world = SyntheticWorld.generate(WorldConfig(
        seed=9, scale=0.03, countries=("US",), include_topsites=False,
        geo_dns_prob=0.0,
    ))
    from repro.netsim.dns import GeoARecord

    geo_records = [
        world.zone.get(host) for host in world.truth.hosts
        if isinstance(world.zone.get(host), GeoARecord)
    ]
    assert geo_records == []


def test_full_external_ratio_zero():
    world = SyntheticWorld.generate(WorldConfig(
        seed=9, scale=0.03, countries=("UY",), include_topsites=False,
        external_url_ratio=0.0,
    ))
    for site in world.web.iter_sites():
        for page in site.iter_pages():
            for entry in page.entries:
                assert "contractor" not in entry.hostname


def test_single_country_world_runs_pipeline():
    world = SyntheticWorld.generate(WorldConfig(
        seed=9, scale=0.05, countries=("FR",), include_topsites=False,
    ))
    dataset = Pipeline(world).run(["FR"])
    assert "gouv.nc" in dataset.countries["FR"].hostnames
    summary = dataset.summarize()
    assert summary.countries_with_servers >= 2  # FR + NC at least


def test_drifted_world_still_measures():
    world = SyntheticWorld.generate(WorldConfig(
        seed=9, scale=0.03, countries=("ES",), include_topsites=False,
        third_party_drift=0.2,
    ))
    dataset = Pipeline(world).run(["ES"])
    assert dataset.countries["ES"].url_count


def test_invalid_drift_rejected():
    with pytest.raises(ValueError):
        WorldConfig(third_party_drift=1.5)
