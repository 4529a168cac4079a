"""Tests for the world generator: structure and internal consistency."""

import pytest

from repro import SyntheticWorld, WorldConfig
from repro.categories import HostingCategory
from repro.datagen.config import CALIBRATION
from repro.netsim.asn import ASKind
from repro.urltools import hostname_of


def test_generation_is_deterministic():
    config = WorldConfig(seed=11, scale=0.02, countries=("BR", "JP"))
    world_a = SyntheticWorld.generate(config)
    world_b = SyntheticWorld.generate(config)
    assert set(world_a.truth.hosts) == set(world_b.truth.hosts)
    for hostname, truth in world_a.truth.hosts.items():
        other = world_b.truth.hosts[hostname]
        assert truth == other
    assert world_a.truth.directories == world_b.truth.directories


def test_different_seeds_differ():
    a = SyntheticWorld.generate(WorldConfig(seed=1, scale=0.02, countries=("BR",)))
    b = SyntheticWorld.generate(WorldConfig(seed=2, scale=0.02, countries=("BR",)))
    assert set(a.truth.hosts) != set(b.truth.hosts)


def test_every_directory_url_is_served(world):
    for code, urls in world.truth.directories.items():
        for url in urls:
            page = world.web.fetch(url, code)
            assert page.url == url


def test_every_truth_host_resolves_from_home_vantage(world):
    for hostname, truth in world.truth.hosts.items():
        vantage = world.vpn.vantage_for(truth.country)
        resolution = world.resolver.resolve(hostname, vantage.lat, vantage.lon)
        assert resolution.address == truth.address


def test_truth_addresses_are_registered(world):
    for truth in world.truth.hosts.values():
        entry = world.registry.lookup(truth.address)
        assert entry.asn == truth.asn
        assert entry.registration_country == truth.registered_country


def test_unicast_truth_serving_country_matches_fabric(world):
    for truth in world.truth.hosts.values():
        if truth.anycast:
            continue
        pop = world.fabric.unicast_location(truth.address)
        assert pop.country == truth.serving_country


def test_anycast_truth_matches_home_catchment(world):
    from repro.world.cities import capital_of

    for truth in world.truth.hosts.values():
        if not truth.anycast:
            continue
        capital = capital_of(truth.country)
        site = world.fabric.server_site(truth.address, capital.lat, capital.lon)
        assert site.country == truth.serving_country


def test_korea_generates_no_sites(world):
    assert world.truth.directories["KR"] == []
    assert not world.truth.hosts_of("KR")


def test_gov_soe_hosts_use_government_networks(world):
    for truth in world.truth.hosts.values():
        autonomous_system = world.registry.get_as(truth.asn)
        if truth.category is HostingCategory.GOVT_SOE:
            assert autonomous_system.kind.is_government_operated
        else:
            assert not autonomous_system.kind.is_government_operated


def test_local_category_registered_domestically(world):
    for truth in world.truth.hosts.values():
        if truth.category is HostingCategory.P3_LOCAL:
            assert truth.registered_country == truth.country


def test_regional_category_registered_abroad_same_continent(world):
    from repro.world.countries import get_country

    for truth in world.truth.hosts.values():
        if truth.category is not HostingCategory.P3_REGIONAL:
            continue
        assert truth.registered_country != truth.country
        autonomous_system = world.registry.get_as(truth.asn)
        assert autonomous_system.kind is ASKind.REGIONAL_HOSTING


def test_france_new_caledonia_special_case(world):
    gouv_nc = world.truth.hosts.get("gouv.nc")
    assert gouv_nc is not None
    assert gouv_nc.country == "FR"
    assert gouv_nc.serving_country == "NC"
    assert gouv_nc.asn == 18200
    assert gouv_nc.category is HostingCategory.GOVT_SOE
    # The OPT share of France's URL budget approximates 18.03%.
    fr_budget = sum(
        len(world.web.site_of(t.hostname).unique_urls())
        for t in world.truth.hosts_of("FR")
        if world.web.site_of(t.hostname) is not None
    )
    nc_budget = len(world.web.site_of("gouv.nc").unique_urls())
    assert nc_budget / fr_budget == pytest.approx(0.18, abs=0.06)


def test_dutch_bilateral_deployments(world):
    for hostname, expected in (("dutchculturekorea.com", "KR"),
                               ("nbso-brazil.com.br", "BR")):
        truth = world.truth.hosts.get(hostname)
        assert truth is not None, hostname
        assert truth.country == "NL"
        assert truth.serving_country == expected
        assert truth.expected_filter == "san"


def test_san_sites_listed_on_anchor_certificate(world):
    for code, anchor in world.truth.san_anchor.items():
        sans = world.certificates.sans_of(anchor)
        san_hosts = [
            t.hostname for t in world.truth.hosts_of(code)
            if t.expected_filter == "san"
        ]
        for hostname in san_hosts:
            assert hostname in sans


def test_measurement_databases_cover_every_address(world):
    for truth in world.truth.hosts.values():
        assert world.ipinfo.lookup(truth.address) is not None


def test_topsites_generated_for_comparison_countries(world):
    from repro.websim.topsites import COMPARISON_COUNTRIES

    assert set(world.topsites) == set(COMPARISON_COUNTRIES)
    for code, sites in world.topsites.items():
        assert len(sites) == CALIBRATION["topsites_per_country"]
        for topsite in sites:
            assert world.web.site_of(topsite.hostname) is not None


def test_scale_controls_dataset_size():
    small = SyntheticWorld.generate(
        WorldConfig(seed=5, scale=0.02, countries=("DE",), include_topsites=False)
    )
    large = SyntheticWorld.generate(
        WorldConfig(seed=5, scale=0.08, countries=("DE",), include_topsites=False)
    )
    assert len(large.truth.hosts) > len(small.truth.hosts)
    assert large.web.page_count > small.web.page_count


def test_mission_sites_serve_from_their_destination(world):
    missions = [
        t for t in world.truth.hosts.values()
        if t.hostname.startswith("mission-")
    ]
    assert missions, "expected at least some mission sites"
    for truth in missions:
        destination = truth.hostname.split("-")[1].split(".")[0].upper()
        assert truth.serving_country == destination
        assert truth.category is HostingCategory.P3_GLOBAL


def test_directory_hostnames_consistent_with_truth(world):
    for code, urls in world.truth.directories.items():
        for url in urls:
            hostname = hostname_of(url)
            assert hostname in world.truth.hosts
            assert world.truth.hosts[hostname].country == code
