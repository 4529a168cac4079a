"""Tests for VPN vantage points and the Atlas probing client."""

import random

import pytest

from repro.datagen.seeds import derive_rng
from repro.measure.atlas import PING_COUNT, PROBES_PER_COUNTRY, AtlasClient
from repro.measure.vpn import VpnCatalog
from repro.netsim.anycast import AnycastGroup, AnycastIndex
from repro.netsim.asn import ASKind, AutonomousSystem, PoP
from repro.netsim.fabric import ServingFabric
from repro.netsim.latency import LatencyModel, country_threshold_ms
from repro.netsim.registry import IpRegistry
from repro.world.cities import all_location_codes
from repro.world.geography import road_span_km


def test_vpn_catalog_covers_sample():
    catalog = VpnCatalog()
    assert len(catalog) == 61
    vantage = catalog.vantage_for("br")
    assert vantage.country == "BR"
    assert vantage.provider == "NordVPN"
    assert vantage.city == "Brasilia"
    assert catalog.validate_location(vantage)


def test_vpn_provider_usage_matches_table9():
    usage = VpnCatalog().provider_usage()
    assert usage == {"NordVPN": 49, "Surfshark": 10, "Hotspot Shield": 2}


@pytest.fixture
def probing_setup():
    registry = IpRegistry()
    index = AnycastIndex()
    provider = AutonomousSystem(
        asn=64501, name="HOST-DE", organization="Host DE",
        registration_country="DE", kind=ASKind.LOCAL_HOSTING,
        pops=(PoP("DE", "Frankfurt", 50.1, 8.7),),
    )
    domestic = registry.allocate_address(provider, provider.pops[0])
    silent = registry.allocate_address(provider, provider.pops[0])
    anycast_address = registry.allocate_address(provider, provider.pops[0])
    index.add(AnycastGroup(
        address=anycast_address, asn=64501,
        pops=(PoP("DE", "Frankfurt", 50.1, 8.7), PoP("SG", "Singapore", 1.3, 103.8)),
    ))
    fabric = ServingFabric(registry, index)
    fabric.mark_unresponsive(silent)
    atlas = AtlasClient(
        fabric=fabric,
        latency=LatencyModel(derive_rng(1, "latency")),
        country_codes=all_location_codes(),
        rng=derive_rng(1, "atlas"),
    )
    return atlas, domestic, silent, anycast_address


def test_probes_exist_in_every_location(probing_setup):
    atlas, *_ = probing_setup
    for code in ("DE", "SG", "NC", "US"):
        assert atlas.probes_in(code), code
    assert len(atlas.probes_in("US")) <= PROBES_PER_COUNTRY == 5


def test_domestic_ping_below_threshold(probing_setup):
    atlas, domestic, _, _ = probing_setup
    rtt = atlas.min_rtt_from_country("DE", domestic)
    assert rtt is not None
    assert rtt < country_threshold_ms(road_span_km("DE"))


def test_foreign_ping_exceeds_threshold(probing_setup):
    atlas, domestic, _, _ = probing_setup
    rtt = atlas.min_rtt_from_country("SG", domestic)
    assert rtt is not None
    assert rtt > country_threshold_ms(road_span_km("SG"))


def test_unresponsive_target_times_out(probing_setup):
    atlas, _, silent, _ = probing_setup
    probe = atlas.probes_in("DE")[0]
    result = atlas.ping(probe, silent)
    assert not result.responded
    assert result.min_rtt_ms is None
    assert atlas.min_rtt_from_country("DE", silent) is None


def test_anycast_ping_hits_catchment(probing_setup):
    atlas, _, _, anycast_address = probing_setup
    rtt_de = atlas.min_rtt_from_country("DE", anycast_address)
    rtt_sg = atlas.min_rtt_from_country("SG", anycast_address)
    # Both in-country: each probe reaches its local anycast site.
    assert rtt_de < country_threshold_ms(road_span_km("DE"))
    assert rtt_sg < country_threshold_ms(road_span_km("SG"))


def test_nearest_probe_finds_host_country(probing_setup):
    atlas, domestic, _, _ = probing_setup
    best = atlas.nearest_probe_rtt(domestic)
    assert best is not None
    assert best.probe.country == "DE"


def test_nearest_probe_none_for_silent_target(probing_setup):
    atlas, _, silent, _ = probing_setup
    assert atlas.nearest_probe_rtt(silent) is None


def test_ping_count_controls_train_length(probing_setup):
    # The paper's train: three pings from each probe.
    atlas, domestic, _, _ = probing_setup
    probe = atlas.probes_in("DE")[0]
    result = atlas.ping(probe, domestic)
    assert len(result.rtts_ms) == PING_COUNT == 3
