"""Edge-case tests for the geolocation cascade."""

import pytest

from repro.core.geolocation import Geolocator, ValidationMethod
from repro.datagen.seeds import derive_rng
from repro.measure.atlas import AtlasClient
from repro.measure.hoiho import HoihoExtractor, PtrTable
from repro.measure.ipinfo import IpInfoDatabase, IpInfoEntry
from repro.measure.ipmap import IpMapCache
from repro.measure.manycast import MAnycastSnapshot
from repro.netsim.anycast import AnycastIndex
from repro.netsim.asn import ASKind, AutonomousSystem, PoP
from repro.netsim.fabric import ServingFabric
from repro.netsim.latency import LatencyModel
from repro.netsim.registry import IpRegistry
from repro.world.cities import all_location_codes


@pytest.fixture
def mini():
    registry = IpRegistry()
    index = AnycastIndex()
    host = AutonomousSystem(
        asn=64999, name="EDGE", organization="Edge Host",
        registration_country="JP", kind=ASKind.LOCAL_HOSTING,
        pops=(PoP("JP", "Tokyo", 35.7, 139.7),),
    )
    address = registry.allocate_address(host, host.pops[0])
    fabric = ServingFabric(registry, index)
    atlas = AtlasClient(
        fabric=fabric, latency=LatencyModel(derive_rng(5, "lat")),
        country_codes=all_location_codes(), rng=derive_rng(5, "atlas"),
    )
    return address, fabric, atlas


def _geolocator(atlas, ipinfo=None, manycast=None, ptr=None, ipmap=None,
                **kwargs):
    return Geolocator(
        ipinfo=ipinfo or IpInfoDatabase(),
        manycast=manycast or MAnycastSnapshot(),
        atlas=atlas,
        hoiho=HoihoExtractor(ptr or PtrTable()),
        ipmap=ipmap or IpMapCache(),
        **kwargs,
    )


def test_missing_ipinfo_falls_back_to_multistage(mini):
    address, _fabric, atlas = mini
    # No IPInfo entry at all: single-radius probing still finds Japan.
    geolocator = _geolocator(atlas)
    verdict = geolocator.locate_unicast(address)
    assert verdict.claimed_country is None
    assert verdict.country == "JP"
    assert verdict.method is ValidationMethod.MULTISTAGE


def test_missing_ipinfo_and_silent_target_unresolved(mini):
    address, fabric, atlas = mini
    fabric.mark_unresponsive(address)
    geolocator = _geolocator(atlas)
    verdict = geolocator.locate_unicast(address)
    assert verdict.excluded
    assert verdict.method is ValidationMethod.UNRESOLVED


def test_manycast_false_positive_treated_as_anycast(mini):
    """A unicast address wrongly flagged anycast follows the anycast path:
    in-country probing still confirms the hosting country."""
    address, _fabric, atlas = mini
    manycast = MAnycastSnapshot([address])
    geolocator = _geolocator(atlas, manycast=manycast)
    verdict = geolocator.locate(address, "JP")
    assert verdict.anycast  # the pipeline believes the snapshot
    assert verdict.country == "JP"
    # From a distant country the same address is (correctly) excluded.
    far = geolocator.locate(address, "BR")
    assert far.excluded


def test_hoiho_wins_over_ipmap(mini):
    address, fabric, atlas = mini
    fabric.mark_unresponsive(address)
    ipinfo = IpInfoDatabase()
    ipinfo.add(IpInfoEntry(address, "JP", "Tokyo", 35.7, 139.7))
    ptr = PtrTable()
    ptr.add(address, "ae1.cr1.tokyo1.jp.bb.edge.net")
    ipmap = IpMapCache()
    ipmap.store(address, "BR")  # stale cache entry; PTR should win
    geolocator = _geolocator(atlas, ipinfo=ipinfo, ptr=ptr, ipmap=ipmap)
    verdict = geolocator.locate_unicast(address)
    assert verdict.country == "JP"


def test_custom_single_radius_threshold(mini):
    address, fabric, atlas = mini
    fabric.mark_unresponsive(address)  # force fallback ordering
    fabric._unresponsive.clear()  # re-enable: we want single-radius to probe
    geolocator = _geolocator(atlas, single_radius_ms=0.0)
    # With a zero radius nothing can be confirmed by single-radius probing.
    verdict = geolocator.locate_unicast(address)
    assert verdict.excluded


def test_verdict_memo_isolated_per_instance(mini):
    address, _fabric, atlas = mini
    first = _geolocator(atlas)
    second = _geolocator(atlas, enable_ipmap=False)
    verdict = first.locate_unicast(address)
    assert first.locate_unicast(address) is verdict
    # Another geolocator (here an ablation) computes its own verdict.
    assert second.locate_unicast(address) is not verdict
