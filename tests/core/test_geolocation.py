"""Tests for the four-step geolocation process."""

import pytest

from repro.core.geolocation import Geolocator, ValidationMethod, ValidationStats
from repro.datagen.seeds import derive_rng
from repro.measure.atlas import AtlasClient
from repro.measure.hoiho import HoihoExtractor, PtrTable
from repro.measure.ipinfo import IpInfoDatabase, IpInfoEntry
from repro.measure.ipmap import IpMapCache
from repro.measure.manycast import MAnycastSnapshot
from repro.netsim.anycast import AnycastGroup, AnycastIndex
from repro.netsim.asn import ASKind, AutonomousSystem, PoP
from repro.netsim.fabric import ServingFabric
from repro.netsim.latency import LatencyModel
from repro.netsim.registry import IpRegistry
from repro.world.cities import all_location_codes


class _Fixture:
    """A hand-wired mini-Internet with every geolocation corner case."""

    def __init__(self):
        self.registry = IpRegistry()
        self.index = AnycastIndex()
        host_de = AutonomousSystem(
            asn=64500, name="HOST-DE", organization="Host DE",
            registration_country="DE", kind=ASKind.LOCAL_HOSTING,
            pops=(PoP("DE", "Frankfurt", 50.1, 8.7),),
        )
        pop_de = host_de.pops[0]
        self.ipinfo = IpInfoDatabase()
        self.manycast = MAnycastSnapshot()
        self.ptr = PtrTable()
        self.ipmap = IpMapCache()

        def info(address, cc="DE", city="Frankfurt", lat=50.1, lon=8.7):
            self.ipinfo.add(IpInfoEntry(address, cc, city, lat, lon))

        # Case 1: responsive, IPInfo correct -> AP.
        self.ap_ok = self.registry.allocate_address(host_de, pop_de)
        info(self.ap_ok)
        # Case 2: unresponsive, PTR hint agrees with IPInfo -> MG.
        self.mg_hoiho = self.registry.allocate_address(host_de, pop_de)
        info(self.mg_hoiho)
        self.ptr.add(self.mg_hoiho, "ae1.cr1.frankfurt2.de.bb.hostde.net")
        # Case 3: unresponsive, IPmap agrees -> MG.
        self.mg_ipmap = self.registry.allocate_address(host_de, pop_de)
        info(self.mg_ipmap)
        self.ipmap.store(self.mg_ipmap, "DE")
        # Case 4: responsive but IPInfo claims the wrong country; the
        # single-radius probe finds DE -> conflict -> excluded.
        self.conflict = self.registry.allocate_address(host_de, pop_de)
        info(self.conflict, cc="BR", city="Brasilia", lat=-15.8, lon=-47.9)
        # Case 5: unresponsive and invisible everywhere -> unresolved.
        self.unresolved = self.registry.allocate_address(host_de, pop_de)
        info(self.unresolved)
        # Case 6: anycast with a German site.
        self.anycast_domestic = self.registry.allocate_address(host_de, pop_de)
        info(self.anycast_domestic, cc="US", city="Washington", lat=38.9, lon=-77.0)
        self.index.add(AnycastGroup(
            address=self.anycast_domestic, asn=64500,
            pops=(PoP("DE", "Frankfurt", 50.1, 8.7),
                  PoP("US", "Washington", 38.9, -77.0)),
        ))
        self.manycast.flag(self.anycast_domestic)
        # Case 7: anycast without a domestic site (offshore catchment).
        self.anycast_offshore = self.registry.allocate_address(host_de, pop_de)
        info(self.anycast_offshore, cc="US", city="Washington", lat=38.9, lon=-77.0)
        self.index.add(AnycastGroup(
            address=self.anycast_offshore, asn=64500,
            pops=(PoP("US", "Washington", 38.9, -77.0),),
        ))
        self.manycast.flag(self.anycast_offshore)

        self.fabric = ServingFabric(self.registry, self.index)
        self.fabric.mark_unresponsive(self.mg_hoiho)
        self.fabric.mark_unresponsive(self.mg_ipmap)
        self.fabric.mark_unresponsive(self.unresolved)
        atlas = AtlasClient(
            fabric=self.fabric,
            latency=LatencyModel(derive_rng(2, "lat")),
            country_codes=all_location_codes(),
            rng=derive_rng(2, "atlas"),
        )
        self.geolocator = Geolocator(
            ipinfo=self.ipinfo, manycast=self.manycast, atlas=atlas,
            hoiho=HoihoExtractor(self.ptr), ipmap=self.ipmap,
        )


@pytest.fixture(scope="module")
def fx():
    return _Fixture()


def test_active_probing_confirms_correct_claim(fx):
    verdict = fx.geolocator.locate_unicast(fx.ap_ok)
    assert verdict.country == "DE"
    assert verdict.method is ValidationMethod.ACTIVE_PROBING
    assert not verdict.excluded


def test_hoiho_fallback(fx):
    verdict = fx.geolocator.locate_unicast(fx.mg_hoiho)
    assert verdict.country == "DE"
    assert verdict.method is ValidationMethod.MULTISTAGE


def test_ipmap_fallback(fx):
    verdict = fx.geolocator.locate_unicast(fx.mg_ipmap)
    assert verdict.country == "DE"
    assert verdict.method is ValidationMethod.MULTISTAGE


def test_conflicting_multistage_excludes_address(fx):
    verdict = fx.geolocator.locate_unicast(fx.conflict)
    assert verdict.excluded
    assert verdict.conflict
    assert verdict.claimed_country == "BR"


def test_invisible_address_unresolved(fx):
    verdict = fx.geolocator.locate_unicast(fx.unresolved)
    assert verdict.excluded
    assert verdict.method is ValidationMethod.UNRESOLVED


def test_anycast_confirmed_within_country(fx):
    verdict = fx.geolocator.locate(fx.anycast_domestic, "DE")
    assert verdict.anycast
    assert verdict.country == "DE"
    assert verdict.method is ValidationMethod.ACTIVE_PROBING


def test_anycast_without_domestic_site_excluded(fx):
    verdict = fx.geolocator.locate(fx.anycast_offshore, "DE")
    assert verdict.anycast
    assert verdict.excluded


def test_anycast_validated_per_country(fx):
    us_view = fx.geolocator.locate(fx.anycast_offshore, "US")
    assert us_view.country == "US"
    de_view = fx.geolocator.locate(fx.anycast_offshore, "DE")
    assert de_view.excluded


def test_verdicts_memoized(fx):
    assert fx.geolocator.locate_unicast(fx.ap_ok) is fx.geolocator.locate_unicast(fx.ap_ok)


def test_stats_tally(fx):
    # Each address counted once, at its first verdict, as the driver's
    # replay (merge_validation) tallies a scan's verdicts.
    verdicts = [fx.geolocator.locate(address, "DE") for address in (
        fx.ap_ok, fx.mg_hoiho, fx.mg_ipmap, fx.conflict, fx.unresolved,
        fx.anycast_domestic, fx.anycast_offshore, fx.ap_ok)]
    stats = ValidationStats()
    counted = set()
    for verdict in verdicts:
        if verdict.address not in counted:
            counted.add(verdict.address)
            stats.tally(verdict)
    assert stats.unicast_ap >= 1
    assert stats.unicast_mg >= 2
    assert stats.unicast_conflicts >= 1
    assert stats.anycast_ap >= 1
    assert stats.anycast_unresolved >= 1
    table = stats.table4()
    assert table["unicast"]["AP"] + table["unicast"]["MG"] + table["unicast"]["UR"] == pytest.approx(1.0)


def test_disabling_stages_degrades_resolution(fx):
    blind = Geolocator(
        ipinfo=fx.ipinfo, manycast=fx.manycast,
        atlas=fx.geolocator._atlas,  # reuse the probe mesh
        hoiho=HoihoExtractor(fx.ptr), ipmap=fx.ipmap,
        enable_hoiho=False, enable_ipmap=False, enable_single_radius=False,
    )
    verdict = blind.locate_unicast(fx.mg_hoiho)
    assert verdict.excluded
