"""Failure-injection tests: the pipeline degrades gracefully, never crashes.

Each test breaks one substrate the way the real Internet breaks --
lapsed DNS, missing certificates, empty PeeringDB, dead ICMP, an empty
geolocation database -- and checks the pipeline completes with the
expected degradation.
"""

import dataclasses

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.core.geolocation import Geolocator, ValidationMethod
from repro.measure.ipinfo import IpInfoDatabase
from repro.measure.peeringdb import PeeringDb
from repro.netsim.tls import CertificateStore
from tests.records import iter_records

_COUNTRIES = ("BR", "MA")


@pytest.fixture()
def fresh_world():
    return SyntheticWorld.generate(WorldConfig(
        seed=17, scale=0.04, countries=_COUNTRIES, include_topsites=False,
    ))


def test_lapsed_dns_records_become_unresolved_hostnames(fresh_world):
    victims = [
        t.hostname for t in fresh_world.truth.hosts_of("BR")
    ][:2]
    for hostname in victims:
        assert fresh_world.zone.remove(hostname)
    dataset = Pipeline(fresh_world).run(list(_COUNTRIES))
    brazil = dataset.countries["BR"]
    for hostname in victims:
        assert hostname in brazil.unresolved_hostnames
        assert hostname not in brazil.hostnames
    # The rest of the country still measures.
    assert brazil.url_count


def test_missing_certificates_only_lose_san_sites(fresh_world):
    stripped = dataclasses.replace(fresh_world, certificates=CertificateStore())
    dataset = Pipeline(stripped).run(list(_COUNTRIES))
    from repro.core.urlfilter import FilterVia

    vias = {record.via for record in iter_records(dataset)}
    assert FilterVia.SAN not in vias
    assert FilterVia.TLD in vias and FilterVia.DOMAIN in vias


def test_empty_peeringdb_still_classifies_governments(fresh_world):
    stripped = dataclasses.replace(fresh_world, peeringdb=PeeringDb())
    dataset = Pipeline(stripped).run(list(_COUNTRIES))
    gov_records = [r for r in iter_records(dataset) if r.gov_operated]
    # WHOIS organizations and web searches still reveal most governments.
    assert gov_records


def test_empty_websearch_costs_soe_recall_only(fresh_world):
    stripped = dataclasses.replace(fresh_world, websearch={})
    baseline = Pipeline(fresh_world).run(list(_COUNTRIES))
    degraded = Pipeline(stripped).run(list(_COUNTRIES))
    gov_baseline = sum(1 for r in iter_records(baseline) if r.gov_operated)
    gov_degraded = sum(1 for r in iter_records(degraded) if r.gov_operated)
    assert gov_degraded <= gov_baseline
    assert gov_degraded > 0


def test_total_icmp_blackout_pushes_everything_to_multistage(fresh_world):
    for truth in fresh_world.truth.hosts.values():
        fresh_world.fabric.mark_unresponsive(truth.address)
    dataset = Pipeline(fresh_world).run(list(_COUNTRIES))
    assert dataset.validation.unicast_ap == 0
    # The multistage fallbacks (PTR/IPmap) keep most addresses located.
    table = dataset.validation.table4()
    assert table["unicast"]["MG"] > 0.7
    # Anycast verification requires pings, so anycast addresses are lost.
    assert dataset.validation.anycast_ap == 0


def test_empty_ipinfo_survives_via_single_radius(fresh_world):
    pipeline = Pipeline(fresh_world)
    blind_geolocator = Geolocator(
        ipinfo=IpInfoDatabase(),
        manycast=fresh_world.manycast,
        atlas=pipeline.atlas,
        hoiho=fresh_world.hoiho,
        ipmap=fresh_world.ipmap,
    )
    degraded = Pipeline(fresh_world, geolocator=blind_geolocator)
    dataset = degraded.run(list(_COUNTRIES))
    located = [r for r in iter_records(dataset) if not r.excluded]
    assert located
    # Without step 1 there is nothing for active probing to verify.
    assert all(
        r.validation is not ValidationMethod.ACTIVE_PROBING or r.anycast
        for r in located
    )


def test_crawler_survives_partially_broken_web(fresh_world):
    # Remove one deep page: its subtree becomes unreachable, nothing raises.
    site = next(
        s for s in fresh_world.web.iter_sites()
        if s.country == "BR" and len(s.pages) > 3
    )
    victim = next(url for url, page in site.pages.items() if page.depth == 1)
    del fresh_world.web._pages[victim]
    dataset = Pipeline(fresh_world).run(["BR"])
    assert dataset.countries["BR"].url_count
