"""Integration tests asserting the paper's headline findings end to end.

These are the 'key findings' boxes of Sections 5-7, checked over the
shared session world.  Benchmarks perform looser, larger-scale versions
of the same checks with printed comparisons.
"""

import pytest

from repro.analysis import (
    bilateral_share,
    country_majority,
    gdpr_compliance,
    global_breakdown,
    global_provider_footprints,
    global_split,
    regional_breakdown,
    same_region_share,
    single_network_dependence,
)
from repro.categories import HostingCategory
from repro.world.regions import Region
from tests.records import included_records


def test_finding_third_party_dominance(dataset):
    """Governments deliver ~62% of URLs via third parties."""
    urls = global_breakdown(dataset)["urls"]
    third_party = sum(v for c, v in urls.items() if c.is_third_party)
    assert third_party == pytest.approx(0.62, abs=0.10)


def test_finding_regional_variation(dataset):
    """SA/MENA byte mass is Govt&SOE; NA is Global (Section 5 box)."""
    bytes_mix = regional_breakdown(dataset, by_bytes=True)
    assert bytes_mix[Region.SA][HostingCategory.GOVT_SOE] > 0.7
    assert bytes_mix[Region.MENA][HostingCategory.GOVT_SOE] > 0.5
    assert bytes_mix[Region.NA][HostingCategory.P3_GLOBAL] > 0.5
    ssa = bytes_mix[Region.SSA]
    third = ssa[HostingCategory.P3_GLOBAL] + ssa[HostingCategory.P3_LOCAL] + \
        ssa[HostingCategory.P3_REGIONAL]
    assert third > 0.9


def test_finding_neighbors_diverge(dataset):
    """Argentina and Uruguay sit on opposite sides of the divide."""
    majority = country_majority(dataset)
    assert majority["AR"] == "3P"
    assert majority["UY"] == "Govt&SOE"


def test_finding_domestic_preference(dataset):
    """87% of URLs served domestically; 77% domestically registered."""
    splits = global_split(dataset)
    assert splits["geolocation"].domestic == pytest.approx(0.87, abs=0.07)
    assert splits["whois"].domestic == pytest.approx(0.77, abs=0.10)


def test_finding_cross_border_stays_regional_in_eca_eap(dataset):
    shares = same_region_share(dataset)
    assert shares[Region.ECA] > 0.75
    assert shares[Region.EAP] > 0.6
    for region in (Region.LAC, Region.MENA, Region.SA):
        assert shares.get(region, 0.0) < 0.15


def test_finding_bilateral_relationships(dataset):
    assert bilateral_share(dataset, "MX", "US") > 0.6
    assert bilateral_share(dataset, "NZ", "AU") > 0.2
    assert bilateral_share(dataset, "FR", "NC") > 0.1


def test_finding_gdpr(dataset):
    assert gdpr_compliance(dataset) > 0.93


def test_finding_cloudflare_centralization(dataset):
    footprints = global_provider_footprints(dataset)
    assert footprints[0].asn == 13335
    runner_up = footprints[1].country_count if len(footprints) > 1 else 0
    assert footprints[0].country_count > runner_up


def test_finding_on_premise_concentration(dataset):
    dependence = single_network_dependence(dataset)
    gov_above, gov_total = dependence[HostingCategory.GOVT_SOE]
    global_above, global_total = dependence[HostingCategory.P3_GLOBAL]
    assert gov_above / gov_total > global_above / global_total


def test_finding_india_domestic(dataset):
    india = dataset.countries["IN"]
    included = included_records(india)
    domestic = sum(1 for r in included if r.server_domestic)
    assert domestic / len(included) > 0.95


def test_finding_china_japan(dataset):
    assert bilateral_share(dataset, "CN", "JP") == pytest.approx(0.26, abs=0.18)
