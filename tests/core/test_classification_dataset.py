"""Tests for category classification and dataset aggregation."""

import pytest

from repro.analysis.hosting import country_breakdown
from repro.analysis.registration import LocationSplit, country_split
from repro.categories import HostingCategory
from repro.core.classification import ProviderFootprint, categorize
from repro.core.dataset import GovernmentHostingDataset
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from tests.records import Record, build_country, included_records


def _footprint(pairs):
    footprint = ProviderFootprint()
    for asn, government_country in pairs:
        footprint.observe(asn, government_country)
    return footprint


def test_category_precedence():
    footprint = _footprint([
        (13335, "BR"), (13335, "DE"),   # two continents -> global
        (700, "BR"),                    # only South America
        (900, "BR"),                    # government network
    ])
    assert categorize(True, 900, "BR", "BR", footprint) \
        is HostingCategory.GOVT_SOE
    assert categorize(False, 13335, "US", "BR", footprint) \
        is HostingCategory.P3_GLOBAL
    assert categorize(False, 700, "BR", "BR", footprint) \
        is HostingCategory.P3_LOCAL
    assert categorize(False, 700, "CO", "BR", footprint) \
        is HostingCategory.P3_REGIONAL


def test_government_outranks_global_footprint():
    footprint = _footprint([(900, "BR"), (900, "DE")])
    assert categorize(True, 900, "NC", "FR", footprint) \
        is HostingCategory.GOVT_SOE
    assert categorize(False, 900, "NC", "FR", footprint) \
        is HostingCategory.P3_GLOBAL


def test_footprint_ignores_unknown_countries():
    footprint = _footprint([(13335, "ZZ")])
    assert footprint.continents(13335) == frozenset()
    assert categorize(False, 13335, "US", "BR", footprint) \
        is HostingCategory.P3_REGIONAL


def _record(url="https://x.gov.br/", country="BR", size=100,
            category=HostingCategory.GOVT_SOE, server="BR", reg="BR",
            asn=900, anycast=False, gov=True, hostname="x.gov.br", address=1):
    return Record(
        url=url, hostname=hostname, country=country, size_bytes=size,
        via=FilterVia.TLD, depth=0, address=address, asn=asn,
        organization="Org", registered_country=reg, gov_operated=gov,
        category=category, server_country=server, anycast=anycast,
        validation=ValidationMethod.ACTIVE_PROBING,
    )


def _dataset(**countries) -> GovernmentHostingDataset:
    return GovernmentHostingDataset(countries=countries,
                                    validation=ValidationStats())


def test_urlrecord_views():
    record = _record(server="US", reg="BR")
    assert record.registration_domestic
    assert record.server_domestic is False
    excluded = _record(url="https://y.gov.br/", hostname="y.gov.br",
                       server=None, reg="US")
    assert excluded.excluded
    assert excluded.server_domestic is None
    # The location views over the host table agree: WHOIS counts both
    # URLs, geolocation only the located one.
    splits = country_split(_dataset(BR=build_country("BR", [record,
                                                            excluded])))
    assert splits["BR"]["whois"] == LocationSplit(0.5, 0.5)
    assert splits["BR"]["geolocation"] == LocationSplit(0.0, 1.0)


def test_country_dataset_fractions():
    records = [
        _record(url=f"https://x.gov.br/{i}", size=100) for i in range(6)
    ] + [
        _record(url=f"https://y.com.br/{i}", size=300,
                category=HostingCategory.P3_GLOBAL, gov=False, asn=13335)
        for i in range(4)
    ]
    dataset = build_country(
        country="BR", landing_count=2, records=records,
        discarded_url_count=1, unresolved_hostnames=[], depth_histogram={0: 10},
    )
    mixes = country_breakdown(_dataset(BR=dataset))["BR"]
    assert mixes["urls"][HostingCategory.GOVT_SOE] == pytest.approx(0.6)
    assert mixes["bytes"][HostingCategory.P3_GLOBAL] == pytest.approx(
        1200 / 1800
    )
    assert dataset.internal_count == 8
    assert dataset.total_bytes == 1800


def test_dataset_summary_counts():
    records_br = [
        _record(url="https://x.gov.br/a"),
        _record(url="https://x.gov.br/b", server=None),
    ]
    records_de = [
        _record(url="https://y.de/a", country="DE", server="DE", reg="DE",
                asn=13335, category=HostingCategory.P3_GLOBAL, gov=False,
                anycast=True, hostname="y.de", address=2),
    ]
    dataset = _dataset(BR=build_country("BR", records_br, 1),
                       DE=build_country("DE", records_de, 1))
    summary = dataset.summarize()
    assert summary.total_unique_urls == 3
    assert summary.landing_urls == 2
    assert summary.internal_urls == 1
    assert summary.unique_hostnames == 2
    assert summary.ases == 2
    assert summary.government_ases == 1
    assert summary.anycast_addresses == 1
    assert summary.countries_with_servers == 2
    included = [record for country in dataset.countries.values()
                for record in included_records(country)]
    assert len(included) == 2
    stats = dataset.per_country_stats()
    assert stats["BR"]["landing_urls"] == 1


def test_validation_stats_table4_empty():
    table = ValidationStats().table4()
    assert table["unicast"] == {"AP": 0.0, "MG": 0.0, "UR": 0.0}
