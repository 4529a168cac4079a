"""Regression tests: analyses over empty or degenerate datasets.

A heavily faulted (or heavily filtered) run can leave countries with no
records, zero-byte responses or no overlapping snapshot coverage.  Every
analysis must degrade to a well-defined empty result instead of raising
``ZeroDivisionError``/``ValueError``.
"""

import pytest

from repro.analysis.diversification import (
    hhi_by_dominant_category,
    single_network_dependence,
)
from repro.analysis.https_adoption import (
    country_https_adoption,
    global_https_prevalence,
)
from repro.analysis.longitudinal import compare_snapshots, trend_summary
from repro.analysis.resilience import outage_impact, single_points_of_failure
from repro.categories import HostingCategory
from repro.core.dataset import CountryDataset, GovernmentHostingDataset
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from tests.analysis.oracle import dominant_category
from tests.records import Record, build_country


def _empty_country(code="ZZ") -> CountryDataset:
    return build_country(code, [])


def _record(category, size_bytes=10, asn=64500, url="https://www.gov.zz/"):
    return Record(
        url=url, hostname="www.gov.zz", country="ZZ", size_bytes=size_bytes,
        via=FilterVia.TLD, depth=0, address=0xC0A80001, asn=asn,
        organization="org", registered_country="ZZ", gov_operated=False,
        category=category, server_country="ZZ", anycast=False,
        validation=ValidationMethod.UNRESOLVED,
    )


def _dataset(*country_datasets) -> GovernmentHostingDataset:
    return GovernmentHostingDataset(
        countries={cd.country: cd for cd in country_datasets},
        validation=ValidationStats(),
    )


@pytest.fixture
def empty_dataset():
    return _dataset(_empty_country())


# ------------------------------------------------------------- resilience

def test_outage_impact_over_empty_country(empty_dataset):
    assert outage_impact(empty_dataset, 13335) == {}


def test_single_points_of_failure_over_empty_country(empty_dataset):
    assert single_points_of_failure(empty_dataset) == {}


# ---------------------------------------------------------------- https

def test_https_adoption_over_empty_country(empty_dataset, world):
    assert country_https_adoption(world, empty_dataset) == {}
    assert global_https_prevalence(world, empty_dataset) == (0.0, 0.0)


# ----------------------------------------------------------- longitudinal

def test_trend_summary_of_no_overlap_is_well_defined(empty_dataset):
    deltas = compare_snapshots(empty_dataset, empty_dataset)
    assert deltas == {}
    assert trend_summary(deltas) == {
        "mean_delta": 0.0, "share_increasing": 0.0, "countries": 0.0,
    }


# -------------------------------------------------------- diversification

def _dominant(country_dataset):
    """The country's dominant category by the oracle's record loop; the
    index-backed Figure 11 grouping must place the country alike."""
    dominant = dominant_category(country_dataset)
    groups = hhi_by_dominant_category(_dataset(country_dataset))
    assert set(groups) == (set() if dominant is None else {dominant})
    return dominant


def test_dominant_category_of_empty_country_is_none():
    assert _dominant(_empty_country()) is None


def test_dominant_category_of_zero_byte_records_is_none():
    zero = build_country(
        "ZZ", [_record(HostingCategory.P3_GLOBAL, size_bytes=0)],
        landing_count=1,
    )
    assert _dominant(zero) is None


def test_dominant_category_ties_break_by_enum_order():
    tied = build_country(
        "ZZ",
        [
            _record(HostingCategory.P3_GLOBAL, url="https://a.gov.zz/"),
            _record(HostingCategory.P3_LOCAL, url="https://b.gov.zz/"),
        ],
        landing_count=2,
    )
    # P3_LOCAL is declared before P3_GLOBAL in HostingCategory
    assert _dominant(tied) is HostingCategory.P3_LOCAL


def test_diversification_groupings_skip_empty_countries(empty_dataset):
    assert hhi_by_dominant_category(empty_dataset) == {}
    assert single_network_dependence(empty_dataset) == {}


def test_diversification_groupings_with_mixed_countries():
    populated = build_country("AA", [_record(HostingCategory.GOVT_SOE)],
                              landing_count=1)
    mixed = _dataset(populated, _empty_country())
    groups = hhi_by_dominant_category(mixed, by_bytes=True)
    assert set(groups) == {HostingCategory.GOVT_SOE}
    dependence = single_network_dependence(mixed)
    assert dependence == {HostingCategory.GOVT_SOE: (1, 1)}
