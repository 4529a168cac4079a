"""Tests for hosting-mix and domestic/international analyses."""

import pytest

from repro.analysis.hosting import (
    country_breakdown,
    country_majority,
    fractions_of_counts,
    global_breakdown,
    regional_breakdown,
)
from repro.analysis.registration import (
    LocationSplit,
    country_split,
    global_split,
    regional_split,
)
from repro.categories import HostingCategory
from repro.world.regions import Region
from tests.analysis.oracle import category_fractions


def test_global_breakdown_normalized(dataset):
    breakdown = global_breakdown(dataset)
    for view in ("urls", "bytes"):
        assert sum(breakdown[view].values()) == pytest.approx(1.0)


def test_global_breakdown_matches_figure2_shape(dataset):
    urls = global_breakdown(dataset)["urls"]
    # Paper: Govt&SOE 0.39, 3P Local 0.34, 3P Global 0.25, Regional 0.03.
    assert urls[HostingCategory.GOVT_SOE] == pytest.approx(0.39, abs=0.08)
    assert urls[HostingCategory.P3_LOCAL] == pytest.approx(0.34, abs=0.08)
    assert urls[HostingCategory.P3_GLOBAL] == pytest.approx(0.25, abs=0.08)
    assert urls[HostingCategory.P3_REGIONAL] < 0.10
    # Third parties dominate overall (62% of URLs in the paper).
    third_party = 1 - urls[HostingCategory.GOVT_SOE]
    assert third_party == pytest.approx(0.62, abs=0.10)


def test_category_fractions_empty():
    # No URLs: every share is 0.0, from the index tallies and from the
    # oracle's record loop alike.
    for fractions in (fractions_of_counts([0] * len(HostingCategory)),
                      category_fractions([])):
        assert set(fractions) == set(HostingCategory)
        assert all(value == 0.0 for value in fractions.values())


def test_regional_breakdown_covers_regions_with_data(dataset):
    regional = regional_breakdown(dataset)
    assert set(regional) == set(Region)
    for mix in regional.values():
        assert sum(mix.values()) == pytest.approx(1.0)


def test_regional_breakdown_shape(dataset):
    urls = regional_breakdown(dataset, by_bytes=False)
    # South Asia is Govt&SOE-heavy; SSA almost entirely third party.
    assert urls[Region.SA][HostingCategory.GOVT_SOE] > 0.55
    assert urls[Region.SSA][HostingCategory.GOVT_SOE] < 0.10
    bytes_mix = regional_breakdown(dataset, by_bytes=True)
    assert bytes_mix[Region.SA][HostingCategory.GOVT_SOE] > 0.7
    # North America leans on Global providers.
    assert urls[Region.NA][HostingCategory.P3_GLOBAL] > 0.4


def test_regional_weightings_differ(dataset):
    by_country = regional_breakdown(dataset, weighting="country")
    by_url = regional_breakdown(dataset, weighting="url")
    assert by_country.keys() == by_url.keys()


def test_country_breakdown_matches_country_dataset(dataset):
    breakdown = country_breakdown(dataset)
    assert "UY" in breakdown
    uruguay = breakdown["UY"]["bytes"]
    assert uruguay[HostingCategory.GOVT_SOE] > 0.8


def test_country_majority_examples(dataset):
    majority = country_majority(dataset)
    assert majority["UY"] == "Govt&SOE"
    assert majority["AR"] == "3P"
    assert majority["CA"] == "3P"
    assert "KR" not in majority


def test_location_split_validation():
    with pytest.raises(ValueError):
        LocationSplit(domestic=0.5, international=0.6)
    split = LocationSplit(0.0, 0.0)
    assert split.domestic == 0.0


def test_global_split_matches_figure6(dataset):
    splits = global_split(dataset)
    # Paper: 87% of URLs served domestically, 77% domestically registered.
    assert splits["geolocation"].domestic == pytest.approx(0.87, abs=0.07)
    assert splits["whois"].domestic == pytest.approx(0.77, abs=0.09)
    # Registration is *more* international than physical location.
    assert splits["whois"].international > splits["geolocation"].international


def test_regional_split_shape(dataset):
    location = regional_split(dataset, view="geolocation")
    assert location[Region.NA].domestic > 0.9
    assert location[Region.SSA].domestic < 0.65
    registration = regional_split(dataset, view="whois")
    assert registration[Region.SSA].domestic < location[Region.SSA].domestic + 0.2


def test_regional_split_rejects_unknown_view(dataset):
    with pytest.raises(ValueError):
        regional_split(dataset, view="bogus")


def test_country_split_mexico(dataset):
    splits = country_split(dataset)
    assert splits["MX"]["geolocation"].international == pytest.approx(0.79, abs=0.1)
