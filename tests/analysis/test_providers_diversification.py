"""Tests for global-provider footprints and HHI diversification."""

import pytest

from repro.analysis.diversification import (
    country_network_hhi,
    hhi,
    hhi_by_dominant_category,
    single_network_dependence,
)
from repro.analysis.providers import (
    global_provider_asns,
    global_provider_footprints,
    provider_byte_reliance,
    top_reliances,
)
from repro.categories import HostingCategory
from tests.analysis.oracle import dominant_category
from tests.records import iter_records


def test_cloudflare_leads_footprints(dataset):
    footprints = global_provider_footprints(dataset)
    assert footprints, "expected global providers in the dataset"
    leader = footprints[0]
    assert leader.asn == 13335
    # Cloudflare serves far more countries than the runner-up (Figure 10).
    if len(footprints) > 2:
        assert leader.country_count >= 1.5 * footprints[2].country_count


def test_footprints_sorted_descending(dataset):
    footprints = global_provider_footprints(dataset)
    counts = [fp.country_count for fp in footprints]
    assert counts == sorted(counts, reverse=True)
    for footprint in footprints:
        assert footprint.country_count == len(footprint.countries)


def test_global_asns_are_never_government(dataset):
    gov_asns = {r.asn for r in iter_records(dataset) if r.gov_operated}
    assert not (global_provider_asns(dataset) & gov_asns)


def test_byte_reliance_within_unit_interval(dataset):
    reliance = provider_byte_reliance(dataset)
    assert reliance
    for fraction in reliance.values():
        assert 0.0 <= fraction <= 1.0


def test_top_reliances_are_high(dataset):
    top = top_reliances(dataset, limit=3)
    assert len(top) == 3
    # The paper's top single-provider reliances are 97%/72%/58%...
    assert top[0][3] > 0.5
    assert top[0][3] >= top[1][3] >= top[2][3]


def test_hhi_bounds_and_extremes():
    assert hhi([1.0]) == pytest.approx(1.0)
    assert hhi([1, 1, 1, 1]) == pytest.approx(0.25)
    assert hhi([10, 0.0001]) == pytest.approx(1.0, abs=0.01)
    with pytest.raises(ValueError):
        hhi([0.0, 0.0])


def test_country_hhi_in_range(dataset):
    values = country_network_hhi(dataset)
    assert values
    for value in values.values():
        assert 0.0 < value <= 1.0


def test_uruguay_is_concentrated_argentina_is_not(dataset):
    values = country_network_hhi(dataset, by_bytes=True)
    assert values["UY"] > values["AR"]
    assert values["UY"] > 0.5


def test_dominant_category_grouping(dataset):
    assert dominant_category(dataset.country("UY")) is HostingCategory.GOVT_SOE
    assert dominant_category(dataset.country("IT")) is HostingCategory.P3_LOCAL
    groups = hhi_by_dominant_category(dataset)
    assert HostingCategory.GOVT_SOE in groups
    assert HostingCategory.P3_GLOBAL in groups


def test_single_network_dependence_shape(dataset):
    dependence = single_network_dependence(dataset)
    gov_above, gov_total = dependence[HostingCategory.GOVT_SOE]
    global_above, global_total = dependence[HostingCategory.P3_GLOBAL]
    assert gov_total > 0 and global_total > 0
    # Paper: 63% of Govt&SOE-dominant countries depend on a single network
    # vs 32% of Global-dominant ones; require the ordering.
    assert gov_above / gov_total > global_above / global_total
