"""Tests for page loads at a vantage and the topsite definitions."""

import pytest

from repro.measure.vpn import VpnCatalog
from repro.websim.topsites import COMPARISON_COUNTRIES, TopSite, TopsiteHosting
from repro.websim.webserver import PageNotFoundError, WebFabric
from tests.websim.test_sites_webserver import _make_site


def test_browser_propagates_404():
    # A page load is ``WebFabric.fetch`` from the vantage's country; a URL
    # the fabric does not hold raises instead of yielding a page.
    fabric = WebFabric()
    fabric.register_site(_make_site())
    vantage = VpnCatalog().vantage_for("BR")
    with pytest.raises(PageNotFoundError):
        fabric.fetch("https://missing/", vantage.country)
    # So does an unknown path on a registered host.
    with pytest.raises(PageNotFoundError):
        fabric.fetch("https://www.health.gov.br/l1/p9", vantage.country)


def test_comparison_countries_are_two_per_region():
    assert len(COMPARISON_COUNTRIES) == 14
    from repro.world.countries import get_country

    regions = {}
    for code in COMPARISON_COUNTRIES:
        region = get_country(code).region
        regions[region] = regions.get(region, 0) + 1
    # Every country resolves and at least 6 distinct regions are covered
    # (the paper assigns Egypt to the Africa pair of Table 6).
    assert len(regions) >= 6


def test_topsite_rank_validation():
    with pytest.raises(ValueError):
        TopSite(country="BR", hostname="h", landing_url="u", rank=0,
                truth_hosting=TopsiteHosting.GLOBAL)
