"""Tests for the web substrate: sites, pages, serving, geo-blocking."""

import pytest

from repro.har import HarEntry
from repro.websim.sites import GovernmentSite, Page, SiteKind
from repro.websim.webserver import GeoBlockedError, PageNotFoundError, WebFabric


def _make_site(geo_restricted=False, asset_size=1000):
    host = "www.health.gov.br"
    landing = Page(
        url=f"https://{host}/",
        hostname=host,
        depth=0,
        entries=(
            HarEntry(f"https://{host}/", host, 5000),
            HarEntry(f"https://{host}/a.js", host, asset_size),
        ),
        links=(f"https://{host}/l1/p0",),
    )
    deep = Page(
        url=f"https://{host}/l1/p0",
        hostname=host,
        depth=1,
        entries=(HarEntry(f"https://{host}/l1/p0", host, 2000),),
        links=(),
    )
    return GovernmentSite(
        country="BR",
        hostname="www.health.gov.br",
        landing_url=landing.url,
        kind=SiteKind.MINISTRY,
        pages={landing.url: landing, deep.url: deep},
        geo_restricted=geo_restricted,
    )


def test_register_site_rejects_negative_entry_size():
    fabric = WebFabric()
    with pytest.raises(ValueError, match="negative size"):
        fabric.register_site(_make_site(asset_size=-1))


def test_site_navigation_helpers():
    site = _make_site()
    assert site.landing_page().depth == 0
    assert site.page("https://www.health.gov.br/l1/p0").depth == 1
    assert site.page("https://missing/") is None
    assert site.max_depth == 1
    assert len(list(site.iter_pages())) == 2


def test_unique_urls_counts_pages_and_resources():
    site = _make_site()
    urls = site.unique_urls()
    assert len(urls) == 3  # two pages + one resource
    assert "https://www.health.gov.br/a.js" in urls


def test_page_entries_start_with_own_document():
    site = _make_site()
    entries = site.landing_page().entries
    assert entries[0] == (site.landing_url, "www.health.gov.br", 5000)
    assert len(entries) == 2


def test_fabric_serves_registered_pages():
    fabric = WebFabric()
    site = _make_site()
    fabric.register_site(site)
    page = fabric.fetch(site.landing_url, "BR")
    assert page is site.landing_page()
    assert fabric.site_of("www.health.gov.br") is site
    assert fabric.page_count == 2


def test_fabric_404():
    fabric = WebFabric()
    with pytest.raises(PageNotFoundError):
        fabric.fetch("https://nowhere/", "BR")


def test_geo_restriction_blocks_foreign_clients():
    fabric = WebFabric()
    fabric.register_site(_make_site(geo_restricted=True))
    with pytest.raises(GeoBlockedError):
        fabric.fetch("https://www.health.gov.br/", "US")
    # Domestic clients pass -- the reason the study uses in-country VPNs.
    assert fabric.fetch("https://www.health.gov.br/", "BR") is not None


def test_duplicate_site_rejected():
    fabric = WebFabric()
    fabric.register_site(_make_site())
    with pytest.raises(ValueError):
        fabric.register_site(_make_site())
