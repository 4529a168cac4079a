"""Tests for the crawl's HAR archive and directory compilation."""

from repro.core.crawler import Crawler
from repro.core.gathering import GovernmentDirectory, compile_directory
from repro.har import HarEntry
from repro.measure.vpn import VpnCatalog
from repro.websim.sites import GovernmentSite, Page, SiteKind
from repro.websim.webserver import WebFabric


def _entry(url, host="www.gov.br", size=100):
    return HarEntry(url=url, hostname=host, size_bytes=size)


def _page(url, depth, embedded=(), links=(), host="www.gov.br"):
    """A page whose own document entry comes first."""
    return Page(url=url, hostname=host, depth=depth,
                entries=(_entry(url, host), *embedded), links=links)


def _crawl(*pages):
    """Crawl a one-site web (landing page first) from a BR vantage."""
    landing = pages[0]
    web = WebFabric()
    web.register_site(GovernmentSite(
        country="BR", hostname=landing.hostname, landing_url=landing.url,
        kind=SiteKind.MINISTRY, pages={page.url: page for page in pages},
    ))
    return Crawler(web).crawl([landing.url], VpnCatalog().vantage_for("BR"))


def test_archive_deduplicates_by_url():
    """The first observation of a URL wins: the archive keeps the first
    page's own entry object, at that page's depth."""
    asset = _entry("https://www.gov.br/a.js")
    landing = _page("https://www.gov.br/", 0, embedded=(asset,),
                    links=("https://www.gov.br/l1",))
    deep = _page("https://www.gov.br/l1", 1,
                 embedded=(_entry(asset.url, size=999),))
    archive = _crawl(landing, deep).urls
    assert list(archive) == [landing.url, asset.url, deep.url]
    entry, depth = archive[asset.url]
    assert entry is asset and depth == 0
    assert archive[deep.url] == (deep.entries[0], 1)


def test_archive_extend_counts_new():
    """A page load files only the URLs not yet in the archive, repeats
    within the page included."""
    asset = _entry("https://www.gov.br/a.js")
    landing = _page("https://www.gov.br/", 0, embedded=(asset, asset))
    crawl = _crawl(landing)
    assert list(crawl.urls) == [landing.url, asset.url]
    assert crawl.page_loads == 1


def test_archive_aggregations():
    landing = _page(
        "https://x.gov.br/", 0, host="x.gov.br",
        embedded=(_entry("https://y.gov.br/1", host="y.gov.br"),
                  _entry("https://x.gov.br/2", host="x.gov.br")),
        links=("https://x.gov.br/l1",),
    )
    deep = _page("https://x.gov.br/l1", 1, host="x.gov.br")
    crawl = _crawl(landing, deep)
    counts = crawl.hostname_counts()
    assert counts == {"x.gov.br": 3, "y.gov.br": 1}
    assert list(counts) == ["x.gov.br", "y.gov.br"]
    assert crawl.depth_histogram() == {0: 3, 1: 1}
    assert crawl.page_loads == 2


def test_directory_hostnames_derived_from_urls():
    directory = GovernmentDirectory(
        country="BR",
        landing_urls=("https://www.gov.br/", "https://www.gov.br/abin",
                      "https://tax.gov.br/"),
    )
    assert directory.hostnames == {"www.gov.br", "tax.gov.br"}
    assert directory.landing_count == 3
    assert len(directory) == 3


def test_compile_directory_from_world(world):
    directory = compile_directory(world, "br")
    assert directory.country == "BR"
    assert directory.landing_count == len(world.truth.directories["BR"])
    assert directory.landing_count > 0


def test_compile_directory_for_korea_is_empty(world):
    assert compile_directory(world, "KR").landing_count == 0
