"""Tests for the breadth-first crawler."""

import collections

import pytest

from repro.core.crawler import Crawler
from repro.websim.webserver import GeoBlockedError, PageNotFoundError


def _crawl(world, code, max_depth=7):
    crawler = Crawler(world.web, max_depth=max_depth)
    seeds = list(world.truth.directories[code])
    vantage = world.vpn.vantage_for(code)
    return crawler.crawl(seeds, vantage)


def _is_government_url(url):
    return "contractor" not in url and "analytics" not in url


def test_crawl_collects_every_site_url(world):
    result = _crawl(world, "BR")
    expected = set()
    for truth in world.truth.hosts_of("BR"):
        site = world.web.site_of(truth.hostname)
        if site is not None and truth.country == "BR":
            expected.update(u for u in site.unique_urls() if _is_government_url(u))
    gov_urls = {url for url in result.urls if _is_government_url(url)}
    assert gov_urls <= expected
    # The overwhelming majority of the generated mass is discovered.
    assert len(gov_urls) >= 0.95 * len(expected)


def test_depth_zero_dominates(world):
    result = _crawl(world, "US")
    histogram = result.depth_histogram()
    total = sum(histogram.values())
    assert histogram[0] / total > 0.7
    assert max(histogram) <= 7


def test_depth_limit_respected(world):
    shallow = _crawl(world, "US", max_depth=1)
    assert max(shallow.depth_histogram()) <= 1
    deep = _crawl(world, "US", max_depth=7)
    assert len(deep.urls) >= len(shallow.urls)


def test_crawler_handles_missing_seeds(world):
    crawler = Crawler(world.web)
    vantage = world.vpn.vantage_for("BR")
    result = crawler.crawl(["https://does-not-exist.gov.br/"], vantage)
    assert result.failed_urls == ["https://does-not-exist.gov.br/"]
    assert len(result.urls) == 0


def test_crawler_rejects_negative_depth(world):
    with pytest.raises(ValueError):
        Crawler(world.web, max_depth=-1)


def test_geo_restricted_sites_fail_from_foreign_vantage(world):
    restricted = [
        truth.hostname
        for truth in world.truth.hosts.values()
        if (site := world.web.site_of(truth.hostname)) is not None
        and site.geo_restricted
    ]
    if not restricted:
        pytest.skip("no geo-restricted site generated at this seed")
    hostname = restricted[0]
    site = world.web.site_of(hostname)
    foreign = "US" if site.country != "US" else "BR"
    crawler = Crawler(world.web)
    result = crawler.crawl([site.landing_url], world.vpn.vantage_for(foreign))
    assert site.landing_url in result.failed_urls
    # From the domestic vantage the same site crawls fine (footnote 1).
    domestic = crawler.crawl([site.landing_url], world.vpn.vantage_for(site.country))
    assert site.landing_url not in domestic.failed_urls


def test_page_loads_counted(world):
    result = _crawl(world, "UY")
    assert result.page_loads > 0
    assert result.page_loads <= len(result.urls)


def test_depth_histogram_matches_reference_loop(world):
    """The Counter-based histogram equals the original dict-accumulation
    implementation on a real crawled archive."""
    result = _crawl(world, "BR")
    reference = {}
    for _, depth in result.urls.values():
        reference[depth] = reference.get(depth, 0) + 1
    reference = dict(sorted(reference.items()))
    histogram = result.depth_histogram()
    assert histogram == reference
    # Sorted ascending by depth, and accounts for every URL.
    assert list(histogram) == sorted(histogram)
    assert sum(histogram.values()) == len(result.urls)


def _reference_crawl(world, code, max_depth=7):
    """The pre-dedup implementation: enqueue every link, skip repeat
    pops.  Kept as an executable spec for the frontier-dedup rewrite;
    it reads pages straight from the fabric into plain dicts."""
    vantage = world.vpn.vantage_for(code)
    seeds = list(world.truth.directories[code])

    entries, depth_of, failed, visited = {}, {}, [], set()
    page_loads = 0
    queue = collections.deque((seed, 0) for seed in seeds)
    while queue:
        url, depth = queue.popleft()
        if url in visited:
            continue
        visited.add(url)
        try:
            page = world.web.fetch(url, vantage.country)
        except (PageNotFoundError, GeoBlockedError):
            failed.append(url)
            continue
        page_loads += 1
        for entry in page.entries:
            if entry.url not in entries:
                entries[entry.url] = entry
                depth_of[entry.url] = depth
        if depth < max_depth:
            queue.extend((link, depth + 1) for link in page.links)
    return entries, depth_of, failed, page_loads


@pytest.mark.parametrize("code", ["BR", "US"])
def test_frontier_dedup_matches_reference(world, code):
    """Deduplicating at enqueue time must not change any crawl output:
    the processed sequence is the sequence of first queue occurrences
    either way, so entries, depths, failures and page loads are
    identical."""
    entries, depth_of, failed, page_loads = _reference_crawl(world, code)
    result = _crawl(world, code)
    assert list(result.urls) == list(entries)
    assert [entry for entry, _ in result.urls.values()] == \
        list(entries.values())
    assert {url: depth for url, (_, depth) in result.urls.items()} == \
        depth_of
    assert result.failed_urls == failed
    assert result.page_loads == page_loads
