"""Recursive crawling of government sites (Section 3.2).

Starting from each landing URL, the crawler loads pages through the
in-country VPN vantage and follows internal links breadth-first up to
seven levels deep (the threshold Singanamalla et al. established),
consolidating every fetched object into the country's HAR archive.
"""

from __future__ import annotations

import collections
import dataclasses
import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.har import HarEntry
    from repro.measure.vpn import VantagePoint
    from repro.websim.webserver import WebFabric

#: Crawl depth used by the study.
DEFAULT_MAX_DEPTH = 7


@dataclasses.dataclass
class CrawlResult:
    """Everything collected while crawling one country."""

    country: str
    #: The country's HAR archive: each unique URL, in first-observation
    #: order, mapped to the first entry seen for it (the site's own
    #: object) and the depth of the page that first loaded it.
    urls: dict[str, tuple[HarEntry, int]]
    #: URLs that could not be fetched (missing page, geo-block).
    failed_urls: list[str]
    #: Number of page loads performed.
    page_loads: int

    def depth_histogram(self) -> dict[int, int]:
        """URL counts per discovery depth."""
        depths = map(operator.itemgetter(1), self.urls.values())
        return dict(sorted(collections.Counter(depths).items()))

    def hostname_counts(self) -> collections.Counter[str]:
        """Unique URLs per hostname, hostnames in first-observation order."""
        return collections.Counter(
            entry.hostname for entry, _ in self.urls.values())


class Crawler:
    """Breadth-first site crawler, loading pages the way Selenium does."""

    def __init__(self, web: WebFabric, max_depth: int = DEFAULT_MAX_DEPTH) -> None:
        if max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        self._web = web
        self._max_depth = max_depth

    @property
    def max_depth(self) -> int:
        return self._max_depth

    def crawl(self, seeds: list[str], vantage: VantagePoint) -> CrawlResult:
        """Crawl every seed URL and its internal pages from ``vantage``.

        Loading a page records its own document and each embedded
        object (:attr:`~repro.websim.sites.Page.entries`); the first
        observation of a URL wins, at the depth of its first referring
        page.
        """
        from repro.websim.webserver import GeoBlockedError, PageNotFoundError

        fetch = self._web.fetch
        country = vantage.country
        urls: dict[str, tuple[HarEntry, int]] = {}
        failed: list[str] = []
        #: URLs ever admitted to the frontier.  Deduplicating at enqueue
        #: time (rather than at dequeue) keeps the BFS queue bounded by
        #: the number of unique pages instead of the number of links:
        #: each URL still gets loaded exactly once, at the depth of its
        #: first referring page, so the crawl result is unchanged.
        enqueued: set[str] = set()
        page_loads = 0

        queue: collections.deque[tuple[str, int]] = collections.deque()
        for seed in seeds:
            if seed not in enqueued:
                enqueued.add(seed)
                queue.append((seed, 0))
        while queue:
            url, depth = queue.popleft()
            try:
                page = fetch(url, country)
            except (PageNotFoundError, GeoBlockedError):
                failed.append(url)
                continue
            page_loads += 1
            for entry in page.entries:
                if entry.url not in urls:
                    urls[entry.url] = (entry, depth)
            if depth < self._max_depth:
                for link in page.links:
                    if link not in enqueued:
                        enqueued.add(link)
                        queue.append((link, depth + 1))

        return CrawlResult(
            country=country,
            urls=urls,
            failed_urls=failed,
            page_loads=page_loads,
        )


__all__ = ["DEFAULT_MAX_DEPTH", "CrawlResult", "Crawler"]
