"""Data model of synthetic government websites.

A :class:`GovernmentSite` owns a tree of :class:`Page` objects rooted
at a landing page.  A page holds one :class:`~repro.har.HarEntry` per
object it fetches (the unique URLs the study counts) and links to
deeper internal pages, up to the seven levels the crawler explores.
Embedded objects may live on the site's own hostname, on sibling
government hostnames (e.g. a ``static.`` asset host), on SAN-verified
affiliated hostnames, or on external contractor domains that the URL
filter must discard.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Iterator, Optional

from repro.har import HarEntry


class SiteKind(enum.Enum):
    """Organizational flavour of a government site."""

    MINISTRY = "ministry"
    AGENCY = "agency"
    SOE = "state-owned enterprise"


@dataclasses.dataclass(frozen=True)
class Page:
    """A crawlable page: the objects it fetches and the pages it links."""

    url: str
    hostname: str
    depth: int
    #: One entry per object fetched when rendering the page: the page
    #: document's own first, then its embedded objects (images,
    #: scripts, ...).
    entries: tuple[HarEntry, ...]
    #: URLs of internal pages linked from this page.
    links: tuple[str, ...]


@dataclasses.dataclass
class GovernmentSite:
    """A government web property rooted at one landing page."""

    country: str
    hostname: str
    landing_url: str
    kind: SiteKind
    pages: dict[str, Page]
    #: Whether the site refuses requests from outside its country
    #: (footnote 1 of the paper: e.g. www.prodecon.gob.mx).
    geo_restricted: bool = False

    def landing_page(self) -> Page:
        """The landing page object."""
        return self.pages[self.landing_url]

    def page(self, url: str) -> Optional[Page]:
        """The page at ``url`` if it belongs to this site."""
        return self.pages.get(url)

    def iter_pages(self) -> Iterator[Page]:
        """All pages of the site."""
        return iter(self.pages.values())

    @property
    def max_depth(self) -> int:
        """Deepest page level present in the tree."""
        return max(page.depth for page in self.pages.values())

    def unique_urls(self) -> set[str]:
        """Every unique URL reachable by fully crawling the site."""
        urls: set[str] = set()
        for page in self.pages.values():
            urls.update(entry.url for entry in page.entries)
        return urls


__all__ = ["SiteKind", "Page", "GovernmentSite"]
