"""The serving side of the synthetic web.

:class:`WebFabric` indexes every generated page by URL and answers
fetches, enforcing geo-restrictions (some government sites only answer
requests from domestic clients -- the reason the study uses in-country
VPN vantage points).
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.websim.sites import GovernmentSite, Page


class WebError(Exception):
    """Base class for fetch failures."""


class PageNotFoundError(WebError):
    """No page exists at the requested URL."""


class GeoBlockedError(WebError):
    """The site refuses requests from the client's country."""


class WebFabric:
    """Global index of all pages served by the synthetic web."""

    def __init__(self) -> None:
        self._pages: dict[str, Page] = {}
        self._sites_by_host: dict[str, GovernmentSite] = {}

    def register_site(self, site: GovernmentSite) -> None:
        """Publish every page of a site.

        Raises :class:`ValueError` for a hostname or page URL already
        published and for an entry of negative size.
        """
        if site.hostname in self._sites_by_host:
            raise ValueError(f"duplicate site for hostname {site.hostname!r}")
        self._sites_by_host[site.hostname] = site
        for url, page in site.pages.items():
            if url in self._pages:
                raise ValueError(f"duplicate page URL {url!r}")
            for entry in page.entries:
                if entry.size_bytes < 0:
                    raise ValueError(f"negative size for {entry.url!r}")
            self._pages[url] = page

    def site_of(self, hostname: str) -> Optional[GovernmentSite]:
        """The site rooted at ``hostname`` (None when unknown)."""
        return self._sites_by_host.get(hostname.lower())

    def fetch(self, url: str, client_country: str) -> Page:
        """Fetch the page at ``url`` from a client in ``client_country``.

        Raises :class:`PageNotFoundError` for unknown URLs and
        :class:`GeoBlockedError` when the owning site is geo-restricted
        and the client is foreign.
        """
        page = self._pages.get(url)
        if page is None:
            raise PageNotFoundError(url)
        site = self._sites_by_host.get(page.hostname)
        if site is not None and site.geo_restricted and client_country != site.country:
            raise GeoBlockedError(url)
        return page

    def iter_sites(self) -> Iterator[GovernmentSite]:
        """Every registered site."""
        return iter(self._sites_by_host.values())

    @property
    def page_count(self) -> int:
        """Total number of registered pages."""
        return len(self._pages)


__all__ = ["WebError", "PageNotFoundError", "GeoBlockedError", "WebFabric"]
