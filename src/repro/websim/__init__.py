"""Web substrate: synthetic government sites and their serving fabric.

Site trees mirror the structure the paper measured (Section 4.2): 84%
of unique URLs sit on landing pages and 95% within one level below,
with trees reaching up to seven levels.  Each page holds the HAR
entries a Selenium page load records (Section 3.2): its own document
first, then every embedded object.
"""

from repro.websim.sites import Page, GovernmentSite
from repro.websim.webserver import WebFabric, GeoBlockedError, PageNotFoundError
from repro.websim.topsites import TopSite, TopsiteHosting

__all__ = [
    "Page",
    "GovernmentSite",
    "WebFabric",
    "GeoBlockedError",
    "PageNotFoundError",
    "TopSite",
    "TopsiteHosting",
]
