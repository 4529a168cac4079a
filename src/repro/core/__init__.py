"""The paper's methodology pipeline (Section 3).

Gathering government sites, crawling them seven levels deep through
in-country vantage points, filtering internal government URLs,
identifying the serving infrastructure, classifying network ownership,
geolocating servers and assembling the final dataset.

The crawl files the :class:`~repro.har.HarEntry` objects the sites'
pages hold, once per URL, and the URL filter decides per hostname.
"""

from repro.core.gathering import GovernmentDirectory, compile_directory
from repro.core.crawler import Crawler, CrawlResult
from repro.core.urlfilter import GovernmentUrlFilter, FilterVia
from repro.core.infrastructure import InfrastructureMapper, HostInfrastructure
from repro.core.asclassify import GovernmentASClassifier, Evidence
from repro.core.geolocation import Geolocator, GeoVerdict, ValidationMethod, ValidationStats
from repro.core.classification import categorize
from repro.core.dataset import CountryDataset, GovernmentHostingDataset
from repro.core.pipeline import Pipeline

__all__ = [
    "GovernmentDirectory",
    "compile_directory",
    "Crawler",
    "CrawlResult",
    "GovernmentUrlFilter",
    "FilterVia",
    "InfrastructureMapper",
    "HostInfrastructure",
    "GovernmentASClassifier",
    "Evidence",
    "Geolocator",
    "GeoVerdict",
    "ValidationMethod",
    "ValidationStats",
    "categorize",
    "CountryDataset",
    "GovernmentHostingDataset",
    "Pipeline",
]
