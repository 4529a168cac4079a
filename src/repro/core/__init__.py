"""The paper's methodology pipeline (Section 3).

Gathering government sites, crawling them seven levels deep through
in-country vantage points, filtering internal government URLs,
identifying the serving infrastructure, classifying network ownership,
geolocating servers and assembling the final dataset.

The crawl files the :class:`~repro.har.HarEntry` objects the sites'
pages hold, once per URL, and the URL filter decides per hostname.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.core.gathering": ["GovernmentDirectory", "compile_directory"],
    "repro.core.crawler": ["Crawler", "CrawlResult"],
    "repro.core.urlfilter": ["GovernmentUrlFilter", "FilterVia"],
    "repro.core.infrastructure": ["InfrastructureMapper", "HostInfrastructure"],
    "repro.core.asclassify": ["GovernmentASClassifier", "Evidence"],
    "repro.core.geolocation": [
        "Geolocator", "GeoVerdict", "ValidationMethod", "ValidationStats"],
    "repro.core.classification": ["categorize"],
    "repro.core.dataset": ["CountryDataset", "GovernmentHostingDataset"],
    "repro.core.pipeline": ["Pipeline"],
})
