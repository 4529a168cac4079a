"""Governments vs. topsites comparison (Section 5.1/6.1, Figures 3 and 7,
Appendix D).

Applies the paper's topsites methodology to the CrUX-style popular
sites of the 14 comparison countries: scrape one level past the landing
page, detect self-hosting via the CNAME/SAN heuristic, classify the
remaining sites by their serving provider, and geolocate the servers --
then put the results side by side with the same countries' government
numbers.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.categories import HostingCategory
from repro.analysis.engine.index import DatasetOrIndex, ensure_index
from repro.analysis.providers import global_provider_asns
from repro.analysis.registration import LocationSplit, _split
from repro.urltools import registrable_domain
from repro.websim.topsites import COMPARISON_COUNTRIES, TopsiteHosting
from repro.world.countries import get_country

if TYPE_CHECKING:
    from repro.core.geolocation import Geolocator
    from repro.datagen.generator import SyntheticWorld

#: Government categories mapped onto the comparison's four labels.
_GOV_TO_COMPARISON = {
    HostingCategory.GOVT_SOE: TopsiteHosting.SELF_HOSTING,
    HostingCategory.P3_GLOBAL: TopsiteHosting.GLOBAL,
    HostingCategory.P3_LOCAL: TopsiteHosting.LOCAL,
    HostingCategory.P3_REGIONAL: TopsiteHosting.FOREIGN,
}


@dataclasses.dataclass(frozen=True)
class TopsiteRecord:
    """Measured facts about one popular site."""

    hostname: str
    country: str
    url_count: int
    byte_count: int
    hosting: TopsiteHosting
    registered_country: str
    server_country: Optional[str]


@dataclasses.dataclass
class TopsiteReport:
    """All topsite measurements across the comparison countries."""

    records: list[TopsiteRecord]

    def hosting_fractions(self, by_bytes: bool = False) -> dict[TopsiteHosting, float]:
        """Figure 3 (right): URL/byte fractions per hosting label."""
        totals = {label: 0.0 for label in TopsiteHosting}
        for record in self.records:
            weight = record.byte_count if by_bytes else record.url_count
            totals[record.hosting] += weight
        grand_total = sum(totals.values())
        if grand_total == 0:
            return totals
        return {label: value / grand_total for label, value in totals.items()}

    def location_split(self) -> LocationSplit:
        """Figure 7 (right, geolocation): domestic vs. international."""
        total = 0
        domestic = 0
        for record in self.records:
            if record.server_country is None:
                continue
            total += record.url_count
            if record.server_country == record.country:
                domestic += record.url_count
        if total == 0:
            return LocationSplit(0.0, 0.0)
        return LocationSplit(domestic / total, 1.0 - domestic / total)

    def registration_location_split(self) -> LocationSplit:
        """Figure 7 (right, WHOIS): domestic vs. international registration."""
        total = 0
        domestic = 0
        for record in self.records:
            total += record.url_count
            if record.registered_country == record.country:
                domestic += record.url_count
        if total == 0:
            return LocationSplit(0.0, 0.0)
        return LocationSplit(domestic / total, 1.0 - domestic / total)


class TopsiteAnalyzer:
    """Implements the Appendix D methodology over a synthetic world."""

    def __init__(
        self,
        world: SyntheticWorld,
        geolocator: Geolocator,
        global_asns: set[int],
    ) -> None:
        from repro.core.crawler import Crawler

        self._world = world
        self._geolocator = geolocator
        self._global_asns = global_asns
        self._crawler = Crawler(world.web, max_depth=1)

    def analyze_site(self, topsite) -> Optional[TopsiteRecord]:
        """Measure a single topsite (None if it cannot be resolved)."""
        from repro.netsim.dns import DnsError

        world = self._world
        vantage = world.vpn.vantage_for(topsite.country)
        crawl = self._crawler.crawl([topsite.landing_url], vantage)
        url_count = len(crawl.urls)
        byte_count = sum(entry.size_bytes for entry, _ in crawl.urls.values())
        try:
            resolution = world.resolver.resolve(
                topsite.hostname, vantage.lat, vantage.lon
            )
        except DnsError:
            return None
        whois_record = world.whois.query_ip(resolution.address)
        hosting = self._classify(topsite, whois_record)
        verdict = self._geolocator.locate(resolution.address, topsite.country)
        return TopsiteRecord(
            hostname=topsite.hostname,
            country=topsite.country,
            url_count=url_count,
            byte_count=byte_count,
            hosting=hosting,
            registered_country=whois_record.registration_country,
            server_country=verdict.country,
        )

    def _classify(self, topsite, whois_record) -> TopsiteHosting:
        if self._is_self_hosted(topsite.hostname):
            return TopsiteHosting.SELF_HOSTING
        if whois_record.asn in self._global_asns:
            return TopsiteHosting.GLOBAL
        if whois_record.registration_country == topsite.country:
            return TopsiteHosting.LOCAL
        return TopsiteHosting.FOREIGN

    def _is_self_hosted(self, hostname: str) -> bool:
        """The CNAME/SAN self-hosting heuristic of Appendix D."""
        cname = self._world.resolver.first_cname(hostname)
        if cname is None:
            return False
        site_2ld = registrable_domain(hostname)
        cname_2ld = registrable_domain(cname)
        if cname_2ld == site_2ld:
            return True
        certificate = self._world.certificates.get(hostname)
        if certificate is not None:
            san_2lds = {registrable_domain(name) for name in certificate.sans}
            if cname_2ld in san_2lds:
                return True
        return False


def analyze_topsites(
    world: SyntheticWorld,
    dataset: DatasetOrIndex,
    geolocator: Optional[Geolocator] = None,
) -> TopsiteReport:
    """Run the full Appendix D analysis for the comparison countries.

    ``dataset`` supplies the measured Global-provider footprints; a
    fresh geolocator is built when none is passed.
    """
    from repro.netsim.dns import DnsError

    if geolocator is None:
        from repro.core.pipeline import Pipeline

        pipeline = Pipeline(world)
        geolocator = pipeline.geolocator

    # First pass: resolve every topsite so the multi-continent footprint of
    # providers appearing only in the topsite data is also visible (the
    # paper identifies "CDN providers" directly).
    global_asns = set(global_provider_asns(dataset))
    continents_by_asn: dict[int, set] = {}
    for code in COMPARISON_COUNTRIES:
        vantage = world.vpn.vantage_for(code) if code in world.topsites else None
        for topsite in world.topsites.get(code, []):
            try:
                resolution = world.resolver.resolve(
                    topsite.hostname, vantage.lat, vantage.lon
                )
            except DnsError:
                continue
            whois_record = world.whois.query_ip(resolution.address)
            continents_by_asn.setdefault(whois_record.asn, set()).add(
                get_country(code).continent
            )
    global_asns.update(
        asn for asn, cset in continents_by_asn.items() if len(cset) >= 2
    )

    analyzer = TopsiteAnalyzer(world, geolocator, global_asns=global_asns)
    records: list[TopsiteRecord] = []
    for code in COMPARISON_COUNTRIES:
        for topsite in world.topsites.get(code, []):
            record = analyzer.analyze_site(topsite)
            if record is not None:
                records.append(record)
    return TopsiteReport(records=records)


def government_subset_breakdown(
    dataset: DatasetOrIndex,
    countries: tuple[str, ...] = COMPARISON_COUNTRIES,
) -> dict[str, dict[TopsiteHosting, float]]:
    """Figure 3 (left): the same countries' government mixes, relabeled."""
    index = ensure_index(dataset)
    category_counts = index.category_counts()
    url_totals = {label: 0.0 for label in TopsiteHosting}
    byte_totals = {label: 0.0 for label in TopsiteHosting}
    for code in countries:
        counts = category_counts.get(code)
        if counts is None:
            continue
        url_counts, byte_sums = counts
        for position, category in enumerate(HostingCategory):
            label = _GOV_TO_COMPARISON[category]
            url_totals[label] += url_counts[position]
            byte_totals[label] += byte_sums[position]
    url_sum = sum(url_totals.values()) or 1.0
    byte_sum = sum(byte_totals.values()) or 1.0
    return {
        "urls": {label: value / url_sum for label, value in url_totals.items()},
        "bytes": {label: value / byte_sum for label, value in byte_totals.items()},
    }


def government_subset_location(
    dataset: DatasetOrIndex,
    countries: tuple[str, ...] = COMPARISON_COUNTRIES,
) -> dict[str, LocationSplit]:
    """Figure 7 (left): the same countries' government location splits."""
    index = ensure_index(dataset)
    location_counts = index.location_counts()
    total = registration_domestic = located = server_domestic = 0
    for code in countries:
        counts = location_counts.get(code)
        if counts is None:
            continue
        total += counts[0]
        registration_domestic += counts[1]
        located += counts[2]
        server_domestic += counts[3]
    return {
        "whois": _split(registration_domestic, total),
        "geolocation": _split(server_domestic, located),
    }


__all__ = [
    "TopsiteRecord",
    "TopsiteReport",
    "TopsiteAnalyzer",
    "analyze_topsites",
    "government_subset_breakdown",
    "government_subset_location",
]
