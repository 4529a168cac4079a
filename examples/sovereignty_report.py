#!/usr/bin/env python3
"""Digital-sovereignty report for selected countries.

Usage::

    python examples/sovereignty_report.py [CC [CC ...]]

For each requested country (default: BR UY AR MX FR CN), prints its
hosting-category mix, domestic/international split, top foreign
dependencies and provider concentration -- the per-country view behind
the paper's Sections 5-7.
"""

import sys

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.analysis.crossborder import EU_MEMBER_CODES, flows
from repro.analysis.diversification import country_network_hhi
from repro.analysis.hosting import country_breakdown
from repro.analysis.registration import country_split
from repro.categories import CATEGORY_ORDER
from repro.reporting.tables import render_table
from repro.world.countries import get_country

DEFAULT_COUNTRIES = ("BR", "UY", "AR", "MX", "FR", "CN")


def report(dataset, code: str) -> None:
    country = get_country(code)
    country_dataset = dataset.country(code)
    if not country_dataset.url_count:
        print(f"\n== {country} -- no sites collected ==")
        return
    print(f"\n== {country} ({country.region.name}) ==")
    mixes = country_breakdown(dataset)[code]
    urls, byte_mix = mixes["urls"], mixes["bytes"]
    print(render_table(
        ["category", "URLs", "bytes"],
        [[str(c), f"{urls[c]:.2f}", f"{byte_mix[c]:.2f}"] for c in CATEGORY_ORDER],
    ))
    splits = country_split(dataset)[code]
    location, registration = splits["geolocation"], splits["whois"]
    print(f"servers abroad: {location.international:.0%}  |  "
          f"foreign-registered orgs: {registration.international:.0%}")

    foreign = [f for f in flows(dataset) if f.source == code]
    foreign.sort(key=lambda f: -f.url_count)
    if foreign:
        top = ", ".join(
            f"{f.destination} ({f.url_count} URLs)" for f in foreign[:4]
        )
        print(f"top foreign dependencies: {top}")
    hhi = country_network_hhi(dataset, by_bytes=True).get(code)
    if hhi is not None:
        label = "concentrated" if hhi > 0.5 else "diversified"
        print(f"network concentration (HHI over bytes): {hhi:.2f} ({label})")
    if country.eu_member:
        # Each URL's validated server country, from its host row.
        table = country_dataset.host_table
        located = [
            server for server in (table.hosts[host].server_country
                                  for host in table.host_index)
            if server is not None
        ]
        eu_ok = sum(1 for server in located if server in EU_MEMBER_CODES)
        print(f"GDPR: {eu_ok / len(located):.1%} of URLs served within the EU")


def main() -> None:
    codes = [c.upper() for c in sys.argv[1:]] or list(DEFAULT_COUNTRIES)
    world = SyntheticWorld.generate(WorldConfig(seed=42, scale=0.04))
    dataset = Pipeline(world).run()
    for code in codes:
        report(dataset, code)


if __name__ == "__main__":
    main()
