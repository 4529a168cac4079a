"""Cross-border dependency analyses (Section 6.3, Figure 9, Table 5).

Flows of government URLs onto foreign countries -- by organization
registration (Figure 9a) or server location (Figure 9b) -- plus the
in-region retention shares of Table 5, the regional-affinity hosts,
GDPR compliance of EU members and arbitrary bilateral shares (Mexico to
the US, New Zealand to Australia, ...).

All entry points accept a dataset (an index is built transparently and
cached on it) or a prebuilt :class:`~repro.analysis.engine.AnalysisIndex`;
the flows come straight out of the index's per-(source, destination)
tables instead of a record scan per call.
"""

from __future__ import annotations

import dataclasses
from typing import Literal

from repro.analysis.engine.index import DatasetOrIndex, ensure_index
from repro.world.cities import EXTRA_TERRITORIES
from repro.world.countries import COUNTRIES
from repro.world.regions import Region

Basis = Literal["server", "registration"]

#: EU member states, including hosting-only territories in our world model.
EU_MEMBER_CODES = frozenset(
    {code for code, country in COUNTRIES.items() if country.eu_member}
    | {"AT", "SK", "FI", "IE", "LU"}
)


@dataclasses.dataclass(frozen=True)
class CrossBorderFlow:
    """URLs of one government relying on one foreign country."""

    source: str
    destination: str
    url_count: int
    byte_count: int


def region_of(code: str) -> Region:
    """World Bank region of a sample country or hosting-only territory."""
    country = COUNTRIES.get(code)
    if country is not None:
        return country.region
    if code in EXTRA_TERRITORIES:
        return EXTRA_TERRITORIES[code][1]
    raise KeyError(f"unknown country code {code!r}")


def flows(
    dataset: DatasetOrIndex, basis: Basis = "server"
) -> list[CrossBorderFlow]:
    """Figure 9: all cross-border (source, destination) flows."""
    index = ensure_index(dataset)
    return [
        CrossBorderFlow(source=s, destination=d, url_count=u, byte_count=b)
        for s, d, u, b in index.crossborder_flow_table(basis)
    ]


def same_region_share(
    dataset: DatasetOrIndex, basis: Basis = "server"
) -> dict[Region, float]:
    """Table 5: share of cross-border dependencies staying in-region."""
    in_region: dict[Region, int] = {}
    total: dict[Region, int] = {}
    for flow in flows(dataset, basis):
        source_region = region_of(flow.source)
        total[source_region] = total.get(source_region, 0) + flow.url_count
        if region_of(flow.destination) is source_region:
            in_region[source_region] = (
                in_region.get(source_region, 0) + flow.url_count
            )
    return {
        region: in_region.get(region, 0) / count
        for region, count in total.items()
        if count > 0
    }


def regional_affinity(
    dataset: DatasetOrIndex, basis: Basis = "server"
) -> dict[Region, dict[str, float]]:
    """Section 6.3: who hosts the *in-region* cross-border dependencies.

    For each region, the share of in-region cross-border URLs each
    destination country hosts (the paper: South Africa 100% of SSA,
    Brazil 85% of LAC, Japan ~60% of EAP, Germany 36% of ECA).
    """
    per_region: dict[Region, dict[str, int]] = {}
    for flow in flows(dataset, basis):
        source_region = region_of(flow.source)
        if region_of(flow.destination) is not source_region:
            continue
        hosts = per_region.setdefault(source_region, {})
        hosts[flow.destination] = hosts.get(flow.destination, 0) + flow.url_count
    result: dict[Region, dict[str, float]] = {}
    for region, hosts in per_region.items():
        region_total = sum(hosts.values())
        result[region] = {
            code: count / region_total for code, count in sorted(hosts.items())
        }
    return result


def gdpr_compliance(dataset: DatasetOrIndex) -> float:
    """Section 6.3: fraction of EU-government URLs served inside the EU."""
    index = ensure_index(dataset)
    total = 0
    compliant = 0
    for code, counts in index.location_counts().items():
        if code not in EU_MEMBER_CODES:
            continue
        total += counts[2]       # records with a validated location
        compliant += counts[3]   # served domestically (EU by definition)
    for (source, destination), (url_count, _) in index.crossborder_counts(
        "server"
    ).items():
        if source in EU_MEMBER_CODES and destination in EU_MEMBER_CODES:
            compliant += url_count
    return compliant / total if total else 0.0


def bilateral_share(
    dataset: DatasetOrIndex,
    source: str,
    destination: str,
    basis: Basis = "server",
) -> float:
    """Share of ``source``'s URLs depending on ``destination``.

    E.g. the paper finds 79.22% of Mexico's URLs served from the US and
    40% of New Zealand's from Australia.
    """
    source = source.upper()
    destination = destination.upper()
    index = ensure_index(dataset)
    index.chunk(source)  # KeyError for unknown countries, as before
    counts = index.location_counts().get(source, (0, 0, 0, 0))
    if basis == "registration":
        total = counts[0]
        domestic = counts[1]
    else:
        total = counts[2]
        domestic = counts[3]
    if destination == source:
        matching = domestic
    else:
        matching = index.crossborder_counts(basis).get(
            (source, destination), (0, 0)
        )[0]
    return matching / total if total else 0.0


def foreign_share_by_destination(
    dataset: DatasetOrIndex, basis: Basis = "server"
) -> dict[str, float]:
    """Share of all cross-border URLs each destination country hosts.

    The paper: servers in North America and Western Europe host 57% of
    URLs crossing their country's borders.
    """
    all_flows = flows(dataset, basis)
    grand_total = sum(flow.url_count for flow in all_flows)
    if grand_total == 0:
        return {}
    by_destination: dict[str, int] = {}
    for flow in all_flows:
        by_destination[flow.destination] = (
            by_destination.get(flow.destination, 0) + flow.url_count
        )
    return {
        code: count / grand_total for code, count in sorted(by_destination.items())
    }


__all__ = [
    "Basis",
    "EU_MEMBER_CODES",
    "CrossBorderFlow",
    "region_of",
    "flows",
    "same_region_share",
    "regional_affinity",
    "gdpr_compliance",
    "bilateral_share",
    "foreign_share_by_destination",
]
