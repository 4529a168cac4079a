"""Affordability of government websites (extension).

Habib et al. ("A First Look at Public Service Websites from the
Affordability Lens", WWW 2023 -- cited in the paper's §9) show that
large page weights make public-service sites expensive to visit in
developing countries.  This module computes the same quantities over
the measured dataset: landing-page weight per country, the mobile-data
cost of one visit, and that cost relative to daily income.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.core.dataset import GovernmentHostingDataset
from repro.world.affordability import daily_income_usd, data_price_usd_per_gb

_BYTES_PER_GB = 1024 ** 3


@dataclasses.dataclass(frozen=True)
class AffordabilityReport:
    """Cost of visiting one country's government landing pages."""

    country: str
    #: Median bytes transferred when loading a landing page tree (depth 0).
    median_landing_bytes: int
    #: USD cost of one median landing-page visit over mobile data.
    visit_cost_usd: float
    #: Visit cost as a share of a day's income (the affordability metric).
    cost_share_of_daily_income: float


def _landing_weights(dataset: GovernmentHostingDataset, code: str) -> list[int]:
    """Total depth-0 bytes per hostname (landing page plus its objects)."""
    weights: dict[str, int] = {}
    for _, hostname, size_bytes, _, depth in \
            dataset.countries[code].host_table.urls:
        if depth == 0:
            weights[hostname] = weights.get(hostname, 0) + size_bytes
    return sorted(weights.values())


def country_affordability(
    dataset: GovernmentHostingDataset, code: str
) -> AffordabilityReport:
    """Affordability metrics for one country."""
    weights = _landing_weights(dataset, code)
    if not weights:
        raise ValueError(f"no landing data for {code}")
    median_bytes = int(statistics.median(weights))
    cost = median_bytes / _BYTES_PER_GB * data_price_usd_per_gb(code)
    return AffordabilityReport(
        country=code,
        median_landing_bytes=median_bytes,
        visit_cost_usd=cost,
        cost_share_of_daily_income=cost / daily_income_usd(code),
    )


def affordability_ranking(
    dataset: GovernmentHostingDataset,
) -> list[AffordabilityReport]:
    """All countries, least affordable first."""
    reports = []
    for code, country_dataset in dataset.countries.items():
        if country_dataset.url_count:
            reports.append(country_affordability(dataset, code))
    reports.sort(key=lambda report: -report.cost_share_of_daily_income)
    return reports


def affordability_gap(dataset: GovernmentHostingDataset) -> float:
    """Relative-cost ratio between the poorest and richest country quartiles.

    Habib et al.'s headline: the same page weight costs dramatically
    more (relative to income) in developing countries.
    """
    from repro.world.countries import get_country

    reports = affordability_ranking(dataset)
    if len(reports) < 8:
        raise ValueError("not enough countries for a gap estimate")
    by_income = sorted(
        reports, key=lambda report: get_country(report.country).gdp_per_capita_kusd
    )
    cut = max(1, len(by_income) // 4)
    poor = statistics.mean(
        report.cost_share_of_daily_income for report in by_income[:cut]
    )
    rich = statistics.mean(
        report.cost_share_of_daily_income for report in by_income[-cut:]
    )
    return poor / rich if rich else float("inf")


__all__ = [
    "AffordabilityReport",
    "country_affordability",
    "affordability_ranking",
    "affordability_gap",
]
