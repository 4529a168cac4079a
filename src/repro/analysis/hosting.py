"""Hosting-trend analyses (Section 5, Figures 1, 2 and 4).

Fractions of URLs and bytes served by each hosting category, globally,
per region and per country.  Global prevalence (Figure 2) is computed
URL/byte-weighted over the whole dataset; regional breakdowns
(Figure 4) default to country-mean weighting so giant crawls (Belgium,
Hungary) do not erase the regional signal -- both weightings are
exposed.

Every function accepts either a dataset (an
:class:`~repro.analysis.engine.AnalysisIndex` is built transparently
and cached on it) or a prebuilt index.
"""

from __future__ import annotations

from typing import Literal, Sequence

from repro.analysis.engine.index import DatasetOrIndex, ensure_index
from repro.categories import HostingCategory
from repro.world.countries import get_country
from repro.world.regions import Region

Weighting = Literal["url", "country"]


def fractions_of_counts(counts: Sequence[int]) -> dict[HostingCategory, float]:
    """Fraction of URLs (or bytes) served by each category, from
    per-category integer tallies.

    ``counts`` follows ``HostingCategory`` declaration order (the index
    category-code space).  Every value is 0.0 when the tallies are.
    """
    totals = {
        category: float(count) for category, count in zip(HostingCategory, counts)
    }
    grand_total = sum(totals.values())
    if grand_total == 0:
        return totals
    return {cat: value / grand_total for cat, value in totals.items()}


def global_breakdown(
    dataset: DatasetOrIndex,
) -> dict[str, dict[HostingCategory, float]]:
    """Figure 2: global prevalence of each category, by URLs and bytes.

    Both weightings come from one set of index tallies.
    """
    index = ensure_index(dataset)
    url_counts, byte_sums = index.global_category_counts()
    return {
        "urls": fractions_of_counts(url_counts),
        "bytes": fractions_of_counts(byte_sums),
    }


def country_breakdown(
    dataset: DatasetOrIndex,
) -> dict[str, dict[str, dict[HostingCategory, float]]]:
    """Per-country URL and byte category mixes."""
    index = ensure_index(dataset)
    result: dict[str, dict[str, dict[HostingCategory, float]]] = {}
    for code, (url_counts, byte_sums) in sorted(index.category_counts().items()):
        result[code] = {
            "urls": fractions_of_counts(url_counts),
            "bytes": fractions_of_counts(byte_sums),
        }
    return result


def _mean_mixes(
    mixes: list[dict[HostingCategory, float]]
) -> dict[HostingCategory, float]:
    if not mixes:
        return {category: 0.0 for category in HostingCategory}
    return {
        category: sum(mix[category] for mix in mixes) / len(mixes)
        for category in HostingCategory
    }


def regional_breakdown(
    dataset: DatasetOrIndex,
    by_bytes: bool = False,
    weighting: Weighting = "country",
) -> dict[Region, dict[HostingCategory, float]]:
    """Figure 4: category mix per World Bank region.

    ``weighting='country'`` averages per-country mixes (each government
    counts once); ``'url'`` pools all URLs of the region by summing the
    per-country tallies.
    """
    index = ensure_index(dataset)
    by_region: dict[Region, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for code, counts in index.category_counts().items():
        region = get_country(code).region
        by_region.setdefault(region, []).append(counts)
    result: dict[Region, dict[HostingCategory, float]] = {}
    for region, tallies in by_region.items():
        if weighting == "country":
            mixes = [
                fractions_of_counts(byte_sums if by_bytes else url_counts)
                for url_counts, byte_sums in tallies
            ]
            result[region] = _mean_mixes(mixes)
        else:
            pooled = [0] * len(HostingCategory)
            for url_counts, byte_sums in tallies:
                selected = byte_sums if by_bytes else url_counts
                for i, value in enumerate(selected):
                    pooled[i] += value
            result[region] = fractions_of_counts(pooled)
    return result


def country_majority(
    dataset: DatasetOrIndex, by_bytes: bool = True
) -> dict[str, str]:
    """Figure 1: whether each country's traffic is majority third-party.

    Returns ``"3P"`` or ``"Govt&SOE"`` per country code.
    """
    index = ensure_index(dataset)
    result: dict[str, str] = {}
    for code, (url_counts, byte_sums) in sorted(index.category_counts().items()):
        mix = fractions_of_counts(byte_sums if by_bytes else url_counts)
        third_party = sum(
            share for category, share in mix.items() if category.is_third_party
        )
        result[code] = "3P" if third_party > 0.5 else "Govt&SOE"
    return result


__all__ = [
    "Weighting",
    "fractions_of_counts",
    "global_breakdown",
    "country_breakdown",
    "regional_breakdown",
    "country_majority",
]
