"""Diversification of hosting providers (Section 7.2, Figure 11).

Measures each country's concentration across serving networks with the
Herfindahl-Hirschman Index, then groups countries by the dominant
source of their bytes (Govt&SOE, 3P Local, 3P Global) to reproduce the
Figure 11 boxplots and the 63%-vs-32% single-network finding.

Dataset-level functions accept a dataset (an index is built
transparently and cached on it) or a prebuilt
:class:`~repro.analysis.engine.AnalysisIndex`; :func:`hhi` takes a raw
share vector.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.engine.index import DatasetOrIndex, ensure_index
from repro.analysis.hosting import fractions_of_counts
from repro.categories import HostingCategory


def hhi(shares: Sequence[float]) -> float:
    """Herfindahl-Hirschman Index of a share vector.

    Shares are normalized first, so raw counts are accepted; the result
    lies in (0, 1], with 1 meaning full concentration.
    """
    total = float(sum(shares))
    if total <= 0:
        raise ValueError("shares must have positive mass")
    return sum((value / total) ** 2 for value in shares)


def country_network_hhi(
    dataset: DatasetOrIndex, by_bytes: bool = False
) -> dict[str, float]:
    """HHI over serving networks (ASes) per country."""
    index = ensure_index(dataset)
    counts = index.asn_counts()
    result: dict[str, float] = {}
    for code in sorted(counts):
        stats = counts[code]
        if stats:
            # Values in first-appearance order -- the share order the
            # record loop produced.
            result[code] = hhi([
                byte_sum if by_bytes else url_count
                for url_count, byte_sum in stats.values()
            ])
    return result


def _dominant_of_byte_counts(
    byte_counts: Sequence[int],
) -> Optional[HostingCategory]:
    """Predominant source of a country's bytes (Figure 11 grouping).

    ``None`` for countries with no byte mass (no URLs, or only
    zero-size responses).  Ties break deterministically in favour of
    the category declared first in :class:`HostingCategory`, never by
    dict insertion order.
    """
    mix = fractions_of_counts(byte_counts)
    if not any(mix.values()):
        return None
    best = max(mix.values())
    for category in HostingCategory:
        if mix.get(category, 0.0) == best:
            return category
    return None  # pragma: no cover - mix keys are always HostingCategory


def hhi_by_dominant_category(
    dataset: DatasetOrIndex, by_bytes: bool = False
) -> dict[HostingCategory, list[float]]:
    """Figure 11: the HHI distribution per dominant-category group."""
    index = ensure_index(dataset)
    values = country_network_hhi(index, by_bytes=by_bytes)
    category_counts = index.category_counts()
    groups: dict[HostingCategory, list[float]] = {}
    for code, value in values.items():
        group = _dominant_of_byte_counts(category_counts[code][1])
        if group is None:
            continue
        groups.setdefault(group, []).append(value)
    return groups


def single_network_dependence(
    dataset: DatasetOrIndex, threshold: float = 0.5
) -> dict[HostingCategory, tuple[int, int]]:
    """Countries serving more than ``threshold`` of bytes from one network.

    Returns, per dominant-category group, (countries above threshold,
    group size) -- the paper's "63% (12/19) of Govt&SOE countries vs 32%
    (8/25) of Global ones".
    """
    index = ensure_index(dataset)
    asn_counts = index.asn_counts()
    category_counts = index.category_counts()
    result: dict[HostingCategory, tuple[int, int]] = {}
    for code in sorted(asn_counts):
        group = _dominant_of_byte_counts(category_counts[code][1])
        if group is None:
            continue
        byte_shares = [byte_sum for _url_count, byte_sum in asn_counts[code].values()]
        total = sum(byte_shares)
        top_share = max(byte_shares) / total if total else 0.0
        above, size = result.get(group, (0, 0))
        result[group] = (above + (1 if top_share > threshold else 0), size + 1)
    return result


__all__ = [
    "hhi",
    "country_network_hhi",
    "hhi_by_dominant_category",
    "single_network_dependence",
]
