"""Domestic vs. international hosting (Section 6, Figures 6 and 8).

Two views per government URL: the WHOIS country of registration of the
serving organization, and the validated physical server location.
URLs whose server location was excluded by the geolocation process are
dropped from the location view only.

Every function accepts a dataset (an index is built transparently and
cached on it) or a prebuilt
:class:`~repro.analysis.engine.AnalysisIndex`.
"""

from __future__ import annotations

import dataclasses

from repro.analysis.engine.index import DatasetOrIndex, ensure_index
from repro.analysis.hosting import Weighting
from repro.world.countries import get_country
from repro.world.regions import Region


@dataclasses.dataclass(frozen=True)
class LocationSplit:
    """Domestic/international fractions for one view."""

    domestic: float
    international: float

    def __post_init__(self) -> None:
        total = self.domestic + self.international
        if total and abs(total - 1.0) > 1e-9:
            raise ValueError("fractions must sum to 1 (or both be 0)")


def _split(domestic_count: float, total: float) -> LocationSplit:
    if total <= 0:
        return LocationSplit(0.0, 0.0)
    domestic = domestic_count / total
    return LocationSplit(domestic=domestic, international=1.0 - domestic)


def _split_of_counts(counts: tuple[int, int, int, int], view: str) -> LocationSplit:
    """Build one view's split from an index location tally."""
    total, registration_domestic, located, server_domestic = counts
    if view == "whois":
        return _split(registration_domestic, total)
    return _split(server_domestic, located)


def global_split(dataset: DatasetOrIndex) -> dict[str, LocationSplit]:
    """Figure 6: global WHOIS and geolocation splits."""
    index = ensure_index(dataset)
    total = registration_domestic = located = server_domestic = 0
    for counts in index.location_counts().values():
        total += counts[0]
        registration_domestic += counts[1]
        located += counts[2]
        server_domestic += counts[3]
    return {
        "whois": _split(registration_domestic, total),
        "geolocation": _split(server_domestic, located),
    }


def country_split(dataset: DatasetOrIndex) -> dict[str, dict[str, LocationSplit]]:
    """Per-country WHOIS and geolocation splits."""
    index = ensure_index(dataset)
    result: dict[str, dict[str, LocationSplit]] = {}
    for code, counts in sorted(index.location_counts().items()):
        result[code] = {
            "whois": _split_of_counts(counts, "whois"),
            "geolocation": _split_of_counts(counts, "geolocation"),
        }
    return result


def regional_split(
    dataset: DatasetOrIndex,
    view: str = "geolocation",
    weighting: Weighting = "country",
) -> dict[Region, LocationSplit]:
    """Figure 8: domestic/international split per region.

    ``view`` selects registration ('whois') or server location
    ('geolocation').
    """
    if view not in ("whois", "geolocation"):
        raise ValueError(f"unknown view {view!r}")
    index = ensure_index(dataset)
    by_region: dict[Region, list[tuple[int, int, int, int]]] = {}
    for code, counts in index.location_counts().items():
        by_region.setdefault(get_country(code).region, []).append(counts)
    result: dict[Region, LocationSplit] = {}
    for region, tallies in by_region.items():
        if weighting == "country":
            splits = [_split_of_counts(counts, view) for counts in tallies]
            splits = [s for s in splits if s.domestic + s.international > 0]
            if not splits:
                result[region] = LocationSplit(0.0, 0.0)
                continue
            domestic = sum(s.domestic for s in splits) / len(splits)
            result[region] = LocationSplit(domestic, 1.0 - domestic)
        else:
            total = sum(
                counts[0] if view == "whois" else counts[2] for counts in tallies
            )
            domestic = sum(
                counts[1] if view == "whois" else counts[3] for counts in tallies
            )
            result[region] = _split(domestic, total)
    return result


__all__ = [
    "LocationSplit",
    "global_split",
    "country_split",
    "regional_split",
]
