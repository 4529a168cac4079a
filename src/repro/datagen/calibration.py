"""Calibration verification: measured dataset vs profile targets.

The generator promises that a pipeline run over its world reproduces
the per-country hosting profiles (which in turn encode the paper's
findings).  This module quantifies that promise: per-country deviations
between measured category mixes / offshore shares and their profile
targets, aggregated into a report that tests and benchmarks assert on.

Deviations shrink with ``WorldConfig.scale`` (quantization: a country
with three sites cannot hit a 12% share exactly) and with measurement
noise (excluded addresses), so thresholds are scale-aware.
"""

from __future__ import annotations

import dataclasses
import statistics

from repro.analysis.hosting import fractions_of_counts
from repro.categories import HostingCategory
from repro.core.dataset import GovernmentHostingDataset
from repro.world.profiles import HostingProfile, drift_profile, get_profile


@dataclasses.dataclass(frozen=True)
class CountryCalibration:
    """Deviation of one country's measurements from its profile."""

    country: str
    sites: int
    #: Maximum absolute deviation across the four URL-mix shares.
    url_mix_error: float
    #: Maximum absolute deviation across the four byte-mix shares.
    byte_mix_error: float
    #: Absolute deviation of the offshore URL share.
    intl_error: float


@dataclasses.dataclass(frozen=True)
class CalibrationReport:
    """Aggregate calibration quality over a measured dataset."""

    countries: dict[str, CountryCalibration]

    @property
    def mean_url_mix_error(self) -> float:
        return statistics.mean(c.url_mix_error for c in self.countries.values())

    @property
    def mean_intl_error(self) -> float:
        return statistics.mean(c.intl_error for c in self.countries.values())

    def worst(self, count: int = 5) -> list[CountryCalibration]:
        """The countries furthest from their targets (by URL-mix error)."""
        ranked = sorted(
            self.countries.values(), key=lambda c: -c.url_mix_error
        )
        return ranked[:count]


def _mix_error(
    measured: dict[HostingCategory, float], target: dict[HostingCategory, float]
) -> float:
    return max(
        abs(measured[category] - target[category]) for category in HostingCategory
    )


def country_calibration(
    dataset: GovernmentHostingDataset,
    code: str,
    profile: HostingProfile,
) -> CountryCalibration:
    """Deviation of one country from a given profile.

    One pass over the host table's URL rows tallies each category's URLs
    and bytes, the located URLs and those located abroad.
    """
    country_dataset = dataset.countries[code]
    table = country_dataset.host_table
    categories = {category: i for i, category in enumerate(HostingCategory)}
    url_counts = [0] * len(categories)
    byte_sums = [0] * len(categories)
    located = abroad = 0
    hosts = table.hosts
    for (_, _, size_bytes, _, _), host in zip(table.urls, table.host_index):
        row = hosts[host]
        position = categories[row.category]
        url_counts[position] += 1
        byte_sums[position] += size_bytes
        if row.server_country is not None:
            located += 1
            abroad += row.server_country != code
    measured_intl = abroad / located if located else 0.0
    return CountryCalibration(
        country=code,
        sites=len(country_dataset.hostnames),
        url_mix_error=_mix_error(fractions_of_counts(url_counts),
                                 profile.url_mix),
        byte_mix_error=_mix_error(fractions_of_counts(byte_sums),
                                  profile.byte_mix),
        intl_error=abs(measured_intl - profile.intl_server_frac),
    )


def calibrate(
    dataset: GovernmentHostingDataset, drift: float = 0.0
) -> CalibrationReport:
    """Compare every measured country against its (possibly drifted) profile."""
    countries: dict[str, CountryCalibration] = {}
    for code, country_dataset in sorted(dataset.countries.items()):
        if not country_dataset.url_count:
            continue
        profile = get_profile(code)
        if drift > 0:
            profile = drift_profile(profile, drift)
        countries[code] = country_calibration(dataset, code, profile)
    return CalibrationReport(countries=countries)


__all__ = ["CountryCalibration", "CalibrationReport", "country_calibration",
           "calibrate"]
