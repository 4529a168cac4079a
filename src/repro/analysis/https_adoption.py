"""HTTPS adoption on government sites (extension).

Reproduces the flavour of Singanamalla et al. ("Accept the Risk and
Continue", IMC 2020), which the paper builds on: a large share of
government sites worldwide lacks valid HTTPS, and adoption tracks
digital development.  Measured over the synthetic world's certificate
store and the crawled hostname set.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Optional

from repro.analysis.engine.index import DatasetOrIndex, underlying_dataset
from repro.world.countries import get_country

if TYPE_CHECKING:
    from repro.datagen.generator import SyntheticWorld


@dataclasses.dataclass(frozen=True)
class HttpsReport:
    """HTTPS posture of one country's government hostnames."""

    country: str
    hostnames: int
    with_certificate: float
    with_valid_certificate: float
    egdi: Optional[float]


def country_https_adoption(
    world: SyntheticWorld, dataset: DatasetOrIndex
) -> dict[str, HttpsReport]:
    """Per-country certificate and validity rates over measured hostnames."""
    dataset = underlying_dataset(dataset)
    reports: dict[str, HttpsReport] = {}
    for code, country_dataset in sorted(dataset.countries.items()):
        hostnames = country_dataset.hostnames
        if not hostnames:
            continue
        have = 0
        valid = 0
        for hostname in hostnames:
            certificate = world.certificates.get(hostname)
            if certificate is None:
                continue
            have += 1
            valid += certificate.valid
        count = len(hostnames)
        reports[code] = HttpsReport(
            country=code,
            hostnames=count,
            with_certificate=have / count if count else 0.0,
            with_valid_certificate=valid / count if count else 0.0,
            egdi=get_country(code).egdi,
        )
    return reports


def global_https_prevalence(
    world: SyntheticWorld, dataset: DatasetOrIndex
) -> tuple[float, float]:
    """(certificate rate, valid-certificate rate) over all hostnames.

    Hostname sets are memoized on each ``CountryDataset``, so repeated
    calls (and the paper report) never rebuild them from the host
    tables.
    """
    total = have = valid = 0
    dataset = underlying_dataset(dataset)
    for country_dataset in dataset.countries.values():
        for hostname in country_dataset.hostnames:
            total += 1
            certificate = world.certificates.get(hostname)
            if certificate is None:
                continue
            have += 1
            valid += certificate.valid
    if total == 0:
        return (0.0, 0.0)
    return (have / total, valid / total)


def https_development_correlation(
    world: SyntheticWorld, dataset: DatasetOrIndex
) -> float:
    """Pearson correlation between EGDI and valid-HTTPS rates."""
    import math

    pairs = [
        (report.egdi, report.with_valid_certificate)
        for report in country_https_adoption(world, dataset).values()
        if report.egdi is not None and report.hostnames >= 3
    ]
    if len(pairs) < 3:
        raise ValueError("not enough countries for a correlation")
    xs, ys = zip(*pairs)
    n = len(pairs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


__all__ = [
    "HttpsReport",
    "country_https_adoption",
    "global_https_prevalence",
    "https_development_correlation",
]
