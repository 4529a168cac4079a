"""E-government DNS dependency (extension).

The paper's related work (Sommese et al. on e-government DNS
resilience; Houser et al.'s longitudinal government-DNS study) reports
a growing reliance on single third-party DNS providers.  This module
measures the same quantities over the synthetic world's authoritative
delegations: per-country third-party DNS shares, managed-DNS provider
footprints, and single-provider dependency.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.analysis.engine.index import DatasetOrIndex, ensure_index

if TYPE_CHECKING:
    from repro.datagen.generator import SyntheticWorld


@dataclasses.dataclass(frozen=True)
class DnsDependencyReport:
    """DNS-dependency summary for one country."""

    country: str
    domains: int
    third_party_share: float
    #: Largest share of the country's domains on one external provider.
    top_provider_share: float
    top_provider_asn: int


def _domains_by_country(
    world: SyntheticWorld, dataset: DatasetOrIndex
) -> dict[str, set[str]]:
    return ensure_index(dataset).domains_by_country()


def country_dns_dependency(
    world: SyntheticWorld, dataset: DatasetOrIndex
) -> dict[str, DnsDependencyReport]:
    """Per-country third-party DNS dependency over measured domains."""
    reports: dict[str, DnsDependencyReport] = {}
    for country, domains in sorted(_domains_by_country(world, dataset).items()):
        total = 0
        third_party = 0
        provider_counts: dict[int, int] = {}
        for domain in domains:
            delegation = world.nameservers.lookup(domain)
            if delegation is None:
                continue
            total += 1
            if not delegation.self_hosted:
                third_party += 1
                provider_counts[delegation.provider_asn] = (
                    provider_counts.get(delegation.provider_asn, 0) + 1
                )
        if total == 0:
            continue
        if provider_counts:
            top_asn = max(provider_counts, key=provider_counts.get)
            top_share = provider_counts[top_asn] / total
        else:
            top_asn, top_share = 0, 0.0
        reports[country] = DnsDependencyReport(
            country=country,
            domains=total,
            third_party_share=third_party / total,
            top_provider_share=top_share,
            top_provider_asn=top_asn,
        )
    return reports


def managed_dns_footprints(
    world: SyntheticWorld, dataset: DatasetOrIndex
) -> dict[int, int]:
    """Countries relying on each external DNS provider (asn -> count)."""
    per_provider: dict[int, set[str]] = {}
    for country, domains in _domains_by_country(world, dataset).items():
        for domain in domains:
            delegation = world.nameservers.lookup(domain)
            if delegation is None or delegation.self_hosted:
                continue
            per_provider.setdefault(delegation.provider_asn, set()).add(country)
    return {asn: len(countries) for asn, countries in sorted(per_provider.items())}


def global_third_party_dns_share(
    world: SyntheticWorld, dataset: DatasetOrIndex
) -> float:
    """Share of all measured government domains on third-party DNS."""
    total = 0
    third_party = 0
    for domains in _domains_by_country(world, dataset).values():
        for domain in domains:
            delegation = world.nameservers.lookup(domain)
            if delegation is None:
                continue
            total += 1
            third_party += not delegation.self_hosted
    return third_party / total if total else 0.0


__all__ = [
    "DnsDependencyReport",
    "country_dns_dependency",
    "managed_dns_footprints",
    "global_third_party_dns_share",
]
