"""Hosting-category classification (Section 5.1).

Combines the phase-1 government-ownership verdict with the run's
provider footprint to sort every (government, serving AS) pair into the
four categories:

* ``Govt&SOE`` -- the operator is government-owned (Section 3.4);
* ``3P Global`` -- a network serving governments across multiple
  continents;
* ``3P Local`` -- registered in the same country as the government it
  serves;
* ``3P Regional`` -- registered elsewhere, footprint within one
  continent.

The Global test uses the *observed* footprint -- the set of continents
of the governments an AS serves in the collected dataset -- mirroring
the paper's operational definition.
"""

from __future__ import annotations

import dataclasses

from repro.categories import HostingCategory
from repro.world.countries import COUNTRIES
from repro.world.regions import Continent


@dataclasses.dataclass
class ProviderFootprint:
    """Observed continental footprint of every serving AS.

    A plain set-union monoid (identity: ``ProviderFootprint()``), so
    per-country footprints collected by parallel pipeline shards merge
    into the global footprint in any grouping or order.  Picklable, so
    process workers can ship their shard's footprint back to the driver.
    """

    continents_by_asn: dict[int, set[Continent]] = dataclasses.field(
        default_factory=dict
    )

    def observe(self, asn: int, government_country: str) -> None:
        """Record that ``asn`` serves the government of a country."""
        country = COUNTRIES.get(government_country.upper())
        if country is None:
            return
        self.continents_by_asn.setdefault(asn, set()).add(country.continent)

    def continents(self, asn: int) -> frozenset[Continent]:
        """Continents of the governments ``asn`` serves."""
        return frozenset(self.continents_by_asn.get(asn, ()))

    def merge(self, other: "ProviderFootprint") -> "ProviderFootprint":
        """Union of two footprints (leaves both operands untouched)."""
        merged = {asn: set(continents)
                  for asn, continents in self.continents_by_asn.items()}
        for asn, continents in other.continents_by_asn.items():
            merged.setdefault(asn, set()).update(continents)
        return ProviderFootprint(continents_by_asn=merged)

    def __add__(self, other: "ProviderFootprint") -> "ProviderFootprint":
        if not isinstance(other, ProviderFootprint):
            return NotImplemented
        return self.merge(other)

    def __len__(self) -> int:
        return len(self.continents_by_asn)


def categorize(
    gov_operated: bool,
    asn: int,
    registered_country: str,
    government_country: str,
    footprint: ProviderFootprint,
) -> HostingCategory:
    """Category of one (government, serving AS) pair.

    ``gov_operated`` is the phase-1 ownership verdict for the serving
    AS; ``footprint`` is the run's merged footprint, so the Global test
    sees every government the AS serves in the collected dataset.
    """
    if gov_operated:
        return HostingCategory.GOVT_SOE
    if len(footprint.continents_by_asn.get(asn, ())) >= 2:
        return HostingCategory.P3_GLOBAL
    if registered_country.upper() == government_country.upper():
        return HostingCategory.P3_LOCAL
    return HostingCategory.P3_REGIONAL


__all__ = ["ProviderFootprint", "categorize"]
