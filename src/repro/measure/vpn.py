"""Commercial-VPN vantage points.

The study accesses every government site from *within* the target
country through NordVPN, Surfshark or Hotspot Shield exits (Sections
3.2 and 4.1), and validates the claimed VPN location with the same
geolocation machinery used for servers.  A vantage point here is an
exit location (capital city of the target country) tied to the VPN
provider Table 9 lists for that country.

Every scan connects at the capital exit (:meth:`VpnCatalog.vantage_for`).
Another in-country exit would measure the same bytes: geo-blocking and
geolocation read the exit's country, and only geo-DNS answers read its
coordinates, which within one country almost never pick another PoP.
Countries with several cities still expose alternate exits of the same
provider (:meth:`VpnCatalog.vantages_of`) so the fault layer can move a
scan whose exit keeps refusing connections to the second one
(:meth:`VpnCatalog.fallback_vantage`).  Lookups for unknown countries
raise :class:`UnknownVantageError` naming the country and listing what
*is* available, instead of a bare ``KeyError``.
"""

from __future__ import annotations

import dataclasses

from repro.world.cities import capital_of, cities_of
from repro.world.countries import COUNTRIES


class UnknownVantageError(KeyError):
    """No vantage exists for the requested country.

    Raised with a message naming the offending country code and listing
    the countries that do have one, so a lookup of a bad vantage fails
    with context instead of a raw lookup error.  Derives from
    :class:`KeyError` so existing ``except KeyError`` call sites keep
    working.
    """

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.message


@dataclasses.dataclass(frozen=True)
class VantagePoint:
    """A VPN exit inside a target country."""

    country: str
    provider: str
    city: str
    lat: float
    lon: float

    @property
    def coordinates(self) -> tuple[float, float]:
        return (self.lat, self.lon)


class VpnCatalog:
    """Hands out the vantage point used for each sample country."""

    def __init__(self) -> None:
        self._vantages: dict[str, VantagePoint] = {}
        #: Per-country exit list (primary first, then alternates in city
        #: declaration order), memoized by :meth:`vantages_of`.
        self._exits: dict[str, tuple[VantagePoint, ...]] = {}
        for code, country in COUNTRIES.items():
            capital = capital_of(code)
            self._vantages[code] = VantagePoint(
                country=code,
                provider=country.vpn_provider,
                city=capital.name,
                lat=capital.lat,
                lon=capital.lon,
            )

    def _require(self, country_code: str) -> str:
        code = country_code.upper()
        if code not in self._vantages:
            raise UnknownVantageError(
                f"no VPN vantage for country {code!r}; "
                f"{len(self._vantages)} countries available: "
                f"{', '.join(sorted(self._vantages))}"
            )
        return code

    def vantages_of(self, country_code: str) -> tuple[VantagePoint, ...]:
        """Every exit of ``country_code``'s provider, primary first.

        The primary is the capital exit :meth:`vantage_for` returns;
        alternates follow in the country's city declaration order.
        """
        code = self._require(country_code)
        exits = self._exits.get(code)
        if exits is None:
            primary = self._vantages[code]
            alternates = tuple(
                VantagePoint(
                    country=code,
                    provider=primary.provider,
                    city=city.name,
                    lat=city.lat,
                    lon=city.lon,
                )
                for city in cities_of(code)
                if city.name != primary.city
            )
            exits = (primary,) + alternates
            self._exits[code] = exits
        return exits

    def vantage_for(self, country_code: str) -> VantagePoint:
        """The in-country VPN exit for ``country_code``."""
        return self._vantages[self._require(country_code)]

    def fallback_vantage(self, country_code: str) -> VantagePoint:
        """An alternate in-country exit for when the capital exit is down.

        VPN providers run exits in several cities of popular countries;
        when the capital exit keeps refusing connections the fault layer
        re-selects the provider's second exit of the country.  A country
        with one exit falls back to it (the retry policy is the only
        recovery there).
        """
        exits = self.vantages_of(country_code)
        return exits[1] if len(exits) > 1 else exits[0]

    def provider_usage(self) -> dict[str, int]:
        """Number of countries reached through each VPN provider.

        The paper reports NordVPN (49), Surfshark (10) and Hotspot
        Shield (2).
        """
        usage: dict[str, int] = {}
        for vantage in self._vantages.values():
            usage[vantage.provider] = usage.get(vantage.provider, 0) + 1
        return usage

    def validate_location(self, vantage: VantagePoint) -> bool:
        """Sanity-check that the vantage's coordinates lie in its country.

        Mirrors footnote 2 of the paper (validating claimed VPN server
        locations); in the simulator exits are placed at capitals, so this
        is a consistency check of the catalog itself.
        """
        capital = capital_of(vantage.country)
        return abs(capital.lat - vantage.lat) < 1e-6 and abs(capital.lon - vantage.lon) < 1e-6

    def __len__(self) -> int:
        return len(self._vantages)


__all__ = ["UnknownVantageError", "VantagePoint", "VpnCatalog"]
