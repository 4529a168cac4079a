"""Synthetic world model: countries, regions, geography, and hosting profiles.

This subpackage encodes the *published* constants the paper builds on --
the 61-country sample with its development indices (Table 9), the
per-country dataset sizes (Table 8), World Bank regions, country
geography -- plus the per-country hosting profiles that drive the
synthetic Internet generator.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.world.regions": ["Region", "Continent"],
    "repro.world.countries": [
        "Country", "COUNTRIES", "get_country", "iter_countries"],
    "repro.world.geography": ["haversine_km", "country_distance_km"],
    "repro.world.profiles": ["HostingProfile", "get_profile"],
})
