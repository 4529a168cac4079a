"""Per-country hosting profiles that calibrate the synthetic world.

The generator needs to decide, for every synthetic government hostname,
which category of network serves it, where the serving infrastructure is
located and how concentrated the provider market is.  These decisions
are drawn from a :class:`HostingProfile` per country.

Profiles are calibrated from numbers the paper itself reports:

* regional category mixes for URLs and bytes (Figure 4a/4b),
* regional domestic/international server-location splits (Figure 8b),
* explicit country findings (e.g. Argentina ~90% third party, Uruguay
  98% Govt&SOE bytes, Italy 93% 3P Local, Mexico 79% of URLs served
  from the US, China 26% from Japan, New Zealand 40% from Australia,
  Morocco 30% from France, France 18% from New Caledonia, Hetzner
  serving 57% of a Scandinavian country's bytes, ...).

The measurement pipeline never reads these profiles -- it re-derives all
statistics from the generated Internet via the same steps the paper
describes, so profile-vs-measured comparisons are meaningful.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.categories import HostingCategory
from repro.world.countries import COUNTRIES, get_country
from repro.world.regions import Region

_G = HostingCategory.GOVT_SOE
_L = HostingCategory.P3_LOCAL
_R = HostingCategory.P3_REGIONAL
_GL = HostingCategory.P3_GLOBAL

Mix = dict[HostingCategory, float]


def _mix(g: float, local: float, glob: float, regional: float) -> Mix:
    """Build a normalized category mix from the four shares."""
    total = g + local + glob + regional
    if total <= 0:
        raise ValueError("mix must have positive mass")
    return {_G: g / total, _L: local / total, _GL: glob / total, _R: regional / total}


#: Regional URL category mixes (Figure 4a).
REGION_URL_MIX: dict[Region, Mix] = {
    Region.SSA: _mix(0.01, 0.46, 0.39, 0.14),
    Region.ECA: _mix(0.24, 0.46, 0.28, 0.02),
    Region.NA: _mix(0.25, 0.17, 0.58, 0.00),
    Region.LAC: _mix(0.41, 0.25, 0.30, 0.03),
    Region.MENA: _mix(0.43, 0.10, 0.47, 0.00),
    Region.EAP: _mix(0.48, 0.35, 0.14, 0.02),
    Region.SA: _mix(0.80, 0.09, 0.11, 0.01),
}

#: Regional byte category mixes (Figure 4b).
REGION_BYTE_MIX: dict[Region, Mix] = {
    Region.SSA: _mix(0.005, 0.48, 0.34, 0.17),
    Region.ECA: _mix(0.18, 0.61, 0.19, 0.02),
    Region.NA: _mix(0.22, 0.10, 0.68, 0.00),
    Region.LAC: _mix(0.27, 0.30, 0.41, 0.01),
    Region.EAP: _mix(0.50, 0.26, 0.22, 0.02),
    Region.MENA: _mix(0.71, 0.03, 0.26, 0.00),
    Region.SA: _mix(0.95, 0.02, 0.03, 0.00),
}

#: Regional fraction of URLs served from abroad (1 - domestic of Figure 8b).
REGION_INTL_SERVER_FRAC: dict[Region, float] = {
    Region.SSA: 0.48,
    Region.MENA: 0.26,
    Region.LAC: 0.20,
    Region.ECA: 0.15,
    Region.SA: 0.06,
    Region.EAP: 0.04,
    Region.NA: 0.02,
}

#: Default foreign-hosting partner weights per region, shaped to reproduce
#: Table 5 (share of cross-border dependencies remaining in-region) and the
#: regional-affinity findings of Section 6.3.
REGION_PARTNERS: dict[Region, dict[str, float]] = {
    # NA: 59.89% in-region; cross-border NA traffic flows mostly US<->CA.
    Region.NA: {"US": 0.45, "CA": 0.15, "DE": 0.15, "IE": 0.15, "GB": 0.10},
    # LAC: only 3.41% in-region; the US dominates (Mexico, Costa Rica).
    Region.LAC: {"US": 0.88, "BR": 0.03, "DE": 0.05, "FR": 0.04},
    # ECA: 94.87% in-region; Germany hosts 36% of the in-region share.
    Region.ECA: {
        "DE": 0.34, "FR": 0.12, "NL": 0.12, "GB": 0.09, "IE": 0.08,
        "AT": 0.06, "SK": 0.04, "FI": 0.04, "CZ": 0.03, "PL": 0.03, "US": 0.05,
    },
    # MENA: 0% in-region; relies on Western Europe.
    Region.MENA: {"FR": 0.45, "DE": 0.25, "GB": 0.15, "US": 0.15},
    # SSA: 2.95% in-region, all of it hosted by South Africa.
    Region.SSA: {"DE": 0.30, "FR": 0.20, "GB": 0.15, "US": 0.32, "ZA": 0.03},
    # SA: 0% in-region; US and Europe.
    Region.SA: {"US": 0.60, "DE": 0.20, "SG": 0.0, "GB": 0.20},
    # EAP: 80.79% in-region; Japan hosts ~60% of the in-region share.
    Region.EAP: {"JP": 0.48, "SG": 0.18, "AU": 0.10, "HK": 0.05, "US": 0.19},
}


@dataclasses.dataclass(frozen=True)
class HostingProfile:
    """Calibration knobs for one country's synthetic hosting landscape."""

    country: str
    #: Target category mix by URL count.
    url_mix: Mix
    #: Target category mix by bytes.
    byte_mix: Mix
    #: Target fraction of URLs served from servers located abroad.
    intl_server_frac: float
    #: Weights over foreign country codes for offshore server locations.
    partners: dict[str, float]
    #: Optional hard preference for specific global providers
    #: (provider key -> weight); merged with seeded defaults.
    provider_overrides: dict[str, float] = dataclasses.field(default_factory=dict)
    #: Number of distinct government/SOE networks.
    gov_network_count: int = 2
    #: Number of distinct local commercial hosting networks.
    local_provider_count: int = 3
    #: Zipf-like skew across networks within a category; larger values mean
    #: a single network dominates (drives the HHI analysis of Section 7.2).
    concentration: float = 1.2
    #: Fraction of third-party *global* deployments served via IP anycast.
    anycast_frac: float = 0.35
    #: Size multiplier applied to objects of foreign-served sites (lets a
    #: country's offshore bytes exceed its offshore URL share, as with
    #: Hetzner serving 57% of a Scandinavian government's bytes).
    foreign_byte_boost: float = 1.0

    def dominant_category(self, by_bytes: bool = True) -> HostingCategory:
        """The category serving the largest share (bytes by default)."""
        mix = self.byte_mix if by_bytes else self.url_mix
        return max(mix, key=lambda cat: mix[cat])


def _derive_byte_mix(url_mix: Mix, region: Region) -> Mix:
    """Shift a URL mix toward the regional byte tendency.

    Bytes and URLs differ because average object sizes differ per
    category; we reuse the regional URL->byte ratio as the default
    distortion, then normalize.
    """
    url_region = REGION_URL_MIX[region]
    byte_region = REGION_BYTE_MIX[region]
    raw = {}
    for cat, share in url_mix.items():
        ratio = byte_region[cat] / url_region[cat] if url_region[cat] > 0 else 1.0
        raw[cat] = share * ratio
    total = sum(raw.values())
    return {cat: val / total for cat, val in raw.items()}


@dataclasses.dataclass(frozen=True)
class _Override:
    """Country-specific calibration values (paper-reported findings)."""

    url_mix: Optional[Mix] = None
    byte_mix: Optional[Mix] = None
    intl: Optional[float] = None
    partners: Optional[dict[str, float]] = None
    providers: Optional[dict[str, float]] = None
    gov_networks: Optional[int] = None
    local_providers: Optional[int] = None
    concentration: Optional[float] = None
    anycast_frac: Optional[float] = None
    foreign_byte_boost: Optional[float] = None


_OVERRIDES: dict[str, _Override] = {
    # --- North America ---------------------------------------------------
    "US": _Override(url_mix=_mix(0.27, 0.18, 0.55, 0.00),
                    byte_mix=_mix(0.24, 0.11, 0.65, 0.00),
                    intl=0.02, gov_networks=14, local_providers=10,
                    concentration=0.9),
    # Canada relies on Global Providers for 79% of its bytes (Section 5.3).
    "CA": _Override(url_mix=_mix(0.16, 0.12, 0.72, 0.00),
                    byte_mix=_mix(0.13, 0.08, 0.79, 0.00),
                    intl=0.05, partners={"US": 0.95, "DE": 0.05},
                    gov_networks=4, concentration=0.9),
    # --- Latin America ----------------------------------------------------
    # Argentina relies ~90% on third parties, predominantly global (S1, S5.3).
    "AR": _Override(url_mix=_mix(0.10, 0.16, 0.71, 0.03),
                    byte_mix=_mix(0.11, 0.14, 0.72, 0.03),
                    intl=0.22, partners={"US": 0.90, "BR": 0.10},
                    concentration=0.8,
                    providers={"cloudflare": 4.0, "amazon": 1.5}),
    # Uruguay: 98% of bytes from Govt&SOE (ANTEL; Section 5.3 and Table 2).
    "UY": _Override(url_mix=_mix(0.94, 0.03, 0.03, 0.00),
                    byte_mix=_mix(0.98, 0.01, 0.01, 0.00),
                    intl=0.02, gov_networks=1, concentration=2.5),
    # Brazil: Govt&SOE-dominant, only 1.78% of URLs served from the US (S6.3).
    "BR": _Override(url_mix=_mix(0.62, 0.22, 0.14, 0.02),
                    byte_mix=_mix(0.68, 0.18, 0.13, 0.01),
                    intl=0.022, partners={"US": 0.85, "DE": 0.15},
                    gov_networks=5, concentration=1.6),
    # Chile: 3P Local dominant (Section 5.3).
    "CL": _Override(url_mix=_mix(0.14, 0.60, 0.23, 0.03),
                    byte_mix=_mix(0.12, 0.58, 0.27, 0.03),
                    intl=0.12, concentration=1.0, local_providers=6),
    # Mexico: 79.22% of government URLs served from the US (Section 6.3).
    "MX": _Override(url_mix=_mix(0.12, 0.08, 0.78, 0.02),
                    byte_mix=_mix(0.14, 0.08, 0.76, 0.02),
                    intl=0.7922, partners={"US": 0.985, "DE": 0.015},
                    concentration=0.9),
    # Costa Rica: 49.70% of URLs served from the US (Section 6.3).
    "CR": _Override(url_mix=_mix(0.20, 0.22, 0.56, 0.02),
                    byte_mix=_mix(0.18, 0.20, 0.60, 0.02),
                    intl=0.497, partners={"US": 0.97, "DE": 0.03}),
    "BO": _Override(url_mix=_mix(0.18, 0.22, 0.57, 0.03),
                    byte_mix=_mix(0.15, 0.20, 0.62, 0.03),
                    intl=0.25, partners={"US": 0.83, "DE": 0.07, "FR": 0.05,
                                         "CO": 0.05},
                    providers={"cloudflare": 5.0},
                    concentration=1.0),
    "PY": _Override(url_mix=_mix(0.35, 0.42, 0.21, 0.02),
                    intl=0.15, partners={"US": 0.85, "BR": 0.05, "CO": 0.05,
                                         "DE": 0.05}),
    # --- Europe and Central Asia ------------------------------------------
    # Spain: 64% Govt&SOE (Section 5.3).
    "ES": _Override(url_mix=_mix(0.64, 0.21, 0.14, 0.01),
                    byte_mix=_mix(0.66, 0.21, 0.12, 0.01),
                    intl=0.08, gov_networks=4),
    # Italy: 93% 3P Local (Section 5.3).
    "IT": _Override(url_mix=_mix(0.04, 0.93, 0.03, 0.00),
                    byte_mix=_mix(0.04, 0.93, 0.03, 0.00),
                    intl=0.03, local_providers=5, concentration=1.5),
    # Netherlands: 41% 3P Global (Section 5.3).
    "NL": _Override(url_mix=_mix(0.29, 0.29, 0.41, 0.01),
                    byte_mix=_mix(0.30, 0.28, 0.41, 0.01),
                    intl=0.09, partners={"DE": 0.45, "IE": 0.25, "US": 0.15,
                                         "BR": 0.08, "KR": 0.07},
                    gov_networks=5, local_providers=8, concentration=0.9),
    # France: 42% of bytes from Global providers; 18.03% of URLs served from
    # New Caledonia by the state-owned OPT (Section 6.3).
    "FR": _Override(url_mix=_mix(0.30, 0.38, 0.30, 0.02),
                    byte_mix=_mix(0.31, 0.25, 0.42, 0.02),
                    intl=0.1803, partners={"NC": 1.0},
                    gov_networks=4, concentration=1.0),
    "DE": _Override(url_mix=_mix(0.30, 0.45, 0.23, 0.02),
                    byte_mix=_mix(0.24, 0.55, 0.19, 0.02),
                    intl=0.07, gov_networks=6, local_providers=8,
                    providers={"hetzner": 2.0}, concentration=0.9),
    "GB": _Override(url_mix=_mix(0.18, 0.22, 0.58, 0.02),
                    byte_mix=_mix(0.15, 0.20, 0.63, 0.02),
                    intl=0.12, partners={"IE": 0.55, "DE": 0.20, "NL": 0.15,
                                         "US": 0.10},
                    concentration=0.85),
    # Russia: Govt&SOE dominant; ~70% hosted within Russia pre-conflict and
    # increasingly domestic (Jonker et al., confirmed by this paper).
    "RU": _Override(url_mix=_mix(0.62, 0.30, 0.07, 0.01),
                    byte_mix=_mix(0.66, 0.28, 0.05, 0.01),
                    intl=0.10, gov_networks=4, concentration=1.6),
    "SE": _Override(url_mix=_mix(0.52, 0.30, 0.17, 0.01),
                    intl=0.08),
    "RO": _Override(url_mix=_mix(0.55, 0.30, 0.14, 0.01),
                    intl=0.09),
    "RS": _Override(url_mix=_mix(0.58, 0.28, 0.13, 0.01),
                    intl=0.10),
    # Hetzner delivers 57% of a Scandinavian government's bytes (Section
    # 7.1); Hetzner operates no Norwegian region, so that share is served
    # from its German/Finnish data centers.
    "NO": _Override(url_mix=_mix(0.16, 0.22, 0.60, 0.02),
                    byte_mix=_mix(0.12, 0.18, 0.68, 0.02),
                    intl=0.24, partners={"DE": 0.80, "FI": 0.20},
                    providers={"hetzner": 12.0, "cloudflare": 1.0},
                    concentration=1.4, anycast_frac=0.08,
                    foreign_byte_boost=5.0),
    # Moldova: Cloudflare serves 72% of bytes of an Eastern European country.
    "MD": _Override(url_mix=_mix(0.12, 0.18, 0.68, 0.02),
                    byte_mix=_mix(0.10, 0.16, 0.72, 0.02),
                    intl=0.22, providers={"cloudflare": 9.0},
                    concentration=1.3),
    "CH": _Override(url_mix=_mix(0.25, 0.25, 0.48, 0.02), intl=0.10,
                    gov_networks=3),
    "GE": _Override(url_mix=_mix(0.15, 0.25, 0.58, 0.02),
                    byte_mix=_mix(0.14, 0.26, 0.58, 0.02),
                    intl=0.20, providers={"cloudflare": 8.0},
                    concentration=1.2),
    "GR": _Override(url_mix=_mix(0.22, 0.26, 0.50, 0.02), intl=0.12),
    "AL": _Override(url_mix=_mix(0.18, 0.28, 0.52, 0.02), intl=0.18),
    "BA": _Override(url_mix=_mix(0.20, 0.26, 0.52, 0.02), intl=0.16),
    "DK": _Override(url_mix=_mix(0.20, 0.22, 0.56, 0.02), intl=0.10),
    "TR": _Override(url_mix=_mix(0.30, 0.52, 0.17, 0.01), intl=0.08,
                    gov_networks=4),
    "UA": _Override(url_mix=_mix(0.22, 0.52, 0.24, 0.02), intl=0.14),
    "PL": _Override(url_mix=_mix(0.24, 0.52, 0.22, 0.02), intl=0.08),
    "KZ": _Override(url_mix=_mix(0.34, 0.50, 0.15, 0.01), intl=0.07,
                    gov_networks=2),
    # Belgium and Hungary contribute ~40% of all URLs in the dataset
    # (Table 8); their Govt&SOE-leaning mixes pull the global URL-weighted
    # aggregate toward the paper's Figure 2 (39% Govt&SOE).
    "HU": _Override(url_mix=_mix(0.50, 0.32, 0.16, 0.02),
                    byte_mix=_mix(0.56, 0.30, 0.12, 0.02),
                    intl=0.08, gov_networks=3, concentration=1.4),
    "CZ": _Override(url_mix=_mix(0.22, 0.56, 0.20, 0.02), intl=0.09),
    "PT": _Override(url_mix=_mix(0.24, 0.52, 0.22, 0.02), intl=0.10),
    "BE": _Override(url_mix=_mix(0.48, 0.32, 0.18, 0.02),
                    byte_mix=_mix(0.54, 0.31, 0.13, 0.02),
                    intl=0.11, gov_networks=4, concentration=1.3),
    "BG": _Override(url_mix=_mix(0.22, 0.54, 0.22, 0.02), intl=0.12),
    "EE": _Override(url_mix=_mix(0.24, 0.52, 0.22, 0.02), intl=0.08),
    "LV": _Override(url_mix=_mix(0.20, 0.56, 0.22, 0.02), intl=0.10),
    # --- Middle East and North Africa --------------------------------------
    # Morocco: 48.38% of URLs on foreign servers, 29.82% in France (S6.3).
    "MA": _Override(url_mix=_mix(0.28, 0.10, 0.61, 0.01),
                    byte_mix=_mix(0.42, 0.05, 0.52, 0.01),
                    intl=0.4838, partners={"FR": 0.62, "DE": 0.20, "GB": 0.10,
                                           "US": 0.08}),
    # Egypt: 21.1% foreign (Section 6.3); Govt&SOE dominant.
    "EG": _Override(url_mix=_mix(0.56, 0.10, 0.33, 0.01),
                    byte_mix=_mix(0.76, 0.03, 0.21, 0.00),
                    intl=0.211, gov_networks=3, concentration=1.8),
    # Algeria: 18.62% foreign (Section 6.3); Govt&SOE dominant.
    "DZ": _Override(url_mix=_mix(0.58, 0.10, 0.31, 0.01),
                    byte_mix=_mix(0.78, 0.03, 0.19, 0.00),
                    intl=0.1862, gov_networks=2, concentration=2.0),
    "AE": _Override(url_mix=_mix(0.52, 0.10, 0.38, 0.00),
                    byte_mix=_mix(0.72, 0.03, 0.25, 0.00),
                    intl=0.12, gov_networks=3, concentration=1.7),
    "IL": _Override(url_mix=_mix(0.45, 0.12, 0.43, 0.00),
                    byte_mix=_mix(0.60, 0.05, 0.35, 0.00),
                    intl=0.14),
    # --- Sub-Saharan Africa -------------------------------------------------
    "NG": _Override(url_mix=_mix(0.01, 0.40, 0.45, 0.14),
                    byte_mix=_mix(0.005, 0.44, 0.38, 0.175),
                    intl=0.52, partners={"DE": 0.28, "FR": 0.18, "GB": 0.16,
                                         "US": 0.32, "ZA": 0.06},
                    gov_networks=1, concentration=0.9),
    "ZA": _Override(url_mix=_mix(0.01, 0.52, 0.33, 0.14),
                    byte_mix=_mix(0.005, 0.52, 0.30, 0.175),
                    intl=0.44, partners={"DE": 0.32, "FR": 0.22, "GB": 0.14,
                                         "US": 0.32},
                    gov_networks=1, concentration=0.9),
    # --- South Asia ----------------------------------------------------------
    # India: 99.3% of URLs served domestically (Section 6.3); NIC hosting.
    "IN": _Override(url_mix=_mix(0.86, 0.06, 0.08, 0.00),
                    byte_mix=_mix(0.97, 0.01, 0.02, 0.00),
                    intl=0.007, gov_networks=3, concentration=2.2),
    "BD": _Override(url_mix=_mix(0.76, 0.12, 0.11, 0.01),
                    byte_mix=_mix(0.93, 0.03, 0.04, 0.00),
                    intl=0.09, partners={"US": 0.57, "DE": 0.20, "GB": 0.20,
                                         "NP": 0.03},
                    gov_networks=2, concentration=2.0),
    "PK": _Override(url_mix=_mix(0.70, 0.12, 0.17, 0.01),
                    byte_mix=_mix(0.90, 0.04, 0.06, 0.00),
                    intl=0.12, gov_networks=2, concentration=1.9),
    # --- East Asia and Pacific ------------------------------------------------
    # China: 26.4% of URLs hosted by third-party providers in Japan (S6.3);
    # domestic-registered providers with offshore (Japanese) serving sites
    # carry most of that mass.
    "CN": _Override(url_mix=_mix(0.50, 0.33, 0.13, 0.04),
                    byte_mix=_mix(0.58, 0.27, 0.12, 0.03),
                    intl=0.264, partners={"JP": 0.97, "SG": 0.03},
                    gov_networks=5, concentration=1.5),
    # Indonesia: Govt&SOE-dominant with 58% of bytes (Section 5.3).
    "ID": _Override(url_mix=_mix(0.55, 0.28, 0.15, 0.02),
                    byte_mix=_mix(0.58, 0.26, 0.14, 0.02),
                    intl=0.05, gov_networks=3, concentration=1.4),
    "VN": _Override(url_mix=_mix(0.62, 0.26, 0.11, 0.01),
                    byte_mix=_mix(0.68, 0.22, 0.09, 0.01),
                    intl=0.04, gov_networks=3, concentration=1.7),
    # Malaysia: 3P Global dominant (Section 5.3).
    "MY": _Override(url_mix=_mix(0.34, 0.33, 0.31, 0.02),
                    byte_mix=_mix(0.26, 0.28, 0.44, 0.02),
                    intl=0.06, partners={"SG": 0.75, "JP": 0.15, "US": 0.10}),
    # New Zealand: 40% of URLs served from Australia (Section 6.3).
    "NZ": _Override(url_mix=_mix(0.22, 0.32, 0.44, 0.02),
                    byte_mix=_mix(0.18, 0.26, 0.54, 0.02),
                    intl=0.40, partners={"AU": 0.97, "US": 0.03}),
    "JP": _Override(url_mix=_mix(0.44, 0.34, 0.20, 0.02),
                    byte_mix=_mix(0.44, 0.30, 0.24, 0.02),
                    intl=0.03, gov_networks=4),
    "TH": _Override(url_mix=_mix(0.44, 0.32, 0.22, 0.02),
                    intl=0.05, partners={"SG": 0.60, "JP": 0.40}),
    "AU": _Override(url_mix=_mix(0.52, 0.26, 0.21, 0.01),
                    byte_mix=_mix(0.46, 0.22, 0.31, 0.01),
                    intl=0.04, partners={"US": 0.50, "SG": 0.30, "JP": 0.20},
                    gov_networks=6, concentration=1.0),
    "TW": _Override(url_mix=_mix(0.38, 0.38, 0.22, 0.02),
                    intl=0.08, partners={"JP": 0.55, "SG": 0.45}),
    # Hong Kong: Amazon serves ~97% of an East Asian government's bytes
    # (Section 7.1); AWS operates a local region there.
    "HK": _Override(url_mix=_mix(0.08, 0.06, 0.85, 0.01),
                    byte_mix=_mix(0.02, 0.01, 0.97, 0.00),
                    intl=0.06, partners={"SG": 0.55, "JP": 0.45},
                    providers={"amazon": 25.0}, concentration=2.0,
                    anycast_frac=0.05),
    # Singapore: Cloudflare serves 56% of a small Asian country's bytes.
    "SG": _Override(url_mix=_mix(0.28, 0.32, 0.38, 0.02),
                    byte_mix=_mix(0.22, 0.20, 0.56, 0.02),
                    intl=0.05, partners={"JP": 0.70, "HK": 0.30},
                    providers={"cloudflare": 8.0}, concentration=1.3),
    "KR": _Override(url_mix=_mix(0.55, 0.30, 0.14, 0.01), intl=0.03),
}


def _scaled_network_counts(code: str) -> tuple[int, int]:
    """Default government/local network counts scaled by country size."""
    country = get_country(code)
    hosts = max(country.hostnames, 1)
    gov = max(1, min(8, hosts // 60 + 1))
    local = max(2, min(10, hosts // 45 + 2))
    return gov, local


def _development_stats() -> tuple[tuple[float, float], ...]:
    """Mean/std of (log users, NRI, log GDP) over the sample (cached)."""
    global _DEV_STATS
    if _DEV_STATS is None:
        import math
        import statistics

        log_users = [math.log(c.internet_users_m) for c in COUNTRIES.values()]
        nris = [float(c.nri) for c in COUNTRIES.values()]
        log_gdps = [math.log(c.gdp_per_capita_kusd) for c in COUNTRIES.values()]
        _DEV_STATS = tuple(
            (statistics.mean(values), statistics.pstdev(values) or 1.0)
            for values in (log_users, nris, log_gdps)
        )
    return _DEV_STATS


_DEV_STATS = None


#: Per-country residual components of (users, NRI, GDP), in
#: ``COUNTRIES`` order.  Each standardized Appendix E feature column is
#: regressed (OLS with an intercept) on the other five features
#: (IDI, EFI, GDP per capita, HDI with 0.8 for a missing value, NRI,
#: Internet users); the residual is the part of the feature not
#: explained by the rest.  Steering the offshore-hosting ground truth
#: by these residuals is what lets an OLS over the heavily collinear
#: development indices attribute the effect to the *right* features,
#: as the paper's data evidently did.  The values are checked in, so a
#: world is built from constants rather than from a linear-algebra
#: library; ``tests/world/test_profiles.py`` recomputes them.
_DEV_RESIDUALS: dict[str, tuple[float, float, float]] = {
    "US": (0.8439541539148151, 0.09388757189404662, 0.7584729957917342),
    "CA": (-0.39642519509248253, 0.3118876103567356, -0.09769517876211586),
    "RU": (-0.11658987414078187, 0.1613442480415269, -0.17607962998841858),
    "DE": (0.18297978522203268, 0.16013943347144743, -0.13673867577649246),
    "TR": (0.001827740344540976, 0.06665945933215767, -0.13590046784104548),
    "GB": (0.10266891915914741, 0.009016044213658314, 0.06377106296323276),
    "FR": (-0.577117372178082, 0.2612048541475003, -0.12228004868755626),
    "IT": (0.3158411973358653, 0.09702758218070906, 0.12923723042230154),
    "ES": (-0.2861409563160305, 0.45882025207366595, -0.2847681505818018),
    "UA": (-0.7423579795668243, 0.26098187411814977, -0.09536117473744199),
    "PL": (0.6891264891177038, -0.642889402037658, -0.20416488053247686),
    "KZ": (0.33125345133753853, -0.7010732690507637, -0.04835258320057356),
    "NL": (0.1460999080991639, 0.06730645459340856, 0.25612052456783885),
    "RO": (0.04549506324853231, -0.20132849739776304, -0.07559256329080993),
    "BE": (-0.11173930712349273, -0.23931398208163657, 0.2982681276091115),
    "SE": (-0.1744537769480718, 0.24258576768489104, -0.007532071523061568),
    "CZ": (0.027614750677232514, -0.04519854645998295, -0.44630077677451174),
    "PT": (-0.6332963636137878, 0.6475739424878991, -0.3411712645112713),
    "HU": (-0.34384942660857176, 0.2933244786621383, -0.26415608210222896),
    "CH": (0.07288009912473403, -0.2122347977588257, 1.1939529913417228),
    "GR": (-0.23284297898069217, -0.29713581523469923, -0.0767656007498736),
    "RS": (-0.40219554086192705, 0.005292686618796949, -0.4636851311811344),
    "DK": (-0.4229128615842342, 0.2830367292045488, 0.18107352523317477),
    "NO": (-0.23036576142430015, -0.4077995059978232, 1.9149570657802306),
    "BG": (0.08904733547040167, -0.33945767973259855, -0.04244475234880207),
    "GE": (-0.22844392028488864, 0.2942391159186519, -0.6323450338174996),
    "MD": (-0.40984755006816403, -0.024066716498581164, -0.09335382235652234),
    "BA": (0.008328632965133309, -0.21563767833345604, 0.14334827669306893),
    "AL": (0.7106438928481229, -0.877376853569007, 0.09844968409051036),
    "LV": (-0.1416794314806264, 0.3874974065453608, -0.46948211246442806),
    "EE": (0.49814522076642875, -0.24107394670556725, -0.4079249941899176),
    "CN": (4.148002913737454, -0.0026657217882646578, -0.2561657001289517),
    "ID": (0.8604401305372453, -0.38783521885860495, -0.13918559133192865),
    "JP": (0.2506098228869007, 0.1338955921417242, -0.5974836657717202),
    "VN": (-0.5127823412190631, 0.2885744830185577, -0.41955477944229247),
    "TH": (0.32186504319677983, -0.4566538724341481, -0.37792615238760563),
    "KR": (-0.401121198531162, 0.7652433388666715, -0.9100054151933828),
    "MY": (0.11832829784746746, -0.06226495971684659, -0.2886414224612214),
    "AU": (-0.44689747605415414, 0.2751642807870909, 0.15765502499728679),
    "TW": (-0.7125891699041917, 0.6880205371057355, -0.7553490578083553),
    "HK": (0.6192454749081864, -0.18758302753066103, -0.04359255610812318),
    "SG": (-0.17810533062621609, 0.01587905866056638, 0.7705766763416126),
    "NZ": (0.34429371847435314, -0.4233840590766954, -0.12192069696047114),
    "IN": (3.457152565973163, -0.23902046326132964, 0.14782965121706448),
    "BD": (-0.010341232515699017, -0.08116648314877217, 0.3464162390317359),
    "PK": (-0.8952198155977651, 0.4306688172282842, 0.9059950499700484),
    "EG": (-1.112061078957885, 0.43159269831318237, -0.20281632059814736),
    "DZ": (-0.5704821492657264, -0.09207904416222323, 0.5638318317920107),
    "MA": (-0.7790564783271985, 0.25688668059170394, -0.09143838569063534),
    "AE": (0.011109873296815231, -0.183937295010413, 0.5108218478070533),
    "IL": (0.3007242222170288, -0.6670622212096669, 0.8620233102473228),
    "NG": (-0.4217517109119519, -0.08228196473918503, 0.71438122282651),
    "ZA": (-0.9437201365516932, 0.46833690401922223, 0.0009320101474019626),
    "BR": (-0.31706153419696415, 0.37249603852116486, -0.31490743722573045),
    "MX": (0.020908389146642226, 0.04194206152278995, -0.2840177498418696),
    "AR": (-0.4591877803204469, -0.3059820653204913, -0.17072141896066462),
    "CL": (-0.09033063401123737, 0.40587273626511644, -0.6851475223192889),
    "BO": (-1.0801956023594177, 0.014635196868907352, 0.6216902390075388),
    "PY": (0.19234939409278928, -0.8742966406654925, 0.19833544197224817),
    "CR": (-0.16227944266105815, -0.04382701161834912, -0.20213399948579402),
    "UY": (-0.16749507766121852, -0.15640719605660444, -0.3550371627165955),
}


def _adjusted_default_intl(code: str, region_default: float) -> float:
    """Shape region-default international hosting by development drivers.

    Appendix E finds countries with more Internet users host more
    services abroad, while network readiness and GDP pull the other
    way; countries without a paper-reported value get their regional
    default modulated accordingly (by the residual feature components,
    see :data:`_DEV_RESIDUALS`).
    """
    import math

    r_users, r_nri, r_gdp = _DEV_RESIDUALS[get_country(code).code]
    factor = math.exp(1.2 * r_users - 1.4 * r_nri - 1.1 * r_gdp)
    factor = min(max(factor, 1.0 / 4.0), 4.0)
    return min(max(region_default * factor, 0.01), 0.85)


def development_z(code: str) -> tuple[float, float, float]:
    """Sample z-scores of (log Internet users, NRI, log GDP) for a country."""
    import math

    country = get_country(code)
    (mu_u, sd_u), (mu_n, sd_n), (mu_g, sd_g) = _development_stats()
    return (
        (math.log(country.internet_users_m) - mu_u) / sd_u,
        (country.nri - mu_n) / sd_n,
        (math.log(country.gdp_per_capita_kusd) - mu_g) / sd_g,
    )


#: Countries whose offshore share the paper reports explicitly (Section
#: 6.3 and Figure 8b extremes); all other overrides provide only a *base*
#: that the development drivers modulate.
_INTL_PINNED = frozenset({
    "US", "CA", "MX", "CR", "BR", "FR", "NO", "NZ", "CN", "IN",
    "EG", "DZ", "MA", "NG", "ZA", "UY",
})


def get_profile(code: str) -> HostingProfile:
    """Build the calibrated :class:`HostingProfile` for a country."""
    country = get_country(code)
    override = _OVERRIDES.get(country.code, _Override())
    url_mix = override.url_mix or dict(REGION_URL_MIX[country.region])
    if override.byte_mix is not None:
        byte_mix = override.byte_mix
    else:
        byte_mix = _derive_byte_mix(url_mix, country.region)
    if override.intl is not None and country.code in _INTL_PINNED:
        intl = override.intl
    else:
        base = (
            override.intl
            if override.intl is not None
            else REGION_INTL_SERVER_FRAC[country.region]
        )
        intl = _adjusted_default_intl(code, base)
    partners = dict(override.partners or REGION_PARTNERS[country.region])
    # A country never appears in its own partner map.
    partners.pop(country.code, None)
    default_gov, default_local = _scaled_network_counts(code)
    return HostingProfile(
        country=country.code,
        url_mix=url_mix,
        byte_mix=byte_mix,
        intl_server_frac=intl,
        partners=partners,
        provider_overrides=dict(override.providers or {}),
        gov_network_count=override.gov_networks or default_gov,
        local_provider_count=override.local_providers or default_local,
        concentration=override.concentration if override.concentration is not None else 1.2,
        anycast_frac=override.anycast_frac if override.anycast_frac is not None else 0.35,
        foreign_byte_boost=override.foreign_byte_boost or 1.0,
    )


def drift_profile(profile: HostingProfile, drift: float) -> HostingProfile:
    """Advance a profile along the global third-party trend.

    Moves ``drift`` of the Govt&SOE mass (URLs and bytes) to 3P Global
    and nudges the offshore share upward -- the direction the paper's
    longitudinal predecessor (Kumar et al. 2023) measured year over
    year.  ``drift=0`` returns the profile unchanged.
    """
    if not 0.0 <= drift <= 0.5:
        raise ValueError("drift must be within [0, 0.5]")
    if drift == 0.0:
        return profile

    def shift(mix: Mix) -> Mix:
        moved = mix[_G] * drift
        out = dict(mix)
        out[_G] = mix[_G] - moved
        out[_GL] = mix[_GL] + moved
        return out

    return dataclasses.replace(
        profile,
        url_mix=shift(profile.url_mix),
        byte_mix=shift(profile.byte_mix),
        intl_server_frac=min(0.85, profile.intl_server_frac * (1 + drift)),
    )


def all_profiles() -> dict[str, HostingProfile]:
    """Profiles for every country in the sample."""
    return {code: get_profile(code) for code in COUNTRIES}


__all__ = [
    "HostingProfile",
    "Mix",
    "REGION_URL_MIX",
    "REGION_BYTE_MIX",
    "REGION_INTL_SERVER_FRAC",
    "REGION_PARTNERS",
    "get_profile",
    "all_profiles",
]
