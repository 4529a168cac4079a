"""Generator configuration.

The defaults encode the error and coverage rates the paper reports for
its measurement inputs (IPInfo accuracy, ICMP responsiveness, PTR and
IPmap coverage, PeeringDB coverage).  ``scale`` shrinks the dataset for
quick runs; ``scale=1.0`` approximates the paper's full dataset size
(15,878 landing URLs, ~1M internal URLs).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Sequence


@dataclasses.dataclass(frozen=True)
class CountryOverride:
    """Per-country deviations from the base world (evolution deltas).

    Each field perturbs exactly one country's slice of the world; a
    country without an override (or with an all-default one) generates
    byte-identically to the base configuration.  The evolution model
    (:mod:`repro.evolve`) composes these across snapshot steps.
    """

    country: str
    #: (provider key, weight multiplier) pairs applied to the country's
    #: global-provider adoption weights; a multiplier above 1 also
    #: force-adopts a provider the base draw skipped.
    provider_tilt: tuple[tuple[str, float], ...] = ()
    #: Share of the remaining Govt&SOE/local mix migrated to 3P Global
    #: hosting (sites moving to hyperscalers), composed on top of the
    #: world-wide ``third_party_drift``.
    hyperscaler_shift: float = 0.0
    #: Additional state-owned-enterprise networks beyond the profile's.
    extra_soes: int = 0
    #: Prefix registration epoch: bumping it re-registers the country's
    #: address space in a fresh block range.
    prefix_epoch: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.hyperscaler_shift <= 0.5:
            raise ValueError(
                f"hyperscaler_shift must be within [0, 0.5], "
                f"got {self.hyperscaler_shift}"
            )
        if self.extra_soes < 0:
            raise ValueError("extra_soes must be non-negative")
        if not 0 <= self.prefix_epoch < 32:
            raise ValueError("prefix_epoch must be in [0, 32)")
        for key, factor in self.provider_tilt:
            if factor <= 0:
                raise ValueError(
                    f"provider_tilt factor for {key!r} must be positive"
                )

    def is_default(self) -> bool:
        """True when the override changes nothing (fingerprint no-op)."""
        return (not self.provider_tilt and self.hyperscaler_shift == 0.0
                and self.extra_soes == 0 and self.prefix_epoch == 0)

    def canonical_dict(self) -> dict:
        """JSON-stable form: uppercased country, sorted tilt pairs."""
        return {
            "country": self.country.upper(),
            "provider_tilt": sorted(
                [key, float(factor)] for key, factor in self.provider_tilt
            ),
            "hyperscaler_shift": self.hyperscaler_shift,
            "extra_soes": self.extra_soes,
            "prefix_epoch": self.prefix_epoch,
        }


@dataclasses.dataclass(frozen=True)
class WorldConfig:
    """All knobs of the synthetic world."""

    #: Master seed for every random stream.
    seed: int = 42
    #: Fraction of the paper's dataset sizes to generate.
    scale: float = 0.02
    #: Restrict generation to these country codes (None = all 61).
    countries: Optional[Sequence[str]] = None
    #: Generate topsites for the 14 comparison countries (Appendix D).
    include_topsites: bool = True
    #: Topsites per comparison country.
    topsites_per_country: int = 40
    #: Longitudinal drift toward third-party hosting: the share of the
    #: Govt&SOE mix migrated to 3P Global (the Kumar et al. follow-up
    #: finds dependencies increasing year over year).  0 = the paper's
    #: snapshot; ~0.05 approximates one further year.
    third_party_drift: float = 0.0

    # --- measurement-plane fault injection (repro.faults) -------------------
    #: Base per-attempt failure probability of the fault injector; 0
    #: disables injection entirely (byte-identical to an unfaulted run).
    fault_rate: float = 0.0
    #: Named fault profile scaling the base rate per fault domain.
    fault_profile: str = "mixed"
    #: Seed of the fault decision streams (None: derived from ``seed``),
    #: so failures can vary while the generated world stays fixed.
    fault_seed: Optional[int] = None

    # --- longitudinal evolution (repro.evolve) ------------------------------
    #: Per-country deviations from the base world.  Countries without an
    #: entry generate byte-identically to an override-free config, which
    #: is what lets an evolved snapshot reuse their cached scans.
    country_overrides: tuple[CountryOverride, ...] = ()

    # --- web structure -----------------------------------------------------
    #: Share of unique URLs found at each crawl depth (0 = landing page).
    #: Calibrated to "84% directly on landing pages, 95% within one level".
    depth_distribution: tuple[float, ...] = (
        0.84, 0.11, 0.025, 0.012, 0.006, 0.004, 0.002, 0.001,
    )
    #: Extra non-government (contractor/analytics) URLs added per government
    #: URL; the URL filter must discard these.
    external_url_ratio: float = 0.12
    #: Fraction of sites that expose an additional static asset hostname.
    static_subdomain_frac: float = 0.30
    #: Fraction of sites reachable only through SAN verification
    #: (no government TLD, not in the directory).
    san_site_frac: float = 0.004
    #: Fraction of sites refusing foreign clients.
    geo_restricted_frac: float = 0.02
    #: Mean object size in bytes before category skew.
    mean_resource_bytes: float = 60_000.0

    # --- address plan ------------------------------------------------------
    #: Probability a new hostname reuses an existing address of its AS pool.
    ip_reuse_prob: float = 0.70
    #: Probability a domestic global deployment uses a geo-DNS record
    #: instead of a pinned unicast address (when not anycast).
    geo_dns_prob: float = 0.35

    # --- measurement-substrate fidelity ------------------------------------
    #: Probability IPInfo places a unicast address in the wrong country.
    ipinfo_wrong_country_rate: float = 0.022
    #: Probability IPInfo places it in the wrong city of the right country.
    ipinfo_wrong_city_rate: float = 0.09
    #: Probability a true anycast address is flagged by MAnycast2.
    manycast_recall: float = 0.97
    #: Probability a unicast address is wrongly flagged as anycast.
    manycast_false_positive_rate: float = 0.002
    #: Probability a (non-prominent) unicast address answers ICMP; the top
    #: quartile of addresses by URL mass always responds (see
    #: ``_mark_prominent_addresses``), so the effective rate is higher.
    unicast_icmp_rate: float = 0.02
    #: Probability an anycast address answers ICMP.
    anycast_icmp_rate: float = 0.95
    #: PTR dialect mix (city, ntt, opaque); the remainder has no PTR at all.
    ptr_city_rate: float = 0.60
    ptr_ntt_rate: float = 0.25
    ptr_opaque_rate: float = 0.08
    #: Probability RIPE IPmap has a cached location for an address.
    ipmap_coverage: float = 0.70
    #: Probability an anycast deployment for a country lacks a domestic
    #: site (its catchment lands abroad and the address gets excluded).
    anycast_offshore_rate: float = 0.15
    #: PeeringDB record coverage by operator kind.
    peeringdb_gov_coverage: float = 0.45
    peeringdb_soe_coverage: float = 0.35
    peeringdb_local_coverage: float = 0.60
    peeringdb_regional_coverage: float = 0.80
    #: Among government PeeringDB records, share whose name/org fields are
    #: opaque so only the website reveals ownership.
    peeringdb_opaque_gov_rate: float = 0.25
    #: Probability a government/SOE AS has a findable website description
    #: (the "Google search" fallback of Section 3.4).
    websearch_coverage: float = 0.90

    def __post_init__(self) -> None:
        if not 0 < self.scale < math.inf:
            raise ValueError(
                f"scale must be positive and finite, got {self.scale}")
        if abs(sum(self.depth_distribution) - 1.0) > 1e-6:
            raise ValueError("depth_distribution must sum to 1")
        for name in (
            "external_url_ratio", "static_subdomain_frac", "san_site_frac",
            "geo_restricted_frac", "ip_reuse_prob", "geo_dns_prob",
            "ipinfo_wrong_country_rate", "ipinfo_wrong_city_rate",
            "manycast_recall", "manycast_false_positive_rate",
            "unicast_icmp_rate", "anycast_icmp_rate", "ptr_city_rate",
            "ptr_ntt_rate", "ptr_opaque_rate", "ipmap_coverage",
            "anycast_offshore_rate", "peeringdb_gov_coverage",
            "peeringdb_soe_coverage", "peeringdb_local_coverage",
            "peeringdb_regional_coverage", "peeringdb_opaque_gov_rate",
            "websearch_coverage", "third_party_drift",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        if self.ptr_city_rate + self.ptr_ntt_rate + self.ptr_opaque_rate > 1.0:
            raise ValueError("PTR dialect rates must sum to at most 1")
        if not 0.0 <= self.fault_rate <= 1.0:
            raise ValueError(
                f"fault_rate must be a probability, got {self.fault_rate}"
            )
        from repro.faults.plan import FAULT_PROFILE_NAMES

        if self.fault_profile not in FAULT_PROFILE_NAMES:
            raise ValueError(
                f"unknown fault profile {self.fault_profile!r}; expected one "
                f"of {', '.join(FAULT_PROFILE_NAMES)}"
            )
        seen_override_codes = set()
        for override in self.country_overrides:
            if not isinstance(override, CountryOverride):
                raise ValueError(
                    "country_overrides must hold CountryOverride instances"
                )
            code = override.country.upper()
            if code in seen_override_codes:
                raise ValueError(f"duplicate override for country {code}")
            seen_override_codes.add(code)

    def canonical_dict(self) -> dict:
        """Every field as a JSON-stable dict (the scan-cache key input).

        Sequences become lists, country restrictions are uppercased and
        a defaulted ``fault_seed`` is resolved to the stream it derives
        (mirroring :meth:`~repro.faults.plan.FaultPlan.from_config`), so
        two configs that run identically fingerprint identically
        regardless of how their fields were spelled; any other field
        difference yields a different fingerprint.
        """
        from repro.faults.plan import FaultPlan

        data = dataclasses.asdict(self)
        data["countries"] = (
            None if self.countries is None
            else [code.upper() for code in self.countries]
        )
        data["depth_distribution"] = list(self.depth_distribution)
        data["fault_seed"] = FaultPlan.from_config(self).seed
        data["country_overrides"] = sorted(
            (override.canonical_dict() for override in self.country_overrides
             if not override.is_default()),
            key=lambda entry: entry["country"],
        )
        return data

    def canonical_global_dict(self) -> dict:
        """The country-independent fields as a JSON-stable dict.

        Everything in :meth:`canonical_dict` except the country
        selection and the per-country overrides -- the inputs that
        decide *which* scans run and how single slices deviate, but
        never the content of an unchanged country's slice.  The scan
        cache keys per-country entries on this plus the country's own
        slice (:meth:`country_slice_dict`), so mutating one country
        can only ever invalidate that country's entries.
        """
        data = self.canonical_dict()
        del data["countries"]
        del data["country_overrides"]
        return data

    def override_for(self, country: str) -> Optional[CountryOverride]:
        """The override applying to ``country``, if any."""
        code = country.upper()
        for override in self.country_overrides:
            if override.country.upper() == code:
                return override
        return None

    def country_slice_dict(self, country: str) -> dict:
        """One country's slice of the config as a JSON-stable dict."""
        override = self.override_for(country)
        return {
            "country": country.upper(),
            "override": (
                None if override is None or override.is_default()
                else override.canonical_dict()
            ),
        }

    def country_codes(self) -> list[str]:
        """The country codes to generate (validated against the sample)."""
        from repro.world.countries import COUNTRIES

        if self.countries is None:
            return list(COUNTRIES)
        codes = [code.upper() for code in self.countries]
        unknown = [code for code in codes if code not in COUNTRIES]
        if unknown:
            raise ValueError(f"unknown country codes: {unknown}")
        return codes


__all__ = ["CountryOverride", "WorldConfig"]
