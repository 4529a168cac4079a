"""Generation of the complete synthetic world.

Instantiates every substrate -- ASes (government, SOE, local hosting,
continental and global providers), IP prefixes and WHOIS data, DNS
records (static, geo-aware and anycast, with CNAME chains), TLS
certificates with SANs, government site trees, topsites and the
measurement databases (IPInfo, MAnycast2, PTR/HOIHO, IPmap, PeeringDB,
web-search snippets) -- calibrated by the per-country hosting profiles.

The measurement pipeline never reads ground truth; it re-measures the
generated world through the same steps the paper describes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import random
from random import NV_MAGICCONST
from typing import Optional

from repro.categories import HostingCategory
from repro.datagen.config import WorldConfig
from repro.datagen.names import (
    LOCAL_PROVIDER_STEMS,
    REGIONAL_PROVIDER_STEMS,
    TOPSITE_STEMS,
    government_org_name,
    iter_site_names,
    soe_org_name,
)
from repro.datagen.seeds import derive_rng
from repro.datagen.sitebuilder import SiteBuildSpec, build_site, largest_remainder
from repro.measure.hoiho import HoihoExtractor, PtrTable, normalize_city
from repro.measure.ipinfo import IpInfoDatabase, IpInfoEntry
from repro.measure.ipmap import IpMapCache
from repro.measure.manycast import MAnycastSnapshot
from repro.measure.peeringdb import PeeringDb, PeeringDbRecord
from repro.measure.vpn import VpnCatalog
from repro.netsim.anycast import AnycastGroup, AnycastIndex
from repro.netsim.asn import ASKind, AutonomousSystem, PoP
from repro.netsim.dns import CnameRecord, DnsZone, GeoARecord, Resolver, StaticARecord
from repro.netsim.fabric import ServingFabric
from repro.netsim.nameservers import NsDelegation, NsRegistry
from repro.netsim.providers import GLOBAL_PROVIDERS, WIDE, GlobalProviderSpec
from repro.netsim.registry import IpRegistry
from repro.netsim.tls import Certificate, CertificateStore
from repro.netsim.whois import WhoisService
from repro.websim.sites import SiteKind
from repro.websim.topsites import COMPARISON_COUNTRIES, TopSite, TopsiteHosting
from repro.websim.webserver import WebFabric
from repro.world.cities import EXTRA_TERRITORIES, all_location_codes, capital_of, cities_of
from repro.world.countries import COUNTRIES, Country, get_country
from repro.world.profiles import HostingProfile, get_profile
from repro.world.regions import Continent

#: First ASN used for synthetic (non-catalog) networks.
SYNTHETIC_ASN_BASE = 210_000

#: ASNs reserved for shared infrastructure (regional providers) before
#: the per-country blocks begin.
_ASN_INFRA_BLOCK = 1_024

#: ASNs reserved per country.  Numbering is positional over the *full*
#: country table, so one country's AS count (e.g. evolution adding an
#: SOE) can never shift another country's ASNs.
_ASN_COUNTRY_BLOCK = 64

#: Stable allocation-scope index per country code (full table order,
#: independent of the configured sample).
_SCOPE_INDEX = {code: index for index, code in enumerate(COUNTRIES)}

#: Anycast hub countries providers announce from besides the customer country.
ANYCAST_HUBS = ("US", "DE", "SG", "BR", "AU")

#: Continental hubs for regional-provider registration.
REGIONAL_HUBS: dict[Continent, tuple[str, ...]] = {
    Continent.EUROPE: ("NL", "AT", "SK", "FI", "IE"),
    Continent.ASIA: ("JP", "SG", "HK"),
    Continent.NORTH_AMERICA: ("US", "CA"),
    Continent.SOUTH_AMERICA: ("CO", "BR"),
    Continent.AFRICA: ("ZA", "EG"),
    Continent.OCEANIA: ("AU", "NZ"),
}

_EXTERNAL_HOSTS = tuple(
    f"cdn{i}.contractor-widgets.com" for i in range(1, 6)
) + tuple(f"static{i}.analytics-embed.net" for i in range(1, 4))


@dataclasses.dataclass(frozen=True)
class HostTruth:
    """Ground truth about one government hostname (tests/calibration only)."""

    hostname: str
    country: str
    category: HostingCategory
    asn: int
    address: int
    #: Physical country the content is served from (anycast: the catchment
    #: as seen from the home capital).
    serving_country: str
    anycast: bool
    registered_country: str
    #: How the URL filter is expected to pick this hostname up.
    expected_filter: str  # "tld" | "domain" | "san"


@dataclasses.dataclass
class GroundTruth:
    """Everything the generator knows that the pipeline must rediscover."""

    hosts: dict[str, HostTruth] = dataclasses.field(default_factory=dict)
    #: Per-country landing URLs (the Section 3.1 directory).
    directories: dict[str, list[str]] = dataclasses.field(default_factory=dict)
    #: Per-country landing-page hostnames whose certificates carry the
    #: SAN-verified hostnames.
    san_anchor: dict[str, str] = dataclasses.field(default_factory=dict)
    #: Hostnames of topsites by country.
    topsite_hosts: dict[str, list[str]] = dataclasses.field(default_factory=dict)

    def hosts_of(self, country: str) -> list[HostTruth]:
        """Truth records of one country's hostnames."""
        return [h for h in self.hosts.values() if h.country == country]


@dataclasses.dataclass
class SyntheticWorld:
    """A fully generated world plus handles to all its substrates."""

    config: WorldConfig
    registry: IpRegistry
    whois: WhoisService
    zone: DnsZone
    resolver: Resolver
    certificates: CertificateStore
    anycast_index: AnycastIndex
    fabric: ServingFabric
    web: WebFabric
    vpn: VpnCatalog
    ipinfo: IpInfoDatabase
    manycast: MAnycastSnapshot
    ptr_table: PtrTable
    hoiho: HoihoExtractor
    ipmap: IpMapCache
    peeringdb: PeeringDb
    #: Website URL -> public description (the "Google search" corpus).
    websearch: dict[str, str]
    truth: GroundTruth
    topsites: dict[str, list[TopSite]]
    #: Authoritative-DNS delegations of government domains (extension).
    nameservers: NsRegistry

    @classmethod
    def generate(cls, config: Optional[WorldConfig] = None) -> "SyntheticWorld":
        """Build a world from a configuration (defaults if omitted)."""
        return _Generator(config or WorldConfig()).run()


def world_key(config: WorldConfig) -> str:
    """Identity of the generator input ``config`` describes: the
    generator never reads the fault fields, and no country's slice
    depends on which others are generated, so configs differing only
    in those share one world over all they scan."""
    neutral = dataclasses.replace(
        config,
        countries=None,
        fault_rate=0.0, fault_profile="mixed", fault_seed=None,
    )
    return json.dumps(neutral.canonical_dict(), sort_keys=True)


class _Generator:
    """Stateful builder behind :meth:`SyntheticWorld.generate`."""

    def __init__(self, config: WorldConfig) -> None:
        self.config = config
        self.codes = config.country_codes()
        self.registry = IpRegistry()
        self.zone = DnsZone()
        self.certificates = CertificateStore()
        self.anycast_index = AnycastIndex()
        self.web = WebFabric()
        self.ipinfo = IpInfoDatabase()
        self.manycast = MAnycastSnapshot()
        self.ptr_table = PtrTable()
        self.ipmap = IpMapCache()
        self.peeringdb = PeeringDb()
        self.websearch: dict[str, str] = {}
        self.truth = GroundTruth()
        self.topsites: dict[str, list[TopSite]] = {}
        self.nameservers = NsRegistry()

        self._next_infra_asn = SYNTHETIC_ASN_BASE
        self._country_asn_next: dict[str, int] = {}
        #: Customer country whose slice is currently being generated;
        #: scopes every address allocation, pool and CNAME name so one
        #: country's consumption never shifts another's.
        self._scope_code: Optional[str] = None
        self._used_hostnames: set[str] = set()
        self._global_as: dict[str, AutonomousSystem] = {}
        self._global_spec: dict[str, GlobalProviderSpec] = {}
        self._adoption: dict[str, list[tuple[AutonomousSystem, float]]] = {}
        self._regional: dict[Continent, list[AutonomousSystem]] = {}
        self._gov_as: dict[str, list[AutonomousSystem]] = {}
        self._soe_as: dict[str, list[AutonomousSystem]] = {}
        self._local_as: dict[str, list[AutonomousSystem]] = {}
        self._intl_local_as: dict[str, AutonomousSystem] = {}
        self._enterprise_as: dict[str, AutonomousSystem] = {}
        self._anycast_groups: dict[tuple[int, str], list[AnycastGroup]] = {}
        self._address_pools: dict[tuple[str, int, str], list[int]] = {}
        self._prominent_addresses: set[int] = set()
        #: address -> (AS, allocation PoP, is_anycast)
        self._address_info: dict[int, tuple[AutonomousSystem, PoP, bool]] = {}
        #: address -> customer country it was allocated for.
        self._address_scope: dict[int, str] = {}
        self._cname_counters: dict[str, int] = {}

    # ------------------------------------------------------------------ util

    def _alloc_infra_asn(self) -> int:
        """An ASN from the shared-infrastructure block."""
        asn = self._next_infra_asn
        if asn >= SYNTHETIC_ASN_BASE + _ASN_INFRA_BLOCK:
            raise RuntimeError("infrastructure ASN block exhausted")
        self._next_infra_asn += 1
        return asn

    def _alloc_country_asn(self, code: str) -> int:
        """The next ASN of ``code``'s fixed, positional block."""
        base = (SYNTHETIC_ASN_BASE + _ASN_INFRA_BLOCK
                + _SCOPE_INDEX[code] * _ASN_COUNTRY_BLOCK)
        asn = self._country_asn_next.get(code, base)
        if asn >= base + _ASN_COUNTRY_BLOCK:
            raise RuntimeError(f"ASN block of {code} exhausted")
        self._country_asn_next[code] = asn + 1
        return asn

    def _scope_args(self) -> tuple[int, int]:
        """(scope index, prefix epoch) of the current customer country."""
        assert self._scope_code is not None, "allocation outside a scope"
        override = self.config.override_for(self._scope_code)
        epoch = override.prefix_epoch if override is not None else 0
        return _SCOPE_INDEX[self._scope_code], epoch

    @staticmethod
    @functools.cache
    def _pop_at(code: str, city_index: int = 0) -> PoP:
        # A PoP is frozen, so every AS of every world can share one.
        cities = cities_of(code)
        city = cities[city_index % len(cities)]
        return PoP(country=code, city=city.name, lat=city.lat, lon=city.lon)

    def _unique_hostname(self, candidate: str) -> str:
        hostname = candidate
        suffix = 2
        while hostname in self._used_hostnames:
            head, _, tail = candidate.partition(".")
            hostname = f"{head}{suffix}.{tail}"
            suffix += 1
        self._used_hostnames.add(hostname)
        return hostname

    def _new_address(
        self,
        autonomous_system: AutonomousSystem,
        pop: PoP,
        rng: random.Random,
        reuse: bool = True,
    ) -> int:
        """An address for a deployment, reusing pool addresses per config.

        Pools are scoped to the customer country being generated: two
        countries deploying on the same provider PoP draw from disjoint
        pools, so neither's allocation history perturbs the other's.
        """
        assert self._scope_code is not None
        key = (self._scope_code, autonomous_system.asn, pop.country)
        pool = self._address_pools.setdefault(key, [])
        if reuse and pool and rng.random() < self.config.ip_reuse_prob:
            return rng.choice(pool)
        scope, epoch = self._scope_args()
        address = self.registry.allocate_address(
            autonomous_system, pop, scope, epoch
        )
        pool.append(address)
        self._address_info[address] = (autonomous_system, pop, False)
        self._address_scope[address] = self._scope_code
        return address

    def _next_cname_target(self, provider: AutonomousSystem) -> str:
        assert self._scope_code is not None
        count = self._cname_counters.get(self._scope_code, 0) + 1
        self._cname_counters[self._scope_code] = count
        domain = provider.contact_domain or f"as{provider.asn}.net"
        return f"edge-{self._scope_code.lower()}-{count}.cdn.{domain}"

    # ------------------------------------------------------------ providers

    def _build_global_providers(self) -> None:
        location_codes = all_location_codes()
        for spec in GLOBAL_PROVIDERS:
            if spec.footprint is WIDE:
                pop_codes = location_codes
            else:
                pop_codes = list(spec.footprint)
            pops = tuple(self._pop_at(code) for code in pop_codes)
            autonomous_system = AutonomousSystem(
                asn=spec.asn,
                name=spec.name,
                organization=f"{spec.name}, Inc.",
                registration_country=spec.registration_country,
                kind=ASKind.GLOBAL_PROVIDER,
                pops=pops,
                website=f"https://www.{spec.key}.com",
                contact_domain=f"{spec.key}.com",
                anycast_capable=spec.anycast,
            )
            self.registry.register_as(autonomous_system)
            self._global_as[spec.key] = autonomous_system
            self._global_spec[spec.key] = spec
            self.websearch[autonomous_system.website] = (
                f"{spec.name} is a cloud and content delivery provider."
            )

    def _build_adoption(self) -> None:
        for code in self.codes:
            profile = get_profile(code)
            rng = derive_rng(self.config.seed, "adoption", code)
            adopted: list[tuple[AutonomousSystem, float]] = []
            for spec in GLOBAL_PROVIDERS:
                override = profile.provider_overrides.get(spec.key)
                if override is not None:
                    adopted.append((self._global_as[spec.key], override))
                elif rng.random() < spec.adoption_prior:
                    weight = spec.base_weight * rng.uniform(0.5, 1.5)
                    adopted.append((self._global_as[spec.key], weight))
            if not adopted:
                adopted.append((self._global_as["cloudflare"], 1.0))
            override = self.config.override_for(code)
            if override is not None and override.provider_tilt:
                adopted = self._tilt_adoption(adopted, override.provider_tilt)
            self._adoption[code] = adopted

    def _tilt_adoption(
        self,
        adopted: list[tuple[AutonomousSystem, float]],
        tilt: tuple[tuple[str, float], ...],
    ) -> list[tuple[AutonomousSystem, float]]:
        """Apply evolution's provider gain/loss multipliers to one country."""
        factors = dict(tilt)
        tilted = [
            (provider, weight * factors.get(self._spec_key_of(provider), 1.0))
            for provider, weight in adopted
        ]
        present = {self._spec_key_of(provider) for provider, _ in tilted}
        for key, factor in sorted(factors.items()):
            # A gaining provider the base draw skipped enters the mix.
            if factor > 1.0 and key not in present and key in self._global_as:
                spec = self._global_spec[key]
                tilted.append(
                    (self._global_as[key], spec.base_weight * (factor - 1.0))
                )
        return tilted

    def _spec_key_of(self, provider: AutonomousSystem) -> str:
        for key, candidate in self._global_as.items():
            if candidate is provider:
                return key
        return provider.name.lower()

    def _build_regional_providers(self) -> None:
        # Membership comes from the *full* country table, not the
        # configured sample: the providers (and their ASNs and PoP
        # lists) are identical no matter which countries are generated,
        # so adding a country to a series never perturbs the others.
        members_by_continent: dict[Continent, list[str]] = {}
        for code, country in COUNTRIES.items():
            members_by_continent.setdefault(country.continent, []).append(code)
        for continent, hubs in REGIONAL_HUBS.items():
            members = members_by_continent.get(continent, [])
            providers: list[AutonomousSystem] = []
            rng = derive_rng(self.config.seed, "regional", continent.name)
            for index, hub in enumerate(hubs):
                stem = REGIONAL_PROVIDER_STEMS[index % len(REGIONAL_PROVIDER_STEMS)]
                name = f"{stem}-{hub.lower()}".replace("_", "-")
                pop_codes = list(dict.fromkeys([hub] + members))
                pops = tuple(self._pop_at(code) for code in pop_codes)
                autonomous_system = AutonomousSystem(
                    asn=self._alloc_infra_asn(),
                    name=name.upper(),
                    organization=f"{stem.replace('-', ' ').title()} ({hub})",
                    registration_country=hub,
                    kind=ASKind.REGIONAL_HOSTING,
                    pops=pops,
                    website=f"https://www.{name}.com",
                    contact_domain=f"{name}.com",
                )
                self.registry.register_as(autonomous_system)
                providers.append(autonomous_system)
                self.websearch[autonomous_system.website] = (
                    f"{autonomous_system.organization} offers colocation and "
                    f"hosting across {continent.value}."
                )
                rng.random()  # reserved for future per-provider variation
            self._regional[continent] = providers

    # ----------------------------------------------------------- country ASes

    def _build_country_ases(self, country: Country, profile: HostingProfile) -> None:
        code = country.code
        rng = derive_rng(self.config.seed, "ases", code)
        suffix = country.gov_suffixes[0] if country.gov_suffixes else f"gov-{country.cctld}.{country.cctld}"

        gov_list: list[AutonomousSystem] = []
        sectors = ["informatics", "interior", "finance", "defense", "education",
                   "health", "justice", "planning"]
        for index in range(profile.gov_network_count):
            sector = sectors[index % len(sectors)]
            org = government_org_name(sector, country.name, rng)
            autonomous_system = AutonomousSystem(
                asn=self._alloc_country_asn(code),
                name=f"GOVNET-{code}-{index + 1}",
                organization=org,
                registration_country=code,
                kind=ASKind.GOVERNMENT,
                pops=(self._pop_at(code, index),),
                website=f"https://www.{sector}.{suffix}",
                contact_domain=suffix if rng.random() < 0.7 else f"{sector}-{code.lower()}.{country.cctld}",
            )
            self.registry.register_as(autonomous_system)
            gov_list.append(autonomous_system)
            if rng.random() < self.config.websearch_coverage:
                self.websearch[autonomous_system.website] = (
                    f"{org} is a federal government institution of {country.name}."
                )
        self._gov_as[code] = gov_list

        soe_list: list[AutonomousSystem] = []
        # "energy-holding"/"petro-fiscal" carry no government keyword in
        # their names (the YPF case): only the web-search step finds them.
        soe_stems = ["national-telecom", "energy-holding", "petro-fiscal"]
        chosen_stems = soe_stems[: max(1, profile.gov_network_count // 2)]
        override = self.config.override_for(code)
        if override is not None and override.extra_soes:
            # Evolution: newly corporatized state ventures get their own
            # networks, drawn from this country's fixed ASN block.
            chosen_stems = chosen_stems + [
                f"state-venture-{n + 1}" for n in range(override.extra_soes)
            ]
        for index, stem in enumerate(chosen_stems):
            org = soe_org_name(stem, country.name, rng)
            website = f"https://www.{stem}-{country.cctld}.com"
            autonomous_system = AutonomousSystem(
                asn=self._alloc_country_asn(code),
                name=f"{stem.replace('-', '').upper()}-{code}",
                organization=org,
                registration_country=code,
                kind=ASKind.SOE,
                pops=(self._pop_at(code, index),),
                website=website,
                contact_domain=f"{stem}-{country.cctld}.com",
            )
            self.registry.register_as(autonomous_system)
            soe_list.append(autonomous_system)
            if rng.random() < self.config.websearch_coverage:
                self.websearch[website] = (
                    f"{org} is a state-owned enterprise; the government of "
                    f"{country.name} holds a majority stake."
                )
        self._soe_as[code] = soe_list

        local_list: list[AutonomousSystem] = []
        for index in range(profile.local_provider_count):
            stem = LOCAL_PROVIDER_STEMS[index % len(LOCAL_PROVIDER_STEMS)]
            name = f"{stem}-{country.cctld}"
            autonomous_system = AutonomousSystem(
                asn=self._alloc_country_asn(code),
                name=name.upper(),
                organization=f"{stem.title()} Hosting {country.name}",
                registration_country=code,
                kind=ASKind.LOCAL_HOSTING,
                pops=(self._pop_at(code, index),),
                website=f"https://www.{name}.com",
                contact_domain=f"{name}.com",
            )
            self.registry.register_as(autonomous_system)
            local_list.append(autonomous_system)
            self.websearch[autonomous_system.website] = (
                f"{autonomous_system.organization} is a commercial web host."
            )
        self._local_as[code] = local_list

        # A domestically registered provider with offshore serving sites,
        # used when the foreign-hosting quota exceeds the global share
        # (e.g. China's domestic providers serving from Japan).
        partner_codes = list(profile.partners) or ["US"]
        pops = tuple(
            self._pop_at(pc) for pc in dict.fromkeys([code] + partner_codes)
        )
        intl_local = AutonomousSystem(
            asn=self._alloc_country_asn(code),
            name=f"GLOBALEDGE-{code}",
            organization=f"GlobalEdge Hosting {country.name}",
            registration_country=code,
            kind=ASKind.LOCAL_HOSTING,
            pops=pops,
            website=f"https://www.globaledge-{country.cctld}.com",
            contact_domain=f"globaledge-{country.cctld}.com",
        )
        self.registry.register_as(intl_local)
        self.websearch[intl_local.website] = (
            f"{intl_local.organization} operates data centers at home and abroad."
        )
        self._intl_local_as[code] = intl_local

    # ------------------------------------------------------------- deployment

    def _weighted_as(
        self,
        candidates: list[AutonomousSystem],
        concentration: float,
        rng: random.Random,
    ) -> AutonomousSystem:
        """Pick an AS with Zipf-like concentration over the candidate list."""
        weights = [(index + 1) ** (-concentration) for index in range(len(candidates))]
        return rng.choices(candidates, weights=weights, k=1)[0]

    def _anycast_group_for(
        self,
        provider: AutonomousSystem,
        code: str,
        rng: random.Random,
    ) -> AnycastGroup:
        key = (provider.asn, code)
        groups = self._anycast_groups.setdefault(key, [])
        if groups and rng.random() < 0.6:
            return rng.choice(groups)
        offshore = rng.random() < self.config.anycast_offshore_rate
        pop_codes = [hub for hub in ANYCAST_HUBS if hub != code]
        if not offshore:
            pop_codes.insert(0, code)
        pops = tuple(self._pop_at(pc) for pc in pop_codes)
        scope, epoch = self._scope_args()
        address = self.registry.allocate_address(provider, pops[0], scope, epoch)
        group = AnycastGroup(address=address, asn=provider.asn, pops=pops)
        self.anycast_index.add(group)
        self._address_info[address] = (provider, pops[0], True)
        self._address_scope[address] = code
        groups.append(group)
        return group

    def _deploy_host(
        self,
        hostname: str,
        code: str,
        category: HostingCategory,
        foreign: bool,
        partner: Optional[str],
        profile: HostingProfile,
        rng: random.Random,
        fresh_ip: bool = False,
    ) -> HostTruth:
        """Create the AS/address/DNS/anycast wiring for one hostname."""
        country = get_country(code)
        anycast = False
        record = None
        if category is HostingCategory.GOVT_SOE:
            candidates = self._gov_as[code] + self._soe_as[code]
            autonomous_system = self._weighted_as(candidates, profile.concentration, rng)
            pop = autonomous_system.pops[0]
            address = self._new_address(autonomous_system, pop, rng)
            serving = pop.country
        elif category is HostingCategory.P3_LOCAL:
            if foreign:
                autonomous_system = self._intl_local_as[code]
                target = partner or "US"
                pop = next(
                    (p for p in autonomous_system.pops if p.country == target),
                    autonomous_system.pops[-1],
                )
            else:
                autonomous_system = self._weighted_as(
                    self._local_as[code], profile.concentration, rng
                )
                pop = autonomous_system.pops[0]
            address = self._new_address(autonomous_system, pop, rng)
            serving = pop.country
        elif category is HostingCategory.P3_REGIONAL:
            continent = country.continent
            candidates = [
                provider
                for provider in self._regional.get(continent, [])
                if provider.registration_country != code
            ]
            if not candidates:
                # No same-continent provider exists: degrade to global.
                return self._deploy_host(
                    hostname, code, HostingCategory.P3_GLOBAL, foreign, partner,
                    profile, rng,
                )
            autonomous_system = self._weighted_as(candidates, 1.0, rng)
            if foreign:
                target = autonomous_system.registration_country
                if partner and autonomous_system.has_pop_in(partner) and partner != code:
                    target = partner
            else:
                target = code
            pop = next(
                (p for p in autonomous_system.pops if p.country == target),
                autonomous_system.pops[0],
            )
            address = self._new_address(autonomous_system, pop, rng)
            serving = pop.country
        else:  # P3_GLOBAL
            adopted = self._adoption[code]
            if foreign:
                target = partner or "US"
                candidates = [
                    (a, w) for a, w in adopted if a.has_pop_in(target)
                ]
                if not candidates:
                    fallback = self._global_as["cloudflare"]
                    candidates = [(fallback, 1.0)]
                autonomous_system = rng.choices(
                    [a for a, _ in candidates],
                    weights=[w for _, w in candidates],
                    k=1,
                )[0]
                pop = next(p for p in autonomous_system.pops if p.country == target)
                address = self._new_address(
                    autonomous_system, pop, rng, reuse=not fresh_ip
                )
                serving = pop.country
            else:
                use_anycast = rng.random() < profile.anycast_frac
                if use_anycast:
                    pool = [(a, w) for a, w in adopted if a.anycast_capable]
                else:
                    # Domestic serving requires a provider with a local
                    # region; countries pick accordingly.
                    pool = [(a, w) for a, w in adopted if a.has_pop_in(code)]
                if not pool:
                    pool = [(self._global_as["cloudflare"], 1.0)]
                autonomous_system = rng.choices(
                    [a for a, _ in pool],
                    weights=[w for _, w in pool],
                    k=1,
                )[0]
                if autonomous_system.anycast_capable and use_anycast:
                    group = self._anycast_group_for(autonomous_system, code, rng)
                    address = group.address
                    anycast = True
                    capital = capital_of(code)
                    serving = group.catchment(capital.lat, capital.lon).country
                elif autonomous_system.has_pop_in(code):
                    domestic_pop = autonomous_system.pops_in(code)[0]
                    if rng.random() < self.config.geo_dns_prob and len(autonomous_system.pops) > 2:
                        # Geo-DNS record: domestic PoP plus two hub PoPs.
                        others = [
                            p for p in autonomous_system.pops
                            if p.country != code and p.country in ANYCAST_HUBS
                        ][:2]
                        endpoints = []
                        for pop in [domestic_pop] + others:
                            endpoint_address = self._new_address(
                                autonomous_system, pop, rng
                            )
                            endpoints.append((pop, endpoint_address))
                        record = GeoARecord(endpoints=tuple(endpoints))
                        address = endpoints[0][1]
                        serving = code
                    else:
                        address = self._new_address(autonomous_system, domestic_pop, rng)
                        serving = code
                else:
                    # Provider lacks a domestic region: nearest hub serves.
                    pop = autonomous_system.pops[0]
                    address = self._new_address(autonomous_system, pop, rng)
                    serving = pop.country

        if record is None:
            record = StaticARecord(address=address)

        # Third-party deployments frequently sit behind a CNAME chain.
        if category.is_third_party and rng.random() < 0.6:
            target = self._next_cname_target(autonomous_system)
            self.zone.add(hostname, CnameRecord(target=target))
            self.zone.add(target, record)
        else:
            self.zone.add(hostname, record)

        # Late import: the urlfilter package pulls in the whole pipeline,
        # which itself imports this module at init time.
        from repro.core.urlfilter import matches_gov_tld

        expected_filter = "tld" if matches_gov_tld(hostname) else "domain"
        return HostTruth(
            hostname=hostname,
            country=code,
            category=category,
            asn=autonomous_system.asn,
            address=address,
            serving_country=serving,
            anycast=anycast,
            registered_country=autonomous_system.registration_country,
            expected_filter=expected_filter,
        )

    # ---------------------------------------------------------------- country

    @dataclasses.dataclass
    class _SiteSlot:
        """Scratch record for one site before deployment."""

        hostname: str
        kind: SiteKind
        budget: int
        in_directory: bool
        category: Optional[HostingCategory] = None
        foreign: bool = False
        partner: Optional[str] = None
        forced_category: Optional[HostingCategory] = None
        forced_serving: Optional[str] = None
        #: Mission/embassy sites always occupy their own address.
        fresh_ip: bool = False

    def _make_hostname(
        self, country: Country, kind: SiteKind, name: str, rng: random.Random
    ) -> str:
        has_suffix = bool(country.gov_suffixes)
        www = "www." if rng.random() < 0.5 else ""
        # Government suffixes are far from universally used (Section 8):
        # ministries mostly adopt them, agencies only partially, SOEs rarely.
        suffix_usage = {
            SiteKind.MINISTRY: 0.65,
            SiteKind.AGENCY: 0.40,
            SiteKind.SOE: 0.10,
        }
        if has_suffix and rng.random() < suffix_usage[kind]:
            suffix = rng.choice(country.gov_suffixes)
            candidate = f"{www}{name}.{suffix}"
        elif kind is SiteKind.SOE and rng.random() < 0.5:
            candidate = f"{www}{name}-{country.cctld}.com"
        else:
            candidate = f"{www}{name}.{country.cctld}"
        return self._unique_hostname(candidate)

    def _size_sampler(
        self, multiplier: float, rng: random.Random
    ):
        """A sampler of object sizes whose mean is scaled by ``multiplier``.

        A draw is ``max(200, int(rng.lognormvariate(mu, sigma)))`` with
        the stdlib's arithmetic inlined: ``normalvariate``'s
        Kinderman-Monahan loop, then ``exp(mu + z * sigma)``.  It takes
        the same ``rng.random()`` values and gives the same floats;
        tests/datagen/test_draws.py holds it to ``random.Random``'s own.
        """
        multiplier = min(max(multiplier, 0.05), 20.0)
        sigma = 1.0
        mu = math.log(self.config.mean_resource_bytes * multiplier) - sigma ** 2 / 2.0
        uniform, exp, log = rng.random, math.exp, math.log
        def sample() -> int:
            while True:
                u1 = uniform()
                u2 = 1.0 - uniform()
                z = NV_MAGICCONST * (u1 - 0.5) / u2
                if z * z / 4.0 <= -log(u2):
                    size = int(exp(mu + z * sigma))
                    return size if size > 200 else 200
        return sample

    def _build_country(self, country: Country) -> None:
        code = country.code
        self._scope_code = code
        profile = get_profile(code)
        override = self.config.override_for(code)
        if self.config.third_party_drift > 0:
            from repro.world.profiles import drift_profile

            profile = drift_profile(profile, self.config.third_party_drift)
        if override is not None and override.hyperscaler_shift > 0:
            # Evolution: part of this country's sites migrated to
            # hyperscalers since the parent snapshot.
            from repro.world.profiles import drift_profile

            profile = drift_profile(profile, override.hyperscaler_shift)
        rng = derive_rng(self.config.seed, "country", code)
        scale = self.config.scale

        if country.hostnames <= 0:
            # e.g. South Korea: Table 8 records no collected sites.
            self.truth.directories[code] = []
            self._build_country_ases(country, profile)
            return

        self._build_country_ases(country, profile)

        has_suffix = bool(country.gov_suffixes)
        n_sites_target = max(3, round(country.hostnames * scale))
        n_named = max(3, round(n_sites_target / 1.25)) if has_suffix else n_sites_target
        n_internal = max(n_named * 2, round(country.internal_urls * scale))
        n_landing = max(n_named, round(country.landing_urls * scale))
        n_landing = min(n_landing, n_named * 3)

        # France's offshore share is one state-owned hostname in New
        # Caledonia (gouv.nc, hosted by OPT, Section 6.3).
        nc_budget = 0
        if code == "FR":
            nc_budget = round(profile.intl_server_frac * n_internal)
            n_internal -= nc_budget

        # --- name the sites --------------------------------------------------
        name_iters = {
            kind: iter_site_names(kind, derive_rng(self.config.seed, "names", code, kind.name))
            for kind in SiteKind
        }
        slots: list[_Generator._SiteSlot] = []
        for index in range(n_named):
            draw = index % 10
            if draw < 3:
                kind = SiteKind.MINISTRY
            elif draw < 8:
                kind = SiteKind.AGENCY
            else:
                kind = SiteKind.SOE
            hostname = self._make_hostname(country, kind, next(name_iters[kind]), rng)
            slots.append(self._SiteSlot(hostname=hostname, kind=kind, budget=0,
                                        in_directory=True))

        # --- URL budgets (Zipf-ish, exact total) ------------------------------
        weights = [(index + 1) ** -0.85 for index in range(n_named)]
        budgets = largest_remainder(n_internal, weights)
        for slot, budget in zip(slots, budgets):
            slot.budget = budget
        for slot in slots:
            if slot.budget == 0:
                donor = max(slots, key=lambda s: s.budget)
                if donor.budget > 1:
                    donor.budget -= 1
                    slot.budget = 1

        # --- SAN-verified sites ----------------------------------------------
        san_slots: list[_Generator._SiteSlot] = []
        if n_named >= 25:
            k_san = max(1, round(self.config.san_site_frac * n_named))
            for index in range(k_san):
                hostname = self._unique_hostname(
                    f"{next(name_iters[SiteKind.SOE])}-{country.name.split()[0].lower()}.com"
                )
                budget = max(1, round(0.003 * n_internal / k_san))
                donor = max(slots, key=lambda s: s.budget)
                donor.budget = max(1, donor.budget - budget)
                san_slots.append(self._SiteSlot(
                    hostname=hostname, kind=SiteKind.SOE, budget=budget,
                    in_directory=False,
                ))
        if code == "NL":
            # The Dutch bilateral deployments of Section 6.3.
            for hostname, partner in (
                ("dutchculturekorea.com", "KR"),
                ("nbso-brazil.com.br", "BR"),
            ):
                donor = max(slots, key=lambda s: s.budget)
                budget = max(1, min(3, donor.budget - 1))
                donor.budget -= budget
                slot = self._SiteSlot(
                    hostname=self._unique_hostname(hostname), kind=SiteKind.AGENCY,
                    budget=budget, in_directory=False,
                    forced_category=HostingCategory.P3_LOCAL,
                )
                slot.foreign = True
                slot.partner = partner
                san_slots.append(slot)

        # --- mission (embassy/consulate) sites ---------------------------------
        # Governments run small web properties abroad, hosted near the
        # mission (the Dutch examples of Section 6.3 generalize); populous
        # countries operate many more of them.  Each occupies its own
        # address, so foreign *address* shares exceed foreign URL shares.
        mission_slots: list[_Generator._SiteSlot] = []
        if n_named >= 5:
            from repro.world.profiles import development_z

            z_users, _, _ = development_z(code)
            emb_scale = math.exp(0.8 * z_users)
            n_missions = round(0.05 * n_named * emb_scale)
            n_missions = min(n_missions, max(0, int(0.006 * n_internal)))
            dests = [d for d in ("US", "GB", "DE", "FR", "JP", "BR", "ZA",
                                 "AU", "AE", "SG", "CA", "IN")
                     if d != code and d in COUNTRIES]
            for index in range(n_missions):
                dest = dests[index % len(dests)]
                suffix = (
                    rng.choice(country.gov_suffixes)
                    if country.gov_suffixes
                    else country.cctld
                )
                hostname = self._unique_hostname(
                    f"mission-{dest.lower()}.mfa.{suffix}"
                )
                donor = max(slots, key=lambda s: s.budget)
                budget = 2 if donor.budget > 3 else 1
                donor.budget = max(1, donor.budget - budget)
                slot = self._SiteSlot(
                    hostname=hostname, kind=SiteKind.AGENCY, budget=budget,
                    in_directory=True,
                    forced_category=HostingCategory.P3_GLOBAL,
                    fresh_ip=True,
                )
                slot.foreign = True
                slot.partner = dest
                mission_slots.append(slot)

        all_slots = slots + san_slots + mission_slots

        # --- category assignment (URL-weighted greedy) -------------------------
        total_budget = sum(slot.budget for slot in all_slots)
        full_total = total_budget + nc_budget
        targets = {
            category: share * full_total
            for category, share in profile.url_mix.items()
        }
        if nc_budget:
            targets[HostingCategory.GOVT_SOE] = max(
                0.0, targets[HostingCategory.GOVT_SOE] - nc_budget
            )
        assignable = [slot for slot in all_slots if slot.forced_category is None]
        # Categories with no share in the profile must never absorb tail
        # slots, even once the other targets run (slightly) negative.
        eligible = [
            category for category, share in profile.url_mix.items() if share > 0
        ] or list(profile.url_mix)
        for slot in sorted(assignable, key=lambda s: -s.budget):
            category = max(eligible, key=lambda cat: targets[cat])
            slot.category = category
            targets[category] -= slot.budget
        for slot in all_slots:
            if slot.forced_category is not None:
                slot.category = slot.forced_category

        # --- foreign-serving quota ---------------------------------------------
        if code != "FR":
            target_foreign = round(profile.intl_server_frac * total_budget)
            target_foreign -= sum(s.budget for s in all_slots if s.foreign)
            order: list[_Generator._SiteSlot] = []
            for category in (
                HostingCategory.P3_GLOBAL,
                HostingCategory.P3_LOCAL,
                HostingCategory.P3_REGIONAL,
            ):
                group = [
                    slot for slot in all_slots
                    if slot.category is category and not slot.foreign
                ]
                # Small sites first: offshore hosting concentrates on the
                # long tail of minor agency sites, so a country's foreign
                # *address* share exceeds its foreign URL share.
                group.sort(key=lambda slot: slot.budget)
                order.extend(group)
            partner_codes = list(profile.partners)
            partner_weights = [profile.partners[p] for p in partner_codes]
            accumulated = 0
            for slot in order:
                if accumulated >= target_foreign:
                    break
                # Only take the slot if it brings the total closer to the
                # target; Zipf-sized slots would otherwise overshoot badly.
                if abs(accumulated + slot.budget - target_foreign) > abs(
                    accumulated - target_foreign
                ):
                    continue
                slot.foreign = True
                if partner_codes:
                    slot.partner = rng.choices(partner_codes, partner_weights, k=1)[0]
                else:
                    slot.partner = "US"
                accumulated += slot.budget

        # --- deployments, DNS, pages, certificates ------------------------------
        landing_extra = n_landing - len(slots)
        extra_allocation = largest_remainder(
            max(landing_extra, 0), [slot.budget + 1 for slot in slots]
        ) if slots else []
        directory: list[str] = []
        san_hostnames = [slot.hostname for slot in san_slots]
        anchor_slot = max(slots, key=lambda s: s.budget)
        san_landing_urls = [f"https://{slot.hostname}/" for slot in san_slots]

        if nc_budget:
            self._deploy_new_caledonia(country, nc_budget, rng, directory)

        rng_https = derive_rng(self.config.seed, "https", code)
        rng_dns = derive_rng(self.config.seed, "dns", code)
        for slot_index, slot in enumerate(all_slots):
            truth = self._deploy_slot(country, profile, slot, rng)
            static_hostname = None
            if (
                slot.in_directory
                and has_suffix
                and truth.expected_filter == "tld"
                and rng.random() < self.config.static_subdomain_frac
            ):
                static_hostname = self._unique_hostname(f"static.{slot.hostname}")
                self.zone.add(static_hostname, StaticARecord(address=truth.address))
                self.truth.hosts[static_hostname] = dataclasses.replace(
                    truth, hostname=static_hostname
                )
            n_paths = 1
            if slot.in_directory and slot_index < len(slots):
                n_paths += extra_allocation[slot_index]
            landing_paths = ["/"] + [f"/portal{j}/" for j in range(1, n_paths)]
            multiplier = (
                profile.byte_mix[slot.category] / profile.url_mix[slot.category]
                if profile.url_mix[slot.category] > 0
                else 1.0
            )
            spec = SiteBuildSpec(
                hostname=slot.hostname,
                country=code,
                kind=slot.kind,
                landing_paths=landing_paths,
                internal_budget=slot.budget,
                size_sampler=self._size_sampler(multiplier, rng),
                static_hostname=static_hostname,
                external_ratio=self.config.external_url_ratio,
                external_hosts=_EXTERNAL_HOSTS,
                geo_restricted=rng.random() < self.config.geo_restricted_frac,
                extra_links=san_landing_urls if slot is anchor_slot else (),
            )
            site = build_site(spec, self.config.depth_distribution, rng)
            self.web.register_site(site)
            if slot.in_directory:
                directory.extend(f"https://{slot.hostname}{p}" for p in landing_paths)
            sans = [slot.hostname]
            if static_hostname:
                sans.append(static_hostname)
            if slot is anchor_slot:
                sans.extend(san_hostnames)
            # HTTPS adoption follows digital development (Singanamalla et
            # al.): low-EGDI governments serve plain HTTP or invalid certs.
            # The SAN-verification anchor always presents a valid cert.
            egdi = country.egdi if country.egdi is not None else 0.85
            https_rate = min(0.98, 0.20 + 0.65 * egdi)
            if slot is anchor_slot or rng_https.random() < https_rate:
                valid = slot is anchor_slot or rng_https.random() < 0.80
                self.certificates.install(
                    slot.hostname,
                    Certificate(subject=slot.hostname, sans=tuple(sans),
                                valid=valid),
                )
            self._register_delegation(truth, rng_dns)

        self.truth.directories[code] = directory
        self.truth.san_anchor[code] = anchor_slot.hostname

    def _deploy_slot(
        self,
        country: Country,
        profile: HostingProfile,
        slot: "_Generator._SiteSlot",
        rng: random.Random,
    ) -> HostTruth:
        assert slot.category is not None
        truth = self._deploy_host(
            hostname=slot.hostname,
            code=country.code,
            category=slot.category,
            foreign=slot.foreign,
            partner=slot.partner,
            profile=profile,
            rng=rng,
            fresh_ip=slot.fresh_ip,
        )
        if not slot.in_directory and truth.expected_filter == "domain":
            truth = dataclasses.replace(truth, expected_filter="san")
        self.truth.hosts[truth.hostname] = truth
        return truth

    def _register_delegation(self, truth: HostTruth, rng: random.Random) -> None:
        """Assign the authoritative-DNS delegation of a hostname's domain.

        Government-operated sites mostly self-host their nameservers;
        third-party-hosted sites split between the serving provider's DNS
        and the big managed-DNS platforms -- the concentration pattern the
        e-government DNS studies report.
        """
        from repro.urltools import registrable_domain

        domain = registrable_domain(truth.hostname)
        if self.nameservers.lookup(domain) is not None:
            return
        serving_as = self.registry.get_as(truth.asn)
        managed = [
            (self._global_as["cloudflare"], 3.0),
            (self._global_as["amazon"], 2.0),
            (self._global_as["microsoft"], 1.5),
        ]
        if truth.category is HostingCategory.GOVT_SOE:
            self_hosted = rng.random() < 0.70
            provider = serving_as if self_hosted else rng.choices(
                [a for a, _ in managed], weights=[w for _, w in managed], k=1
            )[0]
        else:
            draw = rng.random()
            if draw < 0.50:
                provider, self_hosted = serving_as, False
            elif draw < 0.80:
                provider = rng.choices(
                    [a for a, _ in managed], weights=[w for _, w in managed], k=1
                )[0]
                self_hosted = False
            else:
                provider, self_hosted = serving_as, True
        if self_hosted and provider is serving_as and \
                truth.category is HostingCategory.GOVT_SOE:
            names = (f"ns1.{domain}", f"ns2.{domain}")
        elif self_hosted:
            names = (f"ns1.{domain}",)
        else:
            ns_domain = provider.contact_domain or f"as{provider.asn}.net"
            label = domain.split(".")[0][:12]
            names = (f"{label}.ns.{ns_domain}", f"{label}2.ns.{ns_domain}")
        self.nameservers.register(NsDelegation(
            domain=domain,
            nameservers=names,
            provider_asn=provider.asn,
            self_hosted=self_hosted,
        ))

    def _deploy_new_caledonia(
        self,
        country: Country,
        budget: int,
        rng: random.Random,
        directory: list[str],
    ) -> None:
        """France's gouv.nc: state-owned OPT serving from New Caledonia."""
        noumea = EXTRA_TERRITORIES["NC"][3]
        pop = PoP(country="NC", city=noumea.name, lat=noumea.lat, lon=noumea.lon)
        opt = AutonomousSystem(
            asn=18200,
            name="OPT-NC",
            organization="Office des Postes et des Telecomm de Nouvelle Caledonie",
            registration_country="NC",
            kind=ASKind.SOE,
            pops=(pop,),
            website="https://www.opt.nc",
            contact_domain="opt.nc",
        )
        self.registry.register_as(opt)
        self.websearch[opt.website] = (
            "OPT is the state-owned post and telecommunications operator of "
            "New Caledonia."
        )
        hostname = self._unique_hostname("gouv.nc")
        address = self._new_address(opt, pop, rng, reuse=False)
        self.zone.add(hostname, StaticARecord(address=address))
        truth = HostTruth(
            hostname=hostname,
            country=country.code,
            category=HostingCategory.GOVT_SOE,
            asn=opt.asn,
            address=address,
            serving_country="NC",
            anycast=False,
            registered_country="NC",
            expected_filter="tld",
        )
        self.truth.hosts[hostname] = truth
        self.nameservers.register(NsDelegation(
            domain=hostname,
            nameservers=(f"ns1.{hostname}", f"ns2.{hostname}"),
            provider_asn=opt.asn,
            self_hosted=True,
        ))
        spec = SiteBuildSpec(
            hostname=hostname,
            country=country.code,
            kind=SiteKind.AGENCY,
            landing_paths=["/"],
            internal_budget=budget,
            size_sampler=self._size_sampler(1.0, rng),
            external_ratio=0.0,
        )
        site = build_site(spec, self.config.depth_distribution, rng)
        self.web.register_site(site)
        directory.append(f"https://{hostname}/")
        self.certificates.install(
            hostname, Certificate(subject=hostname, sans=(hostname,))
        )

    # ----------------------------------------------------------- measurement

    def _build_measurement_databases(self) -> set[int]:
        """Populate IPInfo, MAnycast2, PTR, IPmap and PeeringDB; return the
        set of ICMP-unresponsive addresses.

        Every address draws from its own seeded stream: the databases'
        view of one address is a pure function of that address, so a
        country gaining or losing addresses (evolution) can never
        perturb the measurement noise of any other address.
        """
        config = self.config
        location_codes = all_location_codes()
        unresponsive: set[int] = set()
        self._mark_prominent_addresses()

        for address in sorted(self._address_info):
            rng = derive_rng(config.seed, "measurement", address)
            autonomous_system, pop, is_anycast = self._address_info[address]
            if is_anycast:
                hq = autonomous_system.registration_country
                capital = capital_of(hq)
                self.ipinfo.add(IpInfoEntry(
                    address=address, country=hq, city=capital.name,
                    lat=capital.lat, lon=capital.lon,
                ))
                if rng.random() < config.manycast_recall:
                    self.manycast.flag(address)
                if rng.random() > config.anycast_icmp_rate:
                    unresponsive.add(address)
                continue

            prominent = address in self._prominent_addresses
            draw = 1.0 if prominent else rng.random()
            if draw < config.ipinfo_wrong_country_rate:
                other = rng.choice([c for c in location_codes if c != pop.country])
                capital = capital_of(other)
                entry = IpInfoEntry(address=address, country=other,
                                    city=capital.name, lat=capital.lat,
                                    lon=capital.lon)
            elif draw < config.ipinfo_wrong_country_rate + config.ipinfo_wrong_city_rate:
                cities = cities_of(pop.country)
                city = rng.choice(cities)
                entry = IpInfoEntry(address=address, country=pop.country,
                                    city=city.name, lat=city.lat, lon=city.lon)
            else:
                entry = IpInfoEntry(address=address, country=pop.country,
                                    city=pop.city, lat=pop.lat, lon=pop.lon)
            self.ipinfo.add(entry)

            if rng.random() < config.manycast_false_positive_rate:
                self.manycast.flag(address)
            if rng.random() > config.unicast_icmp_rate and not prominent:
                unresponsive.add(address)

            as_slug = "".join(
                ch for ch in autonomous_system.name.lower() if ch.isalnum()
            ) or f"as{autonomous_system.asn}"
            dialect = rng.random()
            city_token = normalize_city(pop.city)
            if dialect < config.ptr_city_rate:
                self.ptr_table.add(
                    address,
                    f"ae{rng.randint(0, 9)}.cr{rng.randint(1, 4)}."
                    f"{city_token}{rng.randint(1, 9)}.{pop.country.lower()}"
                    f".bb.{as_slug}.net",
                )
            elif dialect < config.ptr_city_rate + config.ptr_ntt_rate:
                token = (city_token + "xxxx")[:4] + pop.country.lower() + \
                    f"{rng.randint(1, 9):02d}"
                self.ptr_table.add(
                    address,
                    f"ge-{rng.randint(0, 9)}-0-1.a{rng.randint(10, 99)}."
                    f"{token}.{as_slug}-gin.net",
                )
            elif dialect < config.ptr_city_rate + config.ptr_ntt_rate + config.ptr_opaque_rate:
                self.ptr_table.add(
                    address, f"host-{address & 0xFFFF}.{as_slug}.example.net"
                )

            if rng.random() < config.ipmap_coverage:
                self.ipmap.store(address, pop.country)

        self._build_peeringdb()
        return unresponsive

    def _mark_prominent_addresses(self) -> None:
        """Flag the top quartile of each country's addresses by URL mass.

        The addresses behind major portals are ICMP-responsive and
        correctly geolocated in commercial databases; measurement noise
        concentrates on the long tail, as on the real Internet.  The
        quartile is taken per customer country so one country's site
        sizes never move another's prominence threshold.
        """
        weight: dict[int, int] = {}
        for hostname, truth in self.truth.hosts.items():
            site = self.web.site_of(hostname)
            if site is None:
                continue
            mass = sum(len(page.entries) for page in site.pages.values())
            weight[truth.address] = weight.get(truth.address, 0) + mass
        by_scope: dict[str, list[int]] = {}
        for address, (_a, _p, is_anycast) in self._address_info.items():
            if is_anycast:
                continue
            scope = self._address_scope.get(address, "")
            by_scope.setdefault(scope, []).append(address)
        for unicast in by_scope.values():
            unicast.sort(key=lambda address: (-weight.get(address, 0), address))
            top = max(1, len(unicast) // 4)
            self._prominent_addresses.update(unicast[:top])

    def _build_peeringdb(self) -> None:
        config = self.config
        coverage_by_kind = {
            ASKind.GOVERNMENT: config.peeringdb_gov_coverage,
            ASKind.SOE: config.peeringdb_soe_coverage,
            ASKind.LOCAL_HOSTING: config.peeringdb_local_coverage,
            ASKind.REGIONAL_HOSTING: config.peeringdb_regional_coverage,
            ASKind.GLOBAL_PROVIDER: 1.0,
            ASKind.ISP: 0.7,
        }
        for autonomous_system in self.registry.iter_ases():
            # One stream per AS: a new AS appearing (evolution adding an
            # SOE) cannot perturb any other AS's coverage draws.
            rng = derive_rng(config.seed, "peeringdb", autonomous_system.asn)
            coverage = coverage_by_kind[autonomous_system.kind]
            if rng.random() > coverage:
                continue
            name = autonomous_system.name
            org = autonomous_system.organization
            notes = ""
            if autonomous_system.kind is ASKind.GOVERNMENT:
                if rng.random() < config.peeringdb_opaque_gov_rate:
                    name = f"NET-{autonomous_system.asn}"
                    org = f"ORG-{autonomous_system.asn}"
            elif autonomous_system.kind is ASKind.SOE and rng.random() < 0.5:
                notes = "Majority state-owned operator."
            self.peeringdb.add(PeeringDbRecord(
                asn=autonomous_system.asn,
                name=name,
                org=org,
                website=autonomous_system.website,
                notes=notes,
            ))

    # --------------------------------------------------------------- topsites

    def _build_topsites(self) -> None:
        if not self.config.include_topsites:
            return
        hosting_mix = (
            (TopsiteHosting.SELF_HOSTING, 0.18),
            (TopsiteHosting.GLOBAL, 0.76),
            (TopsiteHosting.LOCAL, 0.04),
            (TopsiteHosting.FOREIGN, 0.02),
        )
        for code in COMPARISON_COUNTRIES:
            if code not in self.codes:
                continue
            country = get_country(code)
            self._scope_code = code
            rng = derive_rng(self.config.seed, "topsites", code)
            sites: list[TopSite] = []
            hosts: list[str] = []
            for rank in range(1, self.config.topsites_per_country + 1):
                stem = TOPSITE_STEMS[(rank - 1) % len(TOPSITE_STEMS)]
                tld = country.cctld if rng.random() < 0.6 else "com"
                label = f"{stem}{rank}" if tld != "com" else f"{stem}{rank}-{country.cctld}"
                hostname = self._unique_hostname(f"www.{label}.{tld}")
                hosting = rng.choices(
                    [h for h, _ in hosting_mix],
                    weights=[w for _, w in hosting_mix],
                    k=1,
                )[0]
                self._deploy_topsite(country, hostname, hosting, rng)
                landing = f"https://{hostname}/"
                sites.append(TopSite(
                    country=code, hostname=hostname, landing_url=landing,
                    rank=rank, truth_hosting=hosting,
                ))
                hosts.append(hostname)
            self.topsites[code] = sites
            self.truth.topsite_hosts[code] = hosts

    def _deploy_topsite(
        self,
        country: Country,
        hostname: str,
        hosting: TopsiteHosting,
        rng: random.Random,
    ) -> None:
        code = country.code
        from repro.urltools import registrable_domain

        sans = [hostname]
        if hosting is TopsiteHosting.SELF_HOSTING:
            enterprise = self._enterprise_as_for(code)
            serving = code if rng.random() < 0.70 else "US"
            pop = next(
                (p for p in enterprise.pops if p.country == serving),
                enterprise.pops[0],
            )
            address = self._new_address(enterprise, pop, rng)
            if rng.random() < 0.25:
                # Off-domain static brand covered by the SAN list.
                brand = registrable_domain(hostname).split(".")[0]
                target = self._unique_hostname(f"cdn.{brand}-static.com")
                sans.append(f"{brand}-static.com")
            else:
                target = f"origin.{registrable_domain(hostname)}"
            self.zone.add(hostname, CnameRecord(target=target))
            self.zone.add(target, StaticARecord(address=address))
        elif hosting is TopsiteHosting.GLOBAL:
            specs = list(GLOBAL_PROVIDERS)
            provider = self._global_as[
                rng.choices(specs, weights=[s.base_weight for s in specs], k=1)[0].key
            ]
            domestic = provider.has_pop_in(code) and rng.random() < 0.52
            if domestic:
                pop = provider.pops_in(code)[0]
            else:
                hub = rng.choice(["US", "DE"])
                pop = next(
                    (p for p in provider.pops if p.country == hub),
                    provider.pops[0],
                )
            address = self._new_address(provider, pop, rng)
            target = self._next_cname_target(provider)
            self.zone.add(hostname, CnameRecord(target=target))
            self.zone.add(target, StaticARecord(address=address))
        elif hosting is TopsiteHosting.LOCAL:
            provider = self._weighted_as(self._local_as[code], 1.0, rng)
            address = self._new_address(provider, provider.pops[0], rng)
            self.zone.add(hostname, StaticARecord(address=address))
        else:  # FOREIGN
            continent = country.continent
            candidates = [
                provider for provider in self._regional.get(continent, [])
                if provider.registration_country != code
            ]
            provider = candidates[0] if candidates else self._global_as["cloudflare"]
            pop = next(
                (p for p in provider.pops
                 if p.country == provider.registration_country),
                provider.pops[0],
            )
            address = self._new_address(provider, pop, rng)
            self.zone.add(hostname, StaticARecord(address=address))

        self.certificates.install(
            hostname, Certificate(subject=hostname, sans=tuple(sans))
        )
        spec = SiteBuildSpec(
            hostname=hostname,
            country=code,
            kind=SiteKind.AGENCY,
            landing_paths=["/"],
            internal_budget=rng.randint(8, 40),
            size_sampler=self._size_sampler(1.0, rng),
        )
        site = build_site(spec, (0.85, 0.15, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0), rng)
        self.web.register_site(site)

    def _enterprise_as_for(self, code: str) -> AutonomousSystem:
        existing = self._enterprise_as.get(code)
        if existing is not None:
            return existing
        autonomous_system = AutonomousSystem(
            asn=self._alloc_country_asn(code),
            name=f"CORPNET-{code}",
            organization=f"Enterprise Colocation {get_country(code).name}",
            registration_country=code,
            kind=ASKind.ISP,
            pops=(self._pop_at(code), self._pop_at("US")),
            website=f"https://www.corpnet-{code.lower()}.example",
            contact_domain=f"corpnet-{code.lower()}.example",
        )
        self.registry.register_as(autonomous_system)
        self._enterprise_as[code] = autonomous_system
        return autonomous_system

    # -------------------------------------------------------------------- run

    def run(self) -> SyntheticWorld:
        self._build_global_providers()
        self._build_adoption()
        self._build_regional_providers()
        for code in self.codes:
            self._build_country(get_country(code))
        self._build_topsites()
        self._scope_code = None
        unresponsive = self._build_measurement_databases()
        fabric = ServingFabric(self.registry, self.anycast_index)
        for address in unresponsive:
            fabric.mark_unresponsive(address)
        return SyntheticWorld(
            config=self.config,
            registry=self.registry,
            whois=WhoisService(self.registry),
            zone=self.zone,
            resolver=Resolver(self.zone),
            certificates=self.certificates,
            anycast_index=self.anycast_index,
            fabric=fabric,
            web=self.web,
            vpn=VpnCatalog(),
            ipinfo=self.ipinfo,
            manycast=self.manycast,
            ptr_table=self.ptr_table,
            hoiho=HoihoExtractor(self.ptr_table),
            ipmap=self.ipmap,
            peeringdb=self.peeringdb,
            websearch=self.websearch,
            truth=self.truth,
            topsites=self.topsites,
            nameservers=self.nameservers,
        )


__all__ = [
    "HostTruth", "GroundTruth", "SyntheticWorld", "SYNTHETIC_ASN_BASE",
    "world_key",
]
