"""Server geolocation (Section 3.5).

The four-step process of the paper:

1. query the IPInfo database for every address;
2. identify anycast addresses using the MAnycast2 snapshot;
3. verify country-level geolocation by active probing: up to five
   RIPE-Atlas probes in the relevant country send three pings each and
   the minimum RTT is compared against a per-country threshold derived
   from the road distance between the country's two furthest cities;
4. for unicast addresses failing step 3, fall back to a multistage
   process -- HOIHO PTR geohints, RIPE IPmap's cache, then
   single-radius probing -- and *exclude* addresses whose multistage
   location conflicts with IPInfo, or that remain unresolved.

Anycast addresses are validated per vantage country: if the minimum
in-country latency beats the country threshold, the anycast service has
sites within the country; otherwise the address is excluded.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import TYPE_CHECKING, Optional

from repro.measure.atlas import AtlasClient

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.session import FaultSession
from repro.measure.hoiho import HoihoExtractor
from repro.measure.ipinfo import IpInfoDatabase
from repro.measure.ipmap import IpMapCache
from repro.measure.manycast import MAnycastSnapshot
from repro.netsim.latency import country_threshold_ms
from repro.world.geography import road_span_km

#: Acceptance radius for the single-radius fallback: the target must be
#: within a few hundred kilometres of some probe.
DEFAULT_SINGLE_RADIUS_MS = 10.0


class ValidationMethod(enum.Enum):
    """How a location was (or was not) validated -- the Table 4 columns."""

    ACTIVE_PROBING = "AP"
    MULTISTAGE = "MG"
    UNRESOLVED = "UR"


@dataclasses.dataclass(frozen=True)
class GeoVerdict:
    """Geolocation outcome for one address (for one country, if anycast)."""

    address: int
    #: Validated country, or None when the address is excluded.
    country: Optional[str]
    method: ValidationMethod
    anycast: bool
    #: IPInfo's claim (step 1), informational.
    claimed_country: Optional[str]
    #: Whether multistage geolocation contradicted IPInfo (exclusion cause).
    conflict: bool = False
    #: Which Section 3.5 step produced the location: ``"active_probing"``,
    #: ``"hoiho"``, ``"ipmap"``, ``"single_radius"``, or None when every
    #: step came up empty.  A pure function of the world (like the rest
    #: of the verdict), so the observability layer's funnel metrics can
    #: be replayed deterministically on the driver no matter which shard
    #: computed the verdict.
    source: Optional[str] = None

    @property
    def excluded(self) -> bool:
        """Addresses without a validated location are dropped from analysis."""
        return self.country is None


@dataclasses.dataclass
class ValidationStats:
    """Tallies reproducing Table 4 of the paper.

    Stats form a commutative monoid under :meth:`merge` (identity:
    ``ValidationStats()``), so per-shard tallies from parallel pipeline
    executions can be reduced in any grouping without changing the
    result.
    """

    unicast_ap: int = 0
    unicast_mg: int = 0
    unicast_unresolved: int = 0
    unicast_conflicts: int = 0
    anycast_ap: int = 0
    anycast_unresolved: int = 0

    @property
    def unicast_total(self) -> int:
        return self.unicast_ap + self.unicast_mg + self.unicast_unresolved

    @property
    def anycast_total(self) -> int:
        return self.anycast_ap + self.anycast_unresolved

    def merge(self, other: "ValidationStats") -> "ValidationStats":
        """Component-wise sum of two disjoint tallies."""
        return ValidationStats(
            unicast_ap=self.unicast_ap + other.unicast_ap,
            unicast_mg=self.unicast_mg + other.unicast_mg,
            unicast_unresolved=self.unicast_unresolved + other.unicast_unresolved,
            unicast_conflicts=self.unicast_conflicts + other.unicast_conflicts,
            anycast_ap=self.anycast_ap + other.anycast_ap,
            anycast_unresolved=self.anycast_unresolved + other.anycast_unresolved,
        )

    def __add__(self, other: "ValidationStats") -> "ValidationStats":
        if not isinstance(other, ValidationStats):
            return NotImplemented
        return self.merge(other)

    def tally(self, verdict: "GeoVerdict") -> None:
        """Count one *newly observed address* into the Table 4 columns.

        Callers are responsible for the count-each-address-once rule;
        this method only encodes how a verdict maps onto the columns
        (for the driver's replay, ``merge_validation``).
        """
        if verdict.anycast:
            if verdict.method is ValidationMethod.ACTIVE_PROBING:
                self.anycast_ap += 1
            else:
                self.anycast_unresolved += 1
        elif verdict.method is ValidationMethod.ACTIVE_PROBING:
            self.unicast_ap += 1
        elif verdict.method is ValidationMethod.MULTISTAGE and not verdict.conflict:
            self.unicast_mg += 1
        elif verdict.conflict:
            self.unicast_conflicts += 1
            self.unicast_unresolved += 1
        else:
            self.unicast_unresolved += 1

    def table4(self) -> dict[str, dict[str, float]]:
        """Fractions of addresses validated by AP and MG, or unresolved."""
        def fractions(ap: int, mg: int, unresolved: int) -> dict[str, float]:
            total = ap + mg + unresolved
            if total == 0:
                return {"AP": 0.0, "MG": 0.0, "UR": 0.0}
            return {"AP": ap / total, "MG": mg / total, "UR": unresolved / total}

        return {
            "unicast": fractions(self.unicast_ap, self.unicast_mg,
                                 self.unicast_unresolved),
            "anycast": fractions(self.anycast_ap, 0, self.anycast_unresolved),
        }


class Geolocator:
    """Runs the four-step geolocation process over the measurement tools."""

    def __init__(
        self,
        ipinfo: IpInfoDatabase,
        manycast: MAnycastSnapshot,
        atlas: AtlasClient,
        hoiho: HoihoExtractor,
        ipmap: IpMapCache,
        single_radius_ms: float = DEFAULT_SINGLE_RADIUS_MS,
        threshold_slack_ms: float = 10.0,
        #: Ablation switches (see benchmarks/bench_ablation_geolocation.py).
        enable_active_probing: bool = True,
        enable_hoiho: bool = True,
        enable_ipmap: bool = True,
        enable_single_radius: bool = True,
        #: Ablation: replace the per-country road-distance thresholds of
        #: Section 3.5 with one fixed global threshold (milliseconds).
        fixed_threshold_ms: Optional[float] = None,
    ) -> None:
        self._ipinfo = ipinfo
        self._manycast = manycast
        self._atlas = atlas
        self._hoiho = hoiho
        self._ipmap = ipmap
        self._single_radius_ms = single_radius_ms
        self._slack_ms = threshold_slack_ms
        self._enable_ap = enable_active_probing
        self._enable_hoiho = enable_hoiho
        self._enable_ipmap = enable_ipmap
        self._enable_single_radius = enable_single_radius
        self._fixed_threshold_ms = fixed_threshold_ms
        self._thresholds: dict[str, float] = {}
        self._unicast_cache: dict[int, GeoVerdict] = {}
        self._anycast_cache: dict[tuple[int, str], GeoVerdict] = {}

    # ------------------------------------------------------------------ API

    def is_anycast(self, address: int) -> bool:
        """Step 2: whether the MAnycast2 snapshot flags the address."""
        return self._manycast.is_anycast(address)

    def locate(
        self,
        address: int,
        vantage_country: str,
        faults: Optional["FaultSession"] = None,
    ) -> GeoVerdict:
        """Geolocate an address observed by ``vantage_country``'s crawl.

        With a fault session, every measurement feeding the process —
        IPInfo queries, Atlas pings, the single-radius fallback — is
        subject to injected failures; unrecoverable ones degrade into
        the existing :attr:`ValidationMethod.UNRESOLVED` / exclusion
        paths.  Faulted verdicts are country-scoped (each national crawl
        does its own lookups), so they are memoized on the session and
        never written to the shared caches.  The geolocator keeps no
        Table 4 tally: the driver replays every scan's verdicts into one
        (:func:`repro.exec.partials.merge_validation`).
        """
        if faults is not None:
            cached = faults.verdict_memo.get(address)
            if cached is not None:
                return cached
            if self.is_anycast(address):
                verdict = self._anycast_verdict(
                    address, vantage_country, faults=faults
                )
            else:
                verdict = self._locate_unicast_uncached(address, faults=faults)
            faults.verdict_memo[address] = verdict
            return verdict
        if self.is_anycast(address):
            return self.locate_anycast(address, vantage_country)
        return self.locate_unicast(address)

    def locate_unicast(self, address: int) -> GeoVerdict:
        """Steps 1, 3 and 4 for a unicast address (memoized)."""
        cached = self._unicast_cache.get(address)
        if cached is not None:
            return cached
        verdict = self._locate_unicast_uncached(address)
        self._unicast_cache[address] = verdict
        return verdict

    def locate_anycast(self, address: int, country: str) -> GeoVerdict:
        """Step 3 for an anycast address as seen from ``country``."""
        key = (address, country)
        cached = self._anycast_cache.get(key)
        if cached is not None:
            return cached
        verdict = self._anycast_verdict(address, country)
        self._anycast_cache[key] = verdict
        return verdict

    def _anycast_verdict(
        self,
        address: int,
        country: str,
        faults: Optional["FaultSession"] = None,
    ) -> GeoVerdict:
        """In-country probing of an anycast address (no caching)."""
        rtt = self._atlas.min_rtt_from_country(country, address, faults=faults)
        within = rtt is not None and rtt < self._threshold(country)
        claimed = self._ipinfo.country_of(address, faults=faults)
        if within:
            return GeoVerdict(
                address=address, country=country,
                method=ValidationMethod.ACTIVE_PROBING, anycast=True,
                claimed_country=claimed, source="active_probing",
            )
        return GeoVerdict(
            address=address, country=None,
            method=ValidationMethod.UNRESOLVED, anycast=True,
            claimed_country=claimed,
        )

    # ------------------------------------------------------------- internals

    def _threshold(self, country: str) -> float:
        if self._fixed_threshold_ms is not None:
            return self._fixed_threshold_ms
        threshold = self._thresholds.get(country)
        if threshold is None:
            threshold = country_threshold_ms(
                road_span_km(country), slack_ms=self._slack_ms
            )
            self._thresholds[country] = threshold
        return threshold

    def _locate_unicast_uncached(
        self, address: int, faults: Optional["FaultSession"] = None
    ) -> GeoVerdict:
        claimed = self._ipinfo.country_of(address, faults=faults)
        if claimed is not None and self._enable_ap:
            rtt = self._atlas.min_rtt_from_country(claimed, address,
                                                   faults=faults)
            if rtt is not None and rtt < self._threshold(claimed):
                return GeoVerdict(
                    address=address, country=claimed,
                    method=ValidationMethod.ACTIVE_PROBING, anycast=False,
                    claimed_country=claimed, source="active_probing",
                )
        hint, stage = self._multistage_hint(address, faults=faults)
        if hint is None:
            return GeoVerdict(
                address=address, country=None,
                method=ValidationMethod.UNRESOLVED, anycast=False,
                claimed_country=claimed,
            )
        if claimed is not None and hint != claimed:
            # Conservative exclusion: multistage contradicts IPInfo.
            return GeoVerdict(
                address=address, country=None,
                method=ValidationMethod.MULTISTAGE, anycast=False,
                claimed_country=claimed, conflict=True, source=stage,
            )
        return GeoVerdict(
            address=address, country=hint,
            method=ValidationMethod.MULTISTAGE, anycast=False,
            claimed_country=claimed, source=stage,
        )

    def _multistage_hint(
        self, address: int, faults: Optional["FaultSession"] = None
    ) -> tuple[Optional[str], Optional[str]]:
        """Step 4: HOIHO, then IPmap, then single-radius probing.

        Returns ``(country hint, stage name)`` so the verdict records
        which fallback resolved the address.
        """
        if self._enable_hoiho:
            hint = self._hoiho.country_hint(address)
            if hint is not None:
                return hint, "hoiho"
        if self._enable_ipmap:
            hint = self._ipmap.lookup(address)
            if hint is not None:
                return hint, "ipmap"
        if self._enable_single_radius:
            best = self._atlas.nearest_probe_rtt(address, faults=faults)
            if best is not None and best.min_rtt_ms is not None:
                if best.min_rtt_ms < self._single_radius_ms:
                    return best.probe.country, "single_radius"
        return None, None


__all__ = [
    "DEFAULT_SINGLE_RADIUS_MS",
    "ValidationMethod",
    "GeoVerdict",
    "ValidationStats",
    "Geolocator",
]
