"""Picklable per-country partial results and their deterministic merges.

The pipeline's per-country phase-1 work (crawl, filter, map, geolocate)
has no cross-country data dependency, so executors run it in any order
and on any number of workers.  Two reductions *do* cross countries:

* the :class:`~repro.core.classification.ProviderFootprint` every AS
  accumulates (the paper's Global-provider definition needs the full
  footprint before categories can be assigned), and
* the Table 4 :class:`~repro.core.geolocation.ValidationStats`, which
  count each server address exactly once.

Both are merged here with explicitly order-independent functions: the
footprint is a set union, and the validation tally is *replayed* in
canonical country order from the per-country verdict sequences, so the
result is bit-identical to a serial run no matter how the phase-1 work
was sharded or in which order shards completed.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional, Sequence

from repro.core.classification import ProviderFootprint
from repro.core.geolocation import GeoVerdict, ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from repro.faults.report import FaultReport, merge_fault_reports


@dataclasses.dataclass(frozen=True, slots=True)
class HostAnnotation:
    """Per-hostname phase-1 facts (everything but the hosting category)."""

    address: int
    asn: int
    organization: str
    registered_country: str
    gov_operated: bool
    server_country: Optional[str]
    anycast: bool
    validation: ValidationMethod


#: Compact per-URL observation: (url, hostname, size_bytes, via, depth).
UrlObservation = tuple[str, str, int, FilterVia, int]


class CountryPartial:
    """Everything phase-1 learned about one country.

    Picklable, so process workers can ship it back to the driver; small,
    because URLs are stored as tuples and per-host facts are factored
    out of the per-URL rows.

    The *bulk* of a partial — ``hosts`` and ``urls``, everything record
    assembly needs and nothing the driver's merges touch — may be given
    directly or through a deferred ``bulk`` loader returning the
    ``(hosts, urls)`` pair.  The scan cache uses the latter: a warm
    start reads and integrity-checks every entry up front but decodes
    the bulk only when (and if) the records are materialized.  Loaders
    must be pure, so a deferred partial equals its eager twin no matter
    when the bulk is first touched.
    """

    __slots__ = (
        "country", "landing_count", "discarded_url_count",
        "unresolved_hostnames", "depth_histogram", "verdicts",
        "footprint", "faults", "_hosts", "_urls", "_load_bulk",
    )

    def __init__(
        self,
        country: str,
        landing_count: int,
        discarded_url_count: int,
        unresolved_hostnames: list[str],
        depth_histogram: dict[int, int],
        hosts: Optional[dict[str, HostAnnotation]] = None,
        urls: Optional[list[UrlObservation]] = None,
        verdicts: tuple[GeoVerdict, ...] = (),
        footprint: Optional[ProviderFootprint] = None,
        faults: Optional[FaultReport] = None,
        bulk: Optional[Callable[[], tuple[dict, list]]] = None,
    ) -> None:
        if (bulk is None) == (hosts is None):
            raise ValueError("pass either hosts/urls or a bulk loader")
        self.country = country
        self.landing_count = landing_count
        self.discarded_url_count = discarded_url_count
        self.unresolved_hostnames = unresolved_hostnames
        #: URL counts per discovery depth.
        self.depth_histogram = depth_histogram
        #: Geolocation verdicts in deterministic (sorted-hostname) order,
        #: one per resolved hostname — the replay input for the stats merge.
        self.verdicts = verdicts
        #: Continental footprint observed by this country alone.
        self.footprint = footprint if footprint is not None else ProviderFootprint()
        #: Fault accounting for this country's scan (empty when fault
        #: injection is disabled); merged on the driver with
        #: :func:`merge_faults` — a commutative monoid, like the footprint.
        self.faults = faults if faults is not None else FaultReport()
        self._hosts = hosts
        self._urls = urls
        self._load_bulk = bulk

    def _materialize(self) -> None:
        hosts, urls = self._load_bulk()
        self._hosts = hosts
        self._urls = urls
        self._load_bulk = None

    @property
    def hosts(self) -> dict[str, HostAnnotation]:
        """Phase-1 annotations per confirmed government hostname."""
        if self._hosts is None:
            self._materialize()
        return self._hosts

    @property
    def urls(self) -> list[UrlObservation]:
        """Accepted URLs, in archive order."""
        if self._urls is None:
            self._materialize()
        return self._urls

    # Pickling materializes the bulk: process workers and the cache
    # always ship complete partials.
    def __getstate__(self) -> tuple:
        return (
            self.country, self.landing_count, self.discarded_url_count,
            self.unresolved_hostnames, self.depth_histogram, self.hosts,
            self.urls, self.verdicts, self.footprint, self.faults,
        )

    def __setstate__(self, state: tuple) -> None:
        (self.country, self.landing_count, self.discarded_url_count,
         self.unresolved_hostnames, self.depth_histogram, self._hosts,
         self._urls, self.verdicts, self.footprint, self.faults) = state
        self._load_bulk = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountryPartial):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bulk = (
            "bulk deferred" if self._hosts is None
            else f"{len(self._hosts)} hosts, {len(self._urls)} urls"
        )
        return f"<CountryPartial {self.country}: {bulk}>"


def merge_faults(partials: Iterable[CountryPartial]) -> FaultReport:
    """Union of the per-country fault reports (order-independent)."""
    return merge_fault_reports(partial.faults for partial in partials)


def merge_footprints(partials: Iterable[CountryPartial]) -> ProviderFootprint:
    """Union of the per-country footprints (order-independent)."""
    merged = ProviderFootprint()
    for partial in partials:
        merged = merged.merge(partial.footprint)
    return merged


def merge_validation(partials: Sequence[CountryPartial]) -> ValidationStats:
    """Replay the Table 4 tally over per-country verdict sequences.

    ``partials`` must be in canonical country order (the order the
    countries were submitted, which is also the order a serial run
    processes them).  Each address is counted once, at its first
    appearance in that canonical traversal — exactly the serial
    geolocator's count-on-first-observation rule — so the merged stats
    are identical to a serial run regardless of how the scan phase was
    sharded.  Internally the reduction is a sum of per-country deltas
    via :meth:`ValidationStats.merge`, which is associative with
    identity ``ValidationStats()``.
    """
    counted: set[int] = set()
    total = ValidationStats()
    for partial in partials:
        delta = ValidationStats()
        for verdict in partial.verdicts:
            if verdict.address in counted:
                continue
            counted.add(verdict.address)
            delta.tally(verdict)
        total = total.merge(delta)
    return total


__all__ = [
    "HostAnnotation",
    "UrlObservation",
    "CountryPartial",
    "merge_faults",
    "merge_footprints",
    "merge_validation",
]
