"""The assembled government hosting dataset (Section 4).

One row per unique government URL, annotated with the full Table 2
information (address, AS, organization, registration) plus the hosting
category, the validated server location and the validation method --
everything the Section 5-7 analyses consume.

The nine annotations belong to the URL's hostname, so each
:class:`CountryDataset` holds its URLs in per-host form, a
:class:`HostTable`: one :class:`HostRow` per distinct hostname and
annotations, plus the URL rows (:data:`UrlRow`) and each URL's host
row.  Summaries, exports, the analysis index and the store writer all
read that form.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from repro.categories import HostingCategory
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from repro.faults.report import FaultReport


class HostRow(NamedTuple):
    """One hostname with the nine annotations its URLs share."""

    hostname: str
    address: int
    asn: int
    organization: str
    registered_country: str
    gov_operated: bool
    category: HostingCategory
    #: Validated server country; None when geolocation excluded the address.
    server_country: Optional[str]
    anycast: bool
    validation: ValidationMethod


#: One URL's own columns: ``(url, hostname, size_bytes, via, depth)`` --
#: the shape of a phase-1 partial's URL rows, which the pipeline reuses.
UrlRow = tuple[str, str, int, FilterVia, int]


class HostTable:
    """One country's URLs in per-host form.

    ``hosts`` holds each distinct (hostname, annotations) row once,
    ``urls`` one :data:`UrlRow` per URL in dataset order, and
    ``host_index[i]`` the position in ``hosts`` of ``urls[i]``'s row.
    Without an explicit ``host_index`` every hostname must name exactly
    one host row (true of a pipeline partial), and the index is resolved
    from the URL rows' hostnames on first read.
    """

    __slots__ = ("hosts", "urls", "_host_index")

    def __init__(self, hosts: list[HostRow], urls: list[UrlRow],
                 host_index: Optional[Sequence[int]] = None) -> None:
        self.hosts = hosts
        self.urls = urls
        self._host_index = host_index

    @property
    def host_index(self) -> Sequence[int]:
        """Per URL row, the position of its host row."""
        index = self._host_index
        if index is None:
            position = {row[0]: i for i, row in enumerate(self.hosts)}
            index = list(map(position.__getitem__,
                             map(itemgetter(1), self.urls)))
            self._host_index = index
        return index


def intern_rows(rows: Iterable[tuple]) -> tuple[list[tuple], list[int]]:
    """Distinct ``rows`` in first-seen order, and each row's position."""
    positions: dict[tuple, int] = {}
    distinct: list[tuple] = []
    index: list[int] = []
    for row in rows:
        position = positions.get(row)
        if position is None:
            position = positions[row] = len(distinct)
            distinct.append(row)
        index.append(position)
    return distinct, index


class CountryDataset:
    """All URLs collected for one country, plus crawl bookkeeping.

    ``load_table`` is a zero-argument loader of the country's
    :class:`HostTable`, called on the first read of :attr:`host_table`.
    The pipeline passes one that categorizes each host once,
    ``repro.io.load_dataset`` one that returns the rows it interned as
    the file streamed by, and a store one that rebuilds the rows from
    the shard's columns.  Loaders must be pure, so the table does not
    depend on when (or from which thread) it is first read.

    A store-backed view also carries what its shard manifest already
    knows -- ``record_count``, a ``hostname_loader`` and
    ``total_bytes`` -- so :attr:`url_count`, :attr:`hostnames` and
    :attr:`total_bytes` answer without reading a column, which keeps
    whole-report runs over a store free of per-URL work.
    """

    __slots__ = ("country", "landing_count", "discarded_url_count",
                 "unresolved_hostnames", "depth_histogram",
                 "_table", "_load_table", "_hostnames",
                 "_total_bytes", "_record_count", "_hostname_loader")

    def __init__(
        self,
        country: str,
        landing_count: int,
        load_table: Callable[[], HostTable],
        discarded_url_count: int,
        unresolved_hostnames: list[str],
        depth_histogram: dict[int, int],
        *,
        record_count: Optional[int] = None,
        hostname_loader=None,
        total_bytes: Optional[int] = None,
    ) -> None:
        self.country = country
        self.landing_count = landing_count
        self.discarded_url_count = discarded_url_count
        self.unresolved_hostnames = unresolved_hostnames
        self.depth_histogram = depth_histogram
        self._hostnames: Optional[set[str]] = None
        self._total_bytes: Optional[int] = total_bytes
        self._record_count = record_count
        self._hostname_loader = hostname_loader
        self._table: Optional[HostTable] = None
        self._load_table = load_table

    @property
    def host_table(self) -> HostTable:
        """The URLs in per-host form (loaded on first read)."""
        table = self._table
        if table is None:
            table = self._table = self._load_table()
        return table

    def _rows(self) -> tuple[list[UrlRow], list[HostRow]]:
        """The URL rows and, per URL row, its host row."""
        table = self.host_table
        return table.urls, list(map(table.hosts.__getitem__, table.host_index))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountryDataset):
            return NotImplemented
        return (
            self.country == other.country
            and self.landing_count == other.landing_count
            and self.discarded_url_count == other.discarded_url_count
            and self.unresolved_hostnames == other.unresolved_hostnames
            and self.depth_histogram == other.depth_histogram
            and self._rows() == other._rows()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "loaded" if self._table is not None else "deferred"
        return f"<CountryDataset {self.country}: host table {state}>"

    @property
    def url_count(self) -> int:
        """Unique government URLs (landing + internal)."""
        if self._record_count is not None:
            return self._record_count
        return len(self.host_table.urls)

    @property
    def internal_count(self) -> int:
        """Internal URLs: everything beyond the landing pages."""
        return max(0, self.url_count - self.landing_count)

    @property
    def hostnames(self) -> set[str]:
        """Unique government hostnames observed (memoized: the host
        table never changes once read, so neither does the set)."""
        hostnames = self._hostnames
        if hostnames is None:
            if self._hostname_loader is not None:
                hostnames = set(self._hostname_loader())
            else:
                hostnames = {row[0] for row in self.host_table.hosts}
            self._hostnames = hostnames
        return hostnames

    @property
    def total_bytes(self) -> int:
        total = self._total_bytes
        if total is None:
            total = sum(map(itemgetter(2), self.host_table.urls))
            self._total_bytes = total
        return total


@dataclasses.dataclass(frozen=True)
class DatasetSummary:
    """The Table 3 headline numbers."""

    landing_urls: int
    internal_urls: int
    total_unique_urls: int
    unique_hostnames: int
    ases: int
    government_ases: int
    unique_addresses: int
    anycast_addresses: int
    countries_with_servers: int


@dataclasses.dataclass
class GovernmentHostingDataset:
    """The full multi-country dataset produced by the pipeline."""

    countries: dict[str, CountryDataset]
    validation: ValidationStats
    #: Fault-injection accounting for the run that produced the dataset
    #: (empty for unfaulted runs — the overwhelmingly common case).
    faults: FaultReport = dataclasses.field(default_factory=FaultReport)

    def country(self, code: str) -> CountryDataset:
        """Dataset of one country."""
        return self.countries[code.upper()]

    def summarize(self) -> DatasetSummary:
        """Compute the Table 3 headline numbers from the host rows.

        Every field is a count of distinct per-host values, and every
        host row carries at least one URL (a pipeline partial holds only
        hostnames the filter accepted URLs of; an interned table holds
        only rows its URLs had), so one pass over the hosts equals a
        pass over the URLs.
        """
        landing = 0
        total = 0
        hostnames: set[str] = set()
        asns: set[int] = set()
        gov_asns: set[int] = set()
        addresses: set[int] = set()
        anycast_addresses: set[int] = set()
        server_countries: set[str] = set()
        for dataset in self.countries.values():
            landing += dataset.landing_count
            total += dataset.url_count
            for (hostname, address, asn, _, _, gov_operated, _,
                 server_country, anycast, _) in dataset.host_table.hosts:
                hostnames.add(hostname)
                asns.add(asn)
                if gov_operated:
                    gov_asns.add(asn)
                addresses.add(address)
                if anycast:
                    anycast_addresses.add(address)
                if server_country is not None:
                    server_countries.add(server_country)
        return DatasetSummary(
            landing_urls=landing,
            internal_urls=max(0, total - landing),
            total_unique_urls=total,
            unique_hostnames=len(hostnames),
            ases=len(asns),
            government_ases=len(gov_asns),
            unique_addresses=len(addresses),
            anycast_addresses=len(anycast_addresses),
            countries_with_servers=len(server_countries),
        )

    def per_country_stats(self) -> dict[str, dict[str, int]]:
        """Per-country landing/internal/hostname counts (Table 8)."""
        stats: dict[str, dict[str, int]] = {}
        for code, dataset in sorted(self.countries.items()):
            stats[code] = {
                "landing_urls": dataset.landing_count,
                "internal_urls": dataset.internal_count,
                "hostnames": len(dataset.hostnames),
            }
        return stats


__all__ = [
    "HostRow",
    "UrlRow",
    "HostTable",
    "intern_rows",
    "CountryDataset",
    "DatasetSummary",
    "GovernmentHostingDataset",
]
