"""The assembled government hosting dataset (Section 4).

One :class:`UrlRecord` per unique government URL, annotated with the
full Table 2 information (address, AS, organization, registration) plus
the hosting category, the validated server location and the validation
method -- everything the Section 5-7 analyses consume.

Nine of a record's fields (address through validation) belong to its
hostname, so each :class:`CountryDataset` keeps its records in per-host
form, a :class:`HostTable`: one :class:`HostRow` per distinct hostname
and annotations, plus the URL rows and each URL's host row.  Summaries,
exports, the analysis index and the store writer read that form;
``records`` / ``iter_records()`` are the lazy compatibility view built
from it.
"""

from __future__ import annotations

import dataclasses
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from repro.categories import HostingCategory
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from repro.faults.report import FaultReport


class UrlRecord(NamedTuple):
    """One unique government URL with its serving-infrastructure annotations.

    A ``NamedTuple`` rather than a frozen dataclass: assembling the
    dataset creates one record per unique URL (~1M at full scale), and
    tuple construction avoids fifteen ``object.__setattr__`` calls per
    record — the single largest cost of the assembly phase.
    """

    url: str
    hostname: str
    country: str
    size_bytes: int
    via: FilterVia
    depth: int
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

    @property
    def excluded(self) -> bool:
        """Whether the record is dropped from location-based analyses."""
        return self.server_country is None

    @property
    def registration_domestic(self) -> bool:
        """Registered in the same country as the government (Figure 6)."""
        return self.registered_country == self.country

    @property
    def server_domestic(self) -> Optional[bool]:
        """Server located in the government's country (None if excluded)."""
        if self.server_country is None:
            return None
        return self.server_country == self.country


class HostRow(NamedTuple):
    """One hostname with the nine annotations its records share.

    Fields follow :class:`UrlRecord` from ``address`` on, so a record is
    its URL columns plus ``host_row[1:]``.
    """

    hostname: str
    address: int
    asn: int
    organization: str
    registered_country: str
    gov_operated: bool
    category: HostingCategory
    server_country: Optional[str]
    anycast: bool
    validation: ValidationMethod


#: One URL's own columns: ``(url, hostname, size_bytes, via, depth)`` --
#: the shape of a phase-1 partial's URL rows, which the pipeline reuses.
UrlRow = tuple[str, str, int, FilterVia, int]

#: A record's :data:`UrlRow`.
_URL_COLUMNS = itemgetter(0, 1, 3, 4, 5)


class HostTable:
    """One country's records in per-host form.

    ``hosts`` holds each distinct (hostname, annotations) row once,
    ``urls`` one :data:`UrlRow` per record in record order, and
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

    @classmethod
    def from_records(cls, records: Sequence[UrlRecord]) -> "HostTable":
        """Intern each record's hostname plus its nine annotations, so
        a hostname whose records disagree keeps one row per variant."""
        rows, host_index = intern_rows(
            record[1:2] + record[6:] for record in records)
        new = tuple.__new__
        urls = list(map(_URL_COLUMNS, records))
        return cls([new(HostRow, row) for row in rows], urls, host_index)


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


def build_records(country: str, table: HostTable) -> list[UrlRecord]:
    """The ``UrlRecord`` view of one country's host table.

    Built through ``tuple.__new__``: the generated NamedTuple
    constructor would otherwise dominate a view of ~1M records.
    """
    new = tuple.__new__
    annotations = [row[1:] for row in table.hosts]
    return [
        new(UrlRecord, (url, hostname, country, size_bytes, via, depth)
            + annotations[host])
        for (url, hostname, size_bytes, via, depth), host
        in zip(table.urls, table.host_index)
    ]


class CountryDataset:
    """All records collected for one country, plus crawl bookkeeping.

    ``records`` is either the materialized record list or a zero-argument
    loader of the country's :class:`HostTable`.  The pipeline passes a
    loader, which categorizes each host once on first read, and so does
    ``repro.io.load_dataset``, which interns host rows as it parses; a
    given list is interned into a host table when something reads that
    form.  Every reader on the run path -- the summary, the jsonl and
    CSV writers, the analysis index, the store writer -- reads
    :attr:`host_table`, so a ``run`` builds no ``UrlRecord``;
    :attr:`records` builds the record view on first access.  Loaders
    must be pure, so the view does not depend on when (or from which
    thread) it is first built.

    A store-backed view also carries what its shard manifest already
    knows -- ``record_count``, a ``hostname_loader`` and
    ``total_bytes`` -- so :attr:`url_count`, :attr:`hostnames` and
    :attr:`total_bytes` answer without reading a column, which keeps
    whole-report runs over a store free of per-URL work.
    """

    __slots__ = ("country", "landing_count", "discarded_url_count",
                 "unresolved_hostnames", "depth_histogram",
                 "_records", "_table", "_load_table", "_hostnames",
                 "_total_bytes", "_record_count", "_hostname_loader")

    def __init__(
        self,
        country: str,
        landing_count: int,
        records,
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
        if callable(records):
            self._records: Optional[list[UrlRecord]] = None
            self._load_table = records
        else:
            self._records = records
            self._load_table = None

    @property
    def host_table(self) -> HostTable:
        """The records in per-host form (loaded or interned on first read)."""
        table = self._table
        if table is None:
            if self._load_table is not None:
                table = self._load_table()
            else:
                table = HostTable.from_records(self._records)
            self._table = table
        return table

    @property
    def records(self) -> list[UrlRecord]:
        """The per-URL records (built from the host table on first access)."""
        records = self._records
        if records is None:
            records = build_records(self.country, self.host_table)
            self._records = records
        return records

    @property
    def materialized(self) -> bool:
        """Whether the record view has been built yet."""
        return self._records is not None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CountryDataset):
            return NotImplemented
        return (
            self.country == other.country
            and self.landing_count == other.landing_count
            and self.discarded_url_count == other.discarded_url_count
            and self.unresolved_hostnames == other.unresolved_hostnames
            and self.depth_histogram == other.depth_histogram
            and self.records == other.records
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        records = (
            f"{len(self._records)} records" if self.materialized
            else "records deferred"
        )
        return f"<CountryDataset {self.country}: {records}>"

    @property
    def url_count(self) -> int:
        """Unique government URLs (landing + internal)."""
        if self._records is not None:
            return len(self._records)
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

    def included_records(self) -> list[UrlRecord]:
        """Records whose server location was validated (analysis input)."""
        return [record for record in self.records if not record.excluded]

    def category_url_fractions(self) -> dict[HostingCategory, float]:
        """Fraction of URLs per hosting category."""
        return _fractions(self.records, by_bytes=False)

    def category_byte_fractions(self) -> dict[HostingCategory, float]:
        """Fraction of bytes per hosting category."""
        return _fractions(self.records, by_bytes=True)


def _fractions(
    records: list[UrlRecord], by_bytes: bool
) -> dict[HostingCategory, float]:
    totals = {category: 0.0 for category in HostingCategory}
    for record in records:
        totals[record.category] += record.size_bytes if by_bytes else 1.0
    grand_total = sum(totals.values())
    if grand_total == 0:
        return totals
    return {category: value / grand_total for category, value in totals.items()}


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

    def iter_records(self) -> Iterator[UrlRecord]:
        """Every record across all countries."""
        for dataset in self.countries.values():
            yield from dataset.records

    def iter_included(self) -> Iterator[UrlRecord]:
        """Every record with a validated server location."""
        for record in self.iter_records():
            if not record.excluded:
                yield record

    def country(self, code: str) -> CountryDataset:
        """Dataset of one country."""
        return self.countries[code.upper()]

    def summarize(self) -> DatasetSummary:
        """Compute the Table 3 headline numbers from the host rows.

        Every field is a count of distinct per-host values, and every
        host row carries at least one URL (a pipeline partial holds only
        hostnames the filter accepted URLs of; an interned table holds
        only rows its records had), so one pass over the hosts equals a
        pass over the records.
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
    "UrlRecord",
    "HostRow",
    "UrlRow",
    "HostTable",
    "build_records",
    "intern_rows",
    "CountryDataset",
    "DatasetSummary",
    "GovernmentHostingDataset",
]
