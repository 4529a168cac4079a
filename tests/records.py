"""The per-URL record view of a dataset, for tests and the test oracle.

A dataset holds each country's URLs as a
:class:`~repro.core.dataset.HostTable`.  Tests that state facts per URL,
and the record-loop reference analyses in ``tests/analysis/oracle.py``,
read them as :class:`Record` tuples instead: one per URL row, its own
columns plus its host row's nine annotations, in the field order of
:data:`repro.io.RECORD_FIELDS`.  :func:`build_country` goes the other
way, for hand-built test datasets.
"""

from __future__ import annotations

import enum
from typing import Iterator, NamedTuple, Optional, Sequence

from repro.categories import HostingCategory
from repro.core.dataset import (
    CountryDataset,
    GovernmentHostingDataset,
    HostRow,
    HostTable,
    intern_rows,
)
from repro.core.geolocation import ValidationMethod
from repro.core.urlfilter import FilterVia


class Record(NamedTuple):
    """One unique government URL with its hostname's annotations."""

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
        """Whether the URL is dropped from location-based analyses."""
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


#: Built record lists by ``id`` of their country dataset.  An entry holds
#: the dataset too, so the ``id`` is not reused while the entry lives;
#: the oldest entry goes once :data:`_MEMO_SIZE` are held.
_MEMO: dict[int, tuple[CountryDataset, list[Record]]] = {}
_MEMO_SIZE = 256


def records_of(country_dataset: CountryDataset) -> list[Record]:
    """``country_dataset``'s records in URL-row order.

    Memoized, so every caller gets the same list: never mutate it.
    """
    entry = _MEMO.get(id(country_dataset))
    if entry is None:
        table = country_dataset.host_table
        country = country_dataset.country
        annotations = [row[1:] for row in table.hosts]
        built = [
            Record._make((url, hostname, country, size_bytes, via, depth)
                         + annotations[host])
            for (url, hostname, size_bytes, via, depth), host
            in zip(table.urls, table.host_index)
        ]
        if len(_MEMO) >= _MEMO_SIZE:
            del _MEMO[next(iter(_MEMO))]
        entry = _MEMO[id(country_dataset)] = (country_dataset, built)
    return entry[1]


def iter_records(dataset: GovernmentHostingDataset) -> Iterator[Record]:
    """Every record of ``dataset``, country by country."""
    for country_dataset in dataset.countries.values():
        yield from records_of(country_dataset)


def included_records(country_dataset: CountryDataset) -> list[Record]:
    """The records whose server location was validated."""
    return [record for record in records_of(country_dataset)
            if not record.excluded]


def build_country(
    country: str,
    records: Sequence[Record],
    landing_count: int = 0,
    discarded_url_count: int = 0,
    unresolved_hostnames: Sequence[str] = (),
    depth_histogram: Optional[dict[int, int]] = None,
) -> CountryDataset:
    """A hand-built country holding ``records``.

    Each record's hostname and nine annotations are interned into host
    rows, so a hostname whose records disagree keeps one row per
    variant.  A record's ``country`` is not stored: the records of
    :func:`records_of` take ``country``.
    """
    rows, host_index = intern_rows(
        record[1:2] + record[6:] for record in records)
    table = HostTable(
        [HostRow._make(row) for row in rows],
        [(record.url, record.hostname, record.size_bytes, record.via,
          record.depth) for record in records],
        host_index,
    )
    return CountryDataset(country, landing_count, lambda: table,
                          discarded_url_count, list(unresolved_hostnames),
                          dict(depth_histogram or {}))


def record_dict(record: Record) -> dict:
    """One record as the JSON object of its jsonl line."""
    return {name: value.value if isinstance(value, enum.Enum) else value
            for name, value in zip(Record._fields, record)}
