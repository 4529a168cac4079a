"""Dataset serialization.

The paper makes its dataset "available upon request"; this module is
that request path: it exports a measured
:class:`~repro.core.dataset.GovernmentHostingDataset` to JSON-lines
(one record per unique URL) plus a JSON header, and loads it back
losslessly, so analyses can run without regenerating the world.

Exports read each country's :class:`~repro.core.dataset.HostTable`,
not its records: :func:`write_record_lines` formats each host's JSON
fields once and, per URL, only the url, size, via and depth, into
exactly the bytes of ``json.dumps(record_to_dict(record))``.  The
store's jsonl export writes through the same function.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import logging
import os
import pathlib
from json.encoder import encode_basestring_ascii
from typing import Iterator, TextIO, Union

from repro.categories import HostingCategory
from repro.core.dataset import (
    CountryDataset,
    GovernmentHostingDataset,
    HostRow,
    HostTable,
    UrlRecord,
    UrlRow,
)
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from repro.faults.report import FaultReport

logger = logging.getLogger(__name__)

#: Format marker written into every export header.
FORMAT_VERSION = 1

#: Record count past which :func:`load_dataset` warns that the jsonl
#: path is the wrong tool (one JSON parse per line)
#: and points at the columnar store (``repro-gov convert``).
LARGE_FILE_RECORDS = 1_000_000

PathLike = Union[str, pathlib.Path]


def record_to_dict(record: UrlRecord) -> dict:
    """One record as a JSON-serializable dict."""
    return {
        "url": record.url,
        "hostname": record.hostname,
        "country": record.country,
        "size_bytes": record.size_bytes,
        "via": record.via.value,
        "depth": record.depth,
        **_annotations_to_dict(record[6:]),
    }


def _annotations_to_dict(annotations: tuple) -> dict:
    """The nine per-host fields of a record (``record[6:]``, or a host
    row's ``row[1:]``) as the tail of :func:`record_to_dict`."""
    (address, asn, organization, registered_country, gov_operated,
     category, server_country, anycast, validation) = annotations
    return {
        "address": address,
        "asn": asn,
        "organization": organization,
        "registered_country": registered_country,
        "gov_operated": gov_operated,
        "category": category.value,
        "server_country": server_country,
        "anycast": anycast,
        "validation": validation.value,
    }


def record_from_dict(data: dict) -> UrlRecord:
    """Inverse of :func:`record_to_dict`."""
    (url, hostname, size_bytes, via, depth), host = _record_rows(data)
    return UrlRecord(url, hostname, data["country"], size_bytes, via, depth,
                     *host[1:])


def _record_rows(data: dict) -> tuple[UrlRow, tuple]:
    """A record's dict as its URL row and its host key: the hostname
    plus the nine annotations, in :class:`HostRow` field order."""
    hostname = data["hostname"]
    return (
        (data["url"], hostname, data["size_bytes"], FilterVia(data["via"]),
         data["depth"]),
        (hostname, data["address"], data["asn"], data["organization"],
         data["registered_country"], data["gov_operated"],
         HostingCategory(data["category"]), data["server_country"],
         data["anycast"], ValidationMethod(data["validation"])),
    )


def _interned_table(hosts: dict, urls: list, host_index: list) -> HostTable:
    """The host table of rows interned while a file streamed by."""
    new = tuple.__new__
    return HostTable([new(HostRow, row) for row in hosts], urls, host_index)


def dataset_header(dataset: GovernmentHostingDataset) -> dict:
    """The jsonl header object (shared with ``repro.store`` conversions,
    which must reproduce :func:`save_dataset` output byte for byte)."""
    header = {
        "format": FORMAT_VERSION,
        "validation": dataclasses.asdict(dataset.validation),
        "countries": {
            code: {
                "landing_count": cd.landing_count,
                "discarded_url_count": cd.discarded_url_count,
                "unresolved_hostnames": cd.unresolved_hostnames,
                "depth_histogram": cd.depth_histogram,
            }
            for code, cd in sorted(dataset.countries.items())
        },
    }
    # The key is only written for faulted runs, so exports from
    # rate-0 runs stay byte-identical to pre-fault-layer exports.
    if dataset.faults.countries:
        header["faults"] = dataset.faults.to_dict()
    return header


@contextlib.contextmanager
def open_replacement(path: PathLike) -> Iterator[TextIO]:
    """Write ``path`` through a temp sibling that replaces it at the end.

    The block writes a ``.tmp.<pid>`` file next to ``path``, which
    ``os.replace`` moves over ``path`` only once the block completes;
    any exception removes the temp file instead, so ``path`` keeps its
    old bytes (or stays absent) -- never half of a new file.  Line ends
    are written as given (``newline=""``, which the csv module needs).
    """
    path = pathlib.Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with tmp.open("w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


#: A default ``json.dumps`` call's string encoder: strings formatted
#: with it join into the bytes ``json.dumps`` writes for a whole dict.
_json_string = encode_basestring_ascii


def write_record_lines(handle: TextIO, country: str, table: HostTable) -> int:
    """Write one country's records as jsonl lines; returns their number.

    Each line is ``json.dumps(record_to_dict(record))`` of the record
    the host table describes.  The hostname, country and the nine
    annotations are formatted once per host row, so per URL only the
    url, size, via and depth are.
    """
    country_field = _json_string(country)
    heads = []
    tails = []
    for row in table.hosts:
        heads.append(f', "hostname": {_json_string(row[0])}, '
                     f'"country": {country_field}, "size_bytes": ')
        tails.append(", " + json.dumps(_annotations_to_dict(row[1:]))[1:]
                     + "\n")
    # Keyed by ``FilterVia._value_`` (a plain attribute): a dict keyed by
    # the members would call ``Enum.__hash__`` for every URL.
    vias = {via.value: f', "via": {_json_string(via.value)}, "depth": '
            for via in FilterVia}
    lines = [
        f'{{"url": {_json_string(url)}{heads[host]}{size_bytes}'
        f'{vias[via._value_]}{depth}{tails[host]}'
        for (url, _, size_bytes, via, depth), host
        in zip(table.urls, table.host_index)
    ]
    handle.write("".join(lines))
    return len(lines)


def save_dataset(dataset: GovernmentHostingDataset, path: PathLike) -> int:
    """Write the dataset as JSON lines; returns the number of records.

    Line 1 is a header object (format version, per-country metadata and
    validation statistics); every following line is one URL record, in
    ``iter_records()`` order, written from the host tables.
    """
    count = 0
    with open_replacement(path) as handle:
        handle.write(json.dumps(dataset_header(dataset)) + "\n")
        for country_dataset in dataset.countries.values():
            count += write_record_lines(handle, country_dataset.country,
                                        country_dataset.host_table)
    return count


def require(mapping, key: str, kind: type, where: str, error=ValueError):
    """``mapping[key]`` if ``mapping`` is an object holding a ``kind``.

    Raises ``error`` naming ``where`` and ``key`` otherwise, so a
    damaged header or manifest fails with a message, not a traceback.
    """
    value = mapping.get(key) if isinstance(mapping, dict) else None
    if not isinstance(value, kind):
        raise error(f"{where}: {key!r} is missing or not of type "
                    f"{kind.__name__}")
    return value


def validation_from_dict(data, where: str,
                         error=ValueError) -> ValidationStats:
    """The ``validation`` object of a header or manifest, checked."""
    names = sorted(field.name for field in dataclasses.fields(ValidationStats))
    if not isinstance(data, dict) or sorted(data) != names:
        raise error(f"{where}: 'validation' must hold exactly the keys "
                    f"{names}")
    return ValidationStats(**data)


def _reject_duplicate_keys(pairs: list) -> dict:
    """``object_pairs_hook`` for the header: a duplicate key (usually a
    country listed twice) silently drops data under plain ``json.loads``
    (last value wins), so fail loudly instead."""
    mapping: dict = {}
    for key, value in pairs:
        if key in mapping:
            raise ValueError(f"duplicate key {key!r} in dataset header")
        mapping[key] = value
    return mapping


def load_dataset(path: PathLike) -> GovernmentHostingDataset:
    """Read a dataset previously written by :func:`save_dataset`.

    Every ``CountryDataset`` is constructed up front from the header,
    and each line is parsed straight into its country's host table as
    the file streams by: a URL row, plus its hostname and nine
    annotations interned into host rows (a hostname whose lines
    disagree keeps one row per variant).  No ``UrlRecord`` is built, so
    peak memory is the URL rows and one row per distinct host (plus the
    line being parsed); ``records`` builds the record view on demand.
    """
    path = pathlib.Path(path)
    with path.open("r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line:
            raise ValueError(f"{path}: empty dataset file")
        try:
            header = json.loads(
                header_line, object_pairs_hook=_reject_duplicate_keys
            )
        except ValueError as exc:
            raise ValueError(f"{path}:1: corrupt header ({exc})") from exc
        if not isinstance(header, dict):
            raise ValueError(f"{path}:1: header is not a JSON object")
        if header.get("format") != FORMAT_VERSION:
            raise ValueError(
                f"{path}: unsupported format {header.get('format')!r}"
            )
        validation = validation_from_dict(header.get("validation"),
                                          f"{path}:1")
        countries: dict[str, CountryDataset] = {}
        #: Per country: host key -> host row position, URL rows, and
        #: each URL row's host row position.
        tables: dict[str, tuple[dict, list, list]] = {}
        for code, meta in require(header, "countries", dict,
                                  f"{path}:1").items():
            where = f"{path}:1: country {code!r}"
            table = tables[code] = ({}, [], [])
            countries[code] = CountryDataset(
                country=code,
                landing_count=require(meta, "landing_count", int, where),
                records=functools.partial(_interned_table, *table),
                discarded_url_count=require(meta, "discarded_url_count",
                                            int, where),
                unresolved_hostnames=list(
                    require(meta, "unresolved_hostnames", list, where)
                ),
                depth_histogram={
                    int(depth): count for depth, count
                    in require(meta, "depth_histogram", dict, where).items()
                },
            )
        count = 0
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                url_row, host = _record_rows(data)
                country = data["country"]
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: corrupt record ({exc})"
                ) from exc
            table = tables.get(country)
            if table is None:
                raise ValueError(
                    f"{path}:{line_number}: record country "
                    f"{country!r} is absent from the header's "
                    f"countries map"
                )
            hosts, urls, host_index = table
            urls.append(url_row)
            host_index.append(hosts.setdefault(host, len(hosts)))
            count += 1
            if count == LARGE_FILE_RECORDS + 1:
                logger.warning(
                    "%s exceeds %s records; jsonl loads parse one JSON "
                    "object per record -- convert to a columnar store "
                    "(`repro-gov convert`) for mmap-backed analysis",
                    path, f"{LARGE_FILE_RECORDS:,}",
                )

    return GovernmentHostingDataset(
        countries=countries,
        validation=validation,
        faults=FaultReport.from_dict(header.get("faults", {})),
    )


def export_csv(dataset: GovernmentHostingDataset, path: PathLike) -> int:
    """Write a flat CSV of all records (for spreadsheet-style analysis).

    Columns follow :func:`record_to_dict`.  Rows are built from the
    host tables: each host's nine fields are converted once, and a row
    is its URL's columns plus that tuple.
    """
    import csv

    count = 0
    with open_replacement(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(UrlRecord._fields)
        for country_dataset in dataset.countries.values():
            country = country_dataset.country
            table = country_dataset.host_table
            annotations = [tuple(_annotations_to_dict(row[1:]).values())
                           for row in table.hosts]
            writer.writerows(
                (url, hostname, country, size_bytes, via._value_, depth)
                + annotations[host]
                for (url, hostname, size_bytes, via, depth), host
                in zip(table.urls, table.host_index)
            )
            count += len(table.urls)
    return count


__all__ = [
    "FORMAT_VERSION",
    "LARGE_FILE_RECORDS",
    "dataset_header",
    "record_to_dict",
    "record_from_dict",
    "require",
    "validation_from_dict",
    "open_replacement",
    "write_record_lines",
    "save_dataset",
    "load_dataset",
    "export_csv",
]
