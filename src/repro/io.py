"""Dataset serialization.

The paper makes its dataset "available upon request"; this module is
that request path: it exports a measured
:class:`~repro.core.dataset.GovernmentHostingDataset` to JSON-lines
(one record per unique URL) plus a JSON header, and loads it back
losslessly, so analyses can run without regenerating the world.

A record is one URL with its hostname's annotations; its fields, their
order and their JSON types are :data:`RECORD_FIELDS`.  Exports read
each country's :class:`~repro.core.dataset.HostTable`:
:func:`write_record_lines` formats each host's JSON fields once and,
per URL, only the url, size, via and depth, into exactly the bytes of
``json.dumps`` of the record's dict.  The store's jsonl export writes
through the same function.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import json
import logging
import os
import pathlib
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterator, TextIO, Union

from repro.categories import HostingCategory
from repro.core.dataset import (
    CountryDataset,
    GovernmentHostingDataset,
    HostRow,
    HostTable,
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


#: Every field of a record, in column order (a jsonl line's keys and a
#: CSV row's columns), with the JSON types its value may have.  ``int``
#: is exact: a bool is not one.  ``via``, ``category`` and
#: ``validation`` hold one of their enum's string values, and the
#: :data:`_COUNT_FIELDS` are never negative.
RECORD_FIELDS: tuple[tuple[str, tuple[type, ...]], ...] = (
    ("url", (str,)),
    ("hostname", (str,)),
    ("country", (str,)),
    ("size_bytes", (int,)),
    ("via", (str,)),
    ("depth", (int,)),
    ("address", (int,)),
    ("asn", (int,)),
    ("organization", (str,)),
    ("registered_country", (str,)),
    ("gov_operated", (bool,)),
    ("category", (str,)),
    ("server_country", (str, type(None))),
    ("anycast", (bool,)),
    ("validation", (str,)),
)

_COUNT_FIELDS = ("size_bytes", "depth")
_ENUM_FIELDS = {"via": FilterVia, "category": HostingCategory,
                "validation": ValidationMethod}
#: Each enum field's members by JSON value: a dict lookup converts a
#: value at a fraction of the cost of an ``Enum`` call.
_VIAS, _CATEGORIES, _VALIDATIONS = (
    {member.value: member for member in enum}
    for enum in _ENUM_FIELDS.values())
_JSON_TYPE_NAMES = {str: "a string", int: "an integer", bool: "a boolean",
                    type(None): "null"}

#: A record dict's values in :data:`RECORD_FIELDS` order.
_record_values = itemgetter(*(name for name, _ in RECORD_FIELDS))
#: Every sequence of value types a valid record has.
_VALID_TYPES = frozenset(itertools.product(*(types for _, types
                                             in RECORD_FIELDS)))
#: The names of the nine per-host fields, the tail of a record.
_ANNOTATION_NAMES = tuple(name for name, _ in RECORD_FIELDS[6:])


def _annotation_values(row: HostRow) -> tuple:
    """A host row's nine annotations as JSON values, in
    :data:`RECORD_FIELDS` order."""
    (_, address, asn, organization, registered_country, gov_operated,
     category, server_country, anycast, validation) = row
    return (address, asn, organization, registered_country, gov_operated,
            category.value, server_country, anycast, validation.value)


def _record_rows(data) -> tuple[str, UrlRow, tuple]:
    """A record's dict as its country, its URL row and its host key: the
    hostname plus the nine annotations, in :class:`HostRow` field order.

    Every value is checked against :data:`RECORD_FIELDS`; a
    ``ValueError`` names the first field that fails.
    """
    try:
        values = _record_values(data)
        (url, hostname, country, size_bytes, via, depth, address, asn,
         organization, registered_country, gov_operated, category,
         server_country, anycast, validation) = values
        if (tuple(map(type, values)) in _VALID_TYPES
                and size_bytes >= 0 and depth >= 0):
            return (
                country,
                (url, hostname, size_bytes, _VIAS[via], depth),
                (hostname, address, asn, organization, registered_country,
                 gov_operated, _CATEGORIES[category], server_country,
                 anycast, _VALIDATIONS[validation]),
            )
    except (KeyError, TypeError):
        pass
    raise ValueError(_record_error(data))


def _record_error(data) -> str:
    """Why :func:`_record_rows` refused ``data``."""
    if not isinstance(data, dict):
        return "record is not a JSON object"
    for name, types in RECORD_FIELDS:
        if name not in data:
            return f"field {name!r} is missing"
        value = data[name]
        if type(value) not in types:
            expected = " or ".join(map(_JSON_TYPE_NAMES.get, types))
            return (f"field {name!r} must be {expected}, "
                    f"not {json.dumps(value)}")
        if name in _COUNT_FIELDS and value < 0:
            return (f"field {name!r} must be a non-negative integer, "
                    f"not {value}")
        if name in _ENUM_FIELDS:
            try:
                _ENUM_FIELDS[name](value)
            except ValueError as exc:
                return f"field {name!r}: {exc}"
    raise AssertionError("every field is valid")  # pragma: no cover


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

    Each line is ``json.dumps`` of one URL's record as a dict in
    :data:`RECORD_FIELDS` order.  The hostname, country and the nine
    annotations are formatted once per host row, so per URL only the
    url, size, via and depth are.
    """
    country_field = _json_string(country)
    heads = []
    tails = []
    for row in table.hosts:
        heads.append(f', "hostname": {_json_string(row[0])}, '
                     f'"country": {country_field}, "size_bytes": ')
        annotations = dict(zip(_ANNOTATION_NAMES, _annotation_values(row)))
        tails.append(", " + json.dumps(annotations)[1:] + "\n")
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
    validation statistics); every following line is one URL record,
    country by country in each host table's URL order.
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


def _count(value, where: str, what: str, error=ValueError) -> int:
    """``value`` if it is a non-negative integer (a bool is not one)."""
    if type(value) is not int or value < 0:
        raise error(f"{where}: {what} must be a non-negative integer, "
                    f"not {json.dumps(value)}")
    return value


def validation_from_dict(data, where: str,
                         error=ValueError) -> ValidationStats:
    """The ``validation`` object of a header or manifest, checked."""
    names = sorted(field.name for field in dataclasses.fields(ValidationStats))
    if not isinstance(data, dict) or sorted(data) != names:
        raise error(f"{where}: 'validation' must hold exactly the keys "
                    f"{names}")
    return ValidationStats(**{
        name: _count(value, where, f"'validation' count {name!r}", error)
        for name, value in data.items()
    })


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


def _country_fields(meta, where: str) -> dict:
    """A header country's bookkeeping, each count, list and histogram
    checked for its JSON type: ``CountryDataset`` keyword arguments."""
    hostnames = require(meta, "unresolved_hostnames", list, where)
    if not all(type(hostname) is str for hostname in hostnames):
        raise ValueError(f"{where}: 'unresolved_hostnames' must hold only "
                         f"strings")
    histogram = {}
    for depth, count in require(meta, "depth_histogram", dict,
                                where).items():
        if not (depth.isascii() and depth.isdigit()):
            raise ValueError(f"{where}: 'depth_histogram' key {depth!r} is "
                             f"not a depth")
        histogram[int(depth)] = _count(
            count, where, f"'depth_histogram' count of depth {depth}")
    return {
        "landing_count": _count(require(meta, "landing_count", int, where),
                                where, "'landing_count'"),
        "discarded_url_count": _count(
            require(meta, "discarded_url_count", int, where),
            where, "'discarded_url_count'"),
        "unresolved_hostnames": list(hostnames),
        "depth_histogram": histogram,
    }


def load_dataset(path: PathLike) -> GovernmentHostingDataset:
    """Read a dataset previously written by :func:`save_dataset`.

    Every ``CountryDataset`` is constructed up front from the header,
    and each line is parsed straight into its country's host table as
    the file streams by: a URL row, plus its hostname and nine
    annotations interned into host rows (a hostname whose lines
    disagree keeps one row per variant), so peak memory is the URL rows
    and one row per distinct host (plus the line being parsed).  Every
    header count, list and histogram and every record field is checked
    for its JSON type: damage raises ``ValueError`` naming the line and
    the field.
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
                load_table=functools.partial(_interned_table, *table),
                **_country_fields(meta, where),
            )
        count = 0
        for line_number, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            try:
                country, url_row, host = _record_rows(json.loads(line))
            except ValueError as exc:
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

    Columns follow :data:`RECORD_FIELDS`.  Rows are built from the host
    tables: each host's nine fields are converted once, and a row is
    its URL's columns plus that tuple.
    """
    import csv

    count = 0
    with open_replacement(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(name for name, _ in RECORD_FIELDS)
        for country_dataset in dataset.countries.values():
            country = country_dataset.country
            table = country_dataset.host_table
            annotations = list(map(_annotation_values, table.hosts))
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
    "RECORD_FIELDS",
    "dataset_header",
    "require",
    "validation_from_dict",
    "open_replacement",
    "write_record_lines",
    "save_dataset",
    "load_dataset",
    "export_csv",
]
