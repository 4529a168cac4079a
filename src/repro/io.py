"""Dataset serialization.

The paper makes its dataset "available upon request"; this module is
that request path: it exports a measured
:class:`~repro.core.dataset.GovernmentHostingDataset` to JSON-lines
(one record per unique URL) plus a JSON header, and loads it back
losslessly, so analyses can run without regenerating the world.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import pathlib
from typing import Union

from repro.categories import HostingCategory
from repro.core.dataset import CountryDataset, GovernmentHostingDataset, UrlRecord
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from repro.faults.report import FaultReport

logger = logging.getLogger(__name__)

#: Format marker written into every export header.
FORMAT_VERSION = 1

#: Record count past which :func:`load_dataset` warns that the jsonl
#: path is the wrong tool (one JSON parse + one ``UrlRecord`` per line)
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
        "address": record.address,
        "asn": record.asn,
        "organization": record.organization,
        "registered_country": record.registered_country,
        "gov_operated": record.gov_operated,
        "category": record.category.value,
        "server_country": record.server_country,
        "anycast": record.anycast,
        "validation": record.validation.value,
    }


def record_from_dict(data: dict) -> UrlRecord:
    """Inverse of :func:`record_to_dict`."""
    return UrlRecord(
        url=data["url"],
        hostname=data["hostname"],
        country=data["country"],
        size_bytes=data["size_bytes"],
        via=FilterVia(data["via"]),
        depth=data["depth"],
        address=data["address"],
        asn=data["asn"],
        organization=data["organization"],
        registered_country=data["registered_country"],
        gov_operated=data["gov_operated"],
        category=HostingCategory(data["category"]),
        server_country=data["server_country"],
        anycast=data["anycast"],
        validation=ValidationMethod(data["validation"]),
    )


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


def save_dataset(dataset: GovernmentHostingDataset, path: PathLike) -> int:
    """Write the dataset as JSON lines; returns the number of records.

    Line 1 is a header object (format version, per-country metadata and
    validation statistics); every following line is one URL record.
    """
    path = pathlib.Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        handle.write(json.dumps(dataset_header(dataset)) + "\n")
        for record in dataset.iter_records():
            handle.write(json.dumps(record_to_dict(record)) + "\n")
            count += 1
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

    Every ``CountryDataset`` is constructed up front from the header
    and records are appended into it as the file streams by, so peak
    memory is one copy of the records (plus the line being parsed) --
    no intermediate per-country buckets are rebuilt at the end.
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
        records_by_country: dict[str, list[UrlRecord]] = {}
        for code, meta in require(header, "countries", dict,
                                  f"{path}:1").items():
            where = f"{path}:1: country {code!r}"
            records: list[UrlRecord] = []
            records_by_country[code] = records
            countries[code] = CountryDataset(
                country=code,
                landing_count=require(meta, "landing_count", int, where),
                records=records,
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
                record = record_from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{line_number}: corrupt record ({exc})"
                ) from exc
            bucket = records_by_country.get(record.country)
            if bucket is None:
                raise ValueError(
                    f"{path}:{line_number}: record country "
                    f"{record.country!r} is absent from the header's "
                    f"countries map"
                )
            bucket.append(record)
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

    Rows are written as plain tuples in :func:`record_to_dict` order --
    building a dict per record only for ``DictWriter`` to flatten it
    straight back out doubles the per-row cost for nothing.
    """
    import csv

    path = pathlib.Path(path)
    count = 0
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(tuple(record_to_dict(_DUMMY)))
        for r in dataset.iter_records():
            writer.writerow((
                r.url, r.hostname, r.country, r.size_bytes, r.via.value,
                r.depth, r.address, r.asn, r.organization,
                r.registered_country, r.gov_operated, r.category.value,
                r.server_country, r.anycast, r.validation.value,
            ))
            count += 1
    return count


#: Template record whose dict form fixes the CSV column set (and order)
#: even for empty datasets.
_DUMMY = UrlRecord(
    url="", hostname="", country="", size_bytes=0, via=FilterVia.TLD, depth=0,
    address=0, asn=0, organization="", registered_country="",
    gov_operated=False, category=HostingCategory.GOVT_SOE,
    server_country=None, anycast=False, validation=ValidationMethod.UNRESOLVED,
)


__all__ = [
    "FORMAT_VERSION",
    "LARGE_FILE_RECORDS",
    "dataset_header",
    "record_to_dict",
    "record_from_dict",
    "require",
    "validation_from_dict",
    "save_dataset",
    "load_dataset",
    "export_csv",
]
