"""Columnar encoding of the scan cache's bulk segment.

A cache entry's bulk is ``(hosts, urls)``: per-hostname
:class:`~repro.exec.partials.HostAnnotation` facts plus compact per-URL
observation tuples.  Pickling those builds one Python object per host
and per URL on *every* warm start that touches records.  This codec
stores the same data as typed columns and string tables (the
:mod:`repro.store.codec` building blocks) behind a
:func:`~repro.store.codec.pack_sections` directory:

* one shared hostname string table, interned first-seen (host keys
  first -- so host ``i``'s key is simply table entry ``i`` -- then any
  URL hostname not already present);
* host columns (address/asn ``i64``, interned organization, registered
  and server country ids ``i32`` with ``-1`` for an excluded server,
  gov/anycast/validation ``u8``);
* URL columns (url string table in archive order, hostname id ``i32``,
  size and depth ``i64``, via ``u8``).

Decoding rebuilds the exact dict/list/tuple structures the scan
produced -- same key order, same tuple layout, equal values -- so a
cached partial is indistinguishable from a fresh one downstream (held
by ``tests/cache/test_columnar.py``).  Enum values ride as codes
into the declaration-order tuples of :mod:`repro.store.format`, the
same code spaces the dataset store uses.
"""

from __future__ import annotations

import json

from repro.exec.partials import HostAnnotation, UrlObservation
from repro.store import codec
from repro.store.format import (
    VALIDATION_CODE,
    VALIDATION_CODES,
    VIA_CODE,
    VIA_CODES,
)


def encode_bulk(
    hosts: dict[str, HostAnnotation], urls: list[UrlObservation]
) -> bytes:
    """Encode one bulk pair as a section pack.

    Raises (``KeyError``/``TypeError``/...) on anything that does not
    fit the columnar model -- e.g. an out-of-enum via.  The cache has
    no other bulk codec, so such a partial is not stored at all.
    """
    hostname_ids: dict[str, int] = {}
    for hostname in hosts:
        hostname_ids[hostname] = len(hostname_ids)
    annotations = list(hosts.values())

    organizations: dict[str, int] = {}
    countries: dict[str, int] = {}
    org_ids = [
        organizations.setdefault(a.organization, len(organizations))
        for a in annotations
    ]
    registered_ids = [
        countries.setdefault(a.registered_country, len(countries))
        for a in annotations
    ]
    server_ids = [
        -1 if a.server_country is None
        else countries.setdefault(a.server_country, len(countries))
        for a in annotations
    ]

    url_host_ids = []
    for _, hostname, _, _, _ in urls:
        url_id = hostname_ids.get(hostname)
        if url_id is None:
            url_id = hostname_ids[hostname] = len(hostname_ids)
        url_host_ids.append(url_id)

    meta = {
        "hosts": len(hosts),
        "urls": len(urls),
        "organizations": list(organizations),
        "countries": list(countries),
    }
    hostnames_idx, hostnames_blob = codec.strtab_bytes(hostname_ids)
    urls_idx, urls_blob = codec.strtab_bytes(url for url, *_ in urls)
    sections = [
        ("meta.json", json.dumps(meta, sort_keys=True).encode("utf-8")),
        ("hostnames.idx", hostnames_idx),
        ("hostnames.blob", hostnames_blob),
        ("host.address.i64",
         codec.column_bytes([a.address for a in annotations], "i64")),
        ("host.asn.i64",
         codec.column_bytes([a.asn for a in annotations], "i64")),
        ("host.organization.i32", codec.column_bytes(org_ids, "i32")),
        ("host.registered.i32", codec.column_bytes(registered_ids, "i32")),
        ("host.server.i32", codec.column_bytes(server_ids, "i32")),
        ("host.gov.u8",
         codec.column_bytes([1 if a.gov_operated else 0
                             for a in annotations], "u8")),
        ("host.anycast.u8",
         codec.column_bytes([1 if a.anycast else 0
                             for a in annotations], "u8")),
        ("host.validation.u8",
         codec.column_bytes([VALIDATION_CODE[a.validation]
                             for a in annotations], "u8")),
        ("urls.idx", urls_idx),
        ("urls.blob", urls_blob),
        ("url.hostname.i32", codec.column_bytes(url_host_ids, "i32")),
        ("url.size.i64",
         codec.column_bytes([size for _, _, size, _, _ in urls], "i64")),
        ("url.via.u8",
         codec.column_bytes([VIA_CODE[via] for _, _, _, via, _ in urls],
                            "u8")),
        ("url.depth.i64",
         codec.column_bytes([depth for *_, depth in urls], "i64")),
    ]
    return codec.pack_sections(sections)


def decode_bulk(blob: bytes) -> tuple[dict[str, HostAnnotation],
                                      list[UrlObservation]]:
    """Inverse of :func:`encode_bulk`.

    Raises ``ValueError`` (or a decode error) on malformed input; the
    cache treats that like any other integrity failure and evicts.
    """
    sections = codec.unpack_sections(blob)
    meta = json.loads(sections["meta.json"])
    n_hosts = meta["hosts"]
    n_urls = meta["urls"]
    organizations = meta["organizations"]
    countries = meta["countries"]

    hostname_table = codec.strtab_decode(
        sections["hostnames.idx"], sections["hostnames.blob"]
    )
    addresses = codec.column_view(sections["host.address.i64"], "i64").tolist()
    asns = codec.column_view(sections["host.asn.i64"], "i64").tolist()
    org_ids = codec.column_view(sections["host.organization.i32"], "i32")
    registered_ids = codec.column_view(sections["host.registered.i32"], "i32")
    server_ids = codec.column_view(sections["host.server.i32"], "i32")
    gov = codec.column_view(sections["host.gov.u8"], "u8")
    anycast = codec.column_view(sections["host.anycast.u8"], "u8")
    validation = codec.column_view(sections["host.validation.u8"], "u8")
    if not (len(addresses) == len(asns) == len(org_ids) == n_hosts
            and len(hostname_table) >= n_hosts):
        raise ValueError("bulk pack host columns are inconsistent")

    hosts: dict[str, HostAnnotation] = {}
    for i in range(n_hosts):
        server = int(server_ids[i])
        hosts[hostname_table[i]] = HostAnnotation(
            address=addresses[i],
            asn=asns[i],
            organization=organizations[int(org_ids[i])],
            registered_country=countries[int(registered_ids[i])],
            gov_operated=bool(gov[i]),
            server_country=None if server < 0 else countries[server],
            anycast=bool(anycast[i]),
            validation=VALIDATION_CODES[int(validation[i])],
        )

    url_table = codec.strtab_decode(sections["urls.idx"], sections["urls.blob"])
    url_host_ids = codec.column_view(sections["url.hostname.i32"], "i32")
    sizes = codec.column_view(sections["url.size.i64"], "i64").tolist()
    vias = codec.column_view(sections["url.via.u8"], "u8")
    depths = codec.column_view(sections["url.depth.i64"], "i64").tolist()
    if not (len(url_table) == len(url_host_ids) == len(sizes)
            == len(vias) == len(depths) == n_urls):
        raise ValueError("bulk pack url columns are inconsistent")

    observed_urls: list[UrlObservation] = [
        (url_table[i], hostname_table[int(url_host_ids[i])], sizes[i],
         VIA_CODES[int(vias[i])], depths[i])
        for i in range(n_urls)
    ]
    return hosts, observed_urls


__all__ = ["encode_bulk", "decode_bulk"]
