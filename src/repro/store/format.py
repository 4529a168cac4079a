"""On-disk layout of the sharded columnar dataset store.

A store is one directory, sharded per country::

    <store_dir>/
      manifest.json            root manifest (format, counts, global
                               string tables, validation, faults,
                               per-shard digests)
      <CC>/                    one shard directory per country code
        shard.json             shard manifest (counts, per-country
                               metadata, per-file sizes + digests)
        sizes.i64  addresses.i64  asns.i64  depth.i64
        category.u8  via.u8  validation.u8  gov.u8  anycast.u8
        registered.i32  server.i32  organization.i32   (global ids)
        hostname.u32                                   (shard-local ids)
        urls.idx / urls.blob                 per-record URL string table
        hostnames.idx / hostnames.blob       shard hostname string table

A shard's analytic column files (:data:`INDEX_COLUMN_FILES`) hold the
columns of its country's :class:`~repro.analysis.engine.index.CountryChunk`
byte for byte: ``registered``, ``server`` and ``organization`` hold
*globally* interned ids whose tables live in the root manifest, in the
exact first-seen order the index's scan assigns, so an index over the
mapped shards reproduces every aggregate of a scan-built index bit for
bit without re-interning.  ``server`` uses ``-1`` for excluded
(unlocated) records, mirroring the index's ``None`` country id.

Integrity forms a digest chain (BLAKE2b-128, the ``repro.cache``
discipline): each shard manifest records size and digest of every
column file, and the root manifest records size and digest of every
shard manifest.  Opening a store checks the chain's manifests and every
file size (cheap stats); :meth:`~repro.store.reader.DatasetStore.verify`
re-hashes all column bytes.
"""

from __future__ import annotations

from repro.core.geolocation import ValidationMethod
from repro.core.urlfilter import FilterVia

#: Format marker written into every manifest.
STORE_FORMAT_VERSION = 1

#: Root and shard manifest filenames.
MANIFEST_NAME = "manifest.json"
SHARD_MANIFEST_NAME = "shard.json"

#: Code spaces of the uint8 enum columns the index does not carry, in
#: declaration order (``category.u8`` uses the index's ``CATEGORIES``).
VIA_CODES: tuple[FilterVia, ...] = tuple(FilterVia)
VALIDATION_CODES: tuple[ValidationMethod, ...] = tuple(ValidationMethod)

VIA_CODE = {via: code for code, via in enumerate(VIA_CODES)}
VALIDATION_CODE = {method: code for code, method in enumerate(VALIDATION_CODES)}

#: Typed column files of one shard: filename -> codec kind.
COLUMN_FILES: dict[str, str] = {
    "sizes.i64": "i64",
    "addresses.i64": "i64",
    "asns.i64": "i64",
    "depth.i64": "i64",
    "category.u8": "u8",
    "via.u8": "u8",
    "validation.u8": "u8",
    "gov.u8": "u8",
    "anycast.u8": "u8",
    "registered.i32": "i32",
    "server.i32": "i32",
    "organization.i32": "i32",
    "hostname.u32": "u32",
}

#: Shard file of each analytic column of an index chunk
#: (``repro.analysis.engine.index.COLUMNS``).
INDEX_COLUMN_FILES: dict[str, str] = {
    "sizes": "sizes.i64",
    "addresses": "addresses.i64",
    "asns": "asns.i64",
    "categories": "category.u8",
    "gov": "gov.u8",
    "anycast": "anycast.u8",
    "registered": "registered.i32",
    "server": "server.i32",
    "organizations": "organization.i32",
}

#: String-table files of one shard (offsets column + UTF-8 blob pairs).
STRTAB_FILES: tuple[tuple[str, str], ...] = (
    ("urls.idx", "urls.blob"),
    ("hostnames.idx", "hostnames.blob"),
)


class StoreError(ValueError):
    """A store directory is missing, malformed or fails integrity."""


__all__ = [
    "STORE_FORMAT_VERSION",
    "MANIFEST_NAME",
    "SHARD_MANIFEST_NAME",
    "VIA_CODES",
    "VALIDATION_CODES",
    "VIA_CODE",
    "VALIDATION_CODE",
    "COLUMN_FILES",
    "INDEX_COLUMN_FILES",
    "STRTAB_FILES",
    "StoreError",
]
