"""Writing a dataset into the sharded columnar store layout.

:func:`write_store` dumps the per-country chunks of a built
:class:`~repro.analysis.engine.AnalysisIndex` -- the one canonical
columnar form of a dataset -- plus the per-record url/hostname/via/
depth/validation columns the index does not carry (they are needed only
to rebuild each country's host table, for exports and lossless jsonl
round-trips).

Those columns come from the same
:class:`~repro.core.dataset.HostTable` the index is built from: url,
via and depth per URL row, validation and the shard-local hostname ids
per host row, expanded with ``numpy.take`` over the URL rows' host
index.  Everything a later analysis run needs comes back out of the
shards without rebuilding a host table.  Output is deterministic:
converting the same dataset twice produces byte-identical stores (no
timestamps, sorted manifest keys, insertion orders preserved).

Writes are atomic at store granularity: the shards and manifests are
assembled under a temporary sibling directory and renamed into place
only when complete, so a crashed convert never leaves a half-written
store behind.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
import pathlib
import shutil
from operator import itemgetter
from typing import Union

import numpy as np

from repro.analysis.engine.index import (
    AnalysisIndex,
    CountryChunk,
    hosts_in_url_order,
)
from repro.core.dataset import GovernmentHostingDataset, HostTable
from repro.store import codec
from repro.store.format import (
    COLUMN_FILES,
    INDEX_COLUMN_FILES,
    MANIFEST_NAME,
    SHARD_MANIFEST_NAME,
    STORE_FORMAT_VERSION,
    STRTAB_FILES,
    VALIDATION_CODE,
    VIA_CODE,
    StoreError,
)

logger = logging.getLogger(__name__)

PathLike = Union[str, pathlib.Path]


def _write_file(directory: pathlib.Path, name: str, payload: bytes) -> dict:
    (directory / name).write_bytes(payload)
    return {"bytes": len(payload), "digest": codec.digest(payload)}


def _shard_columns(chunk: CountryChunk, table: HostTable) -> dict:
    """All column buffers of one shard, keyed by filename."""
    buffers: dict[str, bytes] = {
        filename: codec.column_bytes(chunk.columns[name], COLUMN_FILES[filename])
        for name, filename in INDEX_COLUMN_FILES.items()
    }
    urls = table.urls
    hosts, expand = hosts_in_url_order(table)
    # Keyed by ``FilterVia._value_``: a dict keyed by the members would
    # call ``Enum.__hash__`` for every URL.
    via_codes = {via.value: code for via, code in VIA_CODE.items()}
    vias = map(itemgetter(3), urls)
    buffers["via.u8"] = codec.column_bytes(
        np.fromiter((via_codes[via._value_] for via in vias), np.uint8,
                    len(urls)), "u8"
    )
    buffers["validation.u8"] = codec.column_bytes(
        np.fromiter((VALIDATION_CODE[row.validation] for row in hosts),
                    np.uint8, len(hosts)).take(expand), "u8"
    )
    buffers["depth.i64"] = codec.column_bytes(
        np.fromiter(map(itemgetter(4), urls), np.int64, len(urls)), "i64"
    )
    # Shard-local hostname interning, first-seen in record order: the
    # hosts come in the order of their first URL, so interning their
    # hostnames in turn assigns the same ids.
    hostname_ids: dict[str, int] = {}
    host_hids = [hostname_ids.setdefault(row.hostname, len(hostname_ids))
                 for row in hosts]
    buffers["hostname.u32"] = codec.column_bytes(
        np.array(host_hids, dtype=np.int64).take(expand), "u32"
    )
    buffers["urls.idx"], buffers["urls.blob"] = codec.strtab_bytes(
        map(itemgetter(0), urls)
    )
    buffers["hostnames.idx"], buffers["hostnames.blob"] = codec.strtab_bytes(
        hostname_ids
    )
    return buffers


def _write_shard(
    shard_dir: pathlib.Path, chunk: CountryChunk, country_dataset
) -> bytes:
    """Write one country's shard; returns the shard manifest bytes."""
    shard_dir.mkdir(parents=True)
    buffers = _shard_columns(chunk, country_dataset.host_table)
    files = {}
    for name in list(COLUMN_FILES) + [n for pair in STRTAB_FILES for n in pair]:
        entry = _write_file(shard_dir, name, buffers[name])
        if name in COLUMN_FILES:
            entry["kind"] = COLUMN_FILES[name]
        files[name] = entry
    manifest = {
        "format": STORE_FORMAT_VERSION,
        "country": chunk.code,
        "records": chunk.records,
        "landing_count": country_dataset.landing_count,
        "discarded_url_count": country_dataset.discarded_url_count,
        "unresolved_hostnames": list(country_dataset.unresolved_hostnames),
        # Ordered pairs, not an object: shard manifests are written with
        # sorted keys, but jsonl round-trips must preserve the
        # histogram's insertion order byte for byte.
        "depth_histogram": [
            [depth, count]
            for depth, count in country_dataset.depth_histogram.items()
        ],
        "total_bytes": country_dataset.total_bytes,
        "hostname_count": codec.strtab_length(buffers["hostnames.idx"]),
        "files": files,
    }
    payload = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode()
    (shard_dir / SHARD_MANIFEST_NAME).write_bytes(payload)
    return payload


@dataclasses.dataclass(frozen=True)
class StoreWriteResult:
    """What :func:`write_store` produced."""

    store_dir: pathlib.Path
    record_count: int
    shard_count: int


def write_store(
    dataset: GovernmentHostingDataset,
    store_dir: PathLike,
    *,
    overwrite: bool = False,
) -> StoreWriteResult:
    """Write ``dataset`` as a sharded columnar store under ``store_dir``.

    Builds (or reuses, via :meth:`AnalysisIndex.ensure`) the dataset's
    analysis index and dumps its columns chunk by chunk.  Refuses to
    clobber an existing path unless ``overwrite`` is set.
    """
    store_dir = pathlib.Path(store_dir)
    if store_dir.exists() and not overwrite:
        raise StoreError(f"{store_dir}: already exists (pass overwrite=True)")
    index = AnalysisIndex.ensure(dataset)
    staging = store_dir.with_name(f"{store_dir.name}.tmp.{os.getpid()}")
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        shards = {}
        for chunk in index.chunks:
            manifest_bytes = _write_shard(
                staging / chunk.code, chunk, dataset.countries[chunk.code]
            )
            shards[chunk.code] = {
                "records": chunk.records,
                "manifest_bytes": len(manifest_bytes),
                "manifest_digest": codec.digest(manifest_bytes),
            }
        root = {
            "format": STORE_FORMAT_VERSION,
            "record_count": index.record_count,
            "countries": [chunk.code for chunk in index.chunks],
            "country_table": index.country_table,
            "organization_table": index.organization_table,
            "validation": dataclasses.asdict(dataset.validation),
            "shards": shards,
        }
        # Mirrors repro.io.save_dataset: the key only exists for faulted
        # runs, so fault-free stores stay byte-identical across layers.
        if dataset.faults.countries:
            root["faults"] = dataset.faults.to_dict()
        (staging / MANIFEST_NAME).write_bytes(
            (json.dumps(root, sort_keys=True, indent=2) + "\n").encode()
        )
        if store_dir.exists():
            shutil.rmtree(store_dir)
        os.replace(staging, store_dir)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    logger.info(
        "wrote %d records across %d shards to %s",
        index.record_count, len(shards), store_dir,
    )
    return StoreWriteResult(
        store_dir=store_dir,
        record_count=index.record_count,
        shard_count=len(shards),
    )


__all__ = ["StoreWriteResult", "write_store"]
