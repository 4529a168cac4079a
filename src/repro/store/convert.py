"""Lossless conversions between the jsonl export and the columnar store.

Both directions preserve bytes exactly:

* ``jsonl -> store -> jsonl`` writes exactly the bytes
  ``save_dataset(load_dataset(jsonl))`` would (header key order,
  depth-histogram insertion order, records grouped by sorted country --
  the canonical form every loaded dataset takes; files already in it,
  i.e. anything ``save_dataset`` wrote from a loaded or store-backed
  dataset, round-trip identically);
* a report rendered over the store equals the report rendered over the
  jsonl it was converted from, byte for byte (the index over the
  store's shards reproduces the scan-built index exactly).

``store_to_jsonl`` streams: one country's records are materialized,
written and dropped before the next shard is touched, so converting an
arbitrarily large store runs in bounded memory.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from repro.store.format import StoreError
from repro.store.reader import DatasetStore
from repro.store.writer import StoreWriteResult, write_store

PathLike = Union[str, pathlib.Path]


def jsonl_to_store(
    jsonl_path: PathLike,
    store_dir: PathLike,
    *,
    overwrite: bool = False,
) -> StoreWriteResult:
    """Convert a :func:`repro.io.save_dataset` file into a store."""
    from repro.io import load_dataset

    dataset = load_dataset(jsonl_path)
    return write_store(dataset, store_dir, overwrite=overwrite)


def store_to_jsonl(
    store: Union[DatasetStore, PathLike],
    jsonl_path: PathLike,
) -> int:
    """Write a store back out as jsonl; returns the record count.

    The header is built by the same code :func:`repro.io.save_dataset`
    uses (over the store-backed dataset's metadata -- no records are
    materialized for it), and records stream one shard at a time.
    """
    from repro.io import dataset_header, open_replacement, record_to_dict

    owns_store = not isinstance(store, DatasetStore)
    if owns_store:
        store = DatasetStore(store)
    try:
        header = dataset_header(store.dataset())
        count = 0
        with open_replacement(jsonl_path) as handle:
            handle.write(json.dumps(header) + "\n")
            for shard in store.shards():
                for record in shard.materialize_records():
                    handle.write(json.dumps(record_to_dict(record)) + "\n")
                    count += 1
            if count != store.record_count:
                raise StoreError(
                    f"{store.store_dir}: streamed {count} records, "
                    f"manifest says {store.record_count}"
                )
    finally:
        if owns_store:
            store.close()
    return count


__all__ = ["jsonl_to_store", "store_to_jsonl"]
