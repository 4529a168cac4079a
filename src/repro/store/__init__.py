"""Out-of-core sharded columnar dataset store.

The jsonl exports of :mod:`repro.io` round-trip one JSON object per
record; at paper scale (~1M URL records, more for multi-snapshot runs)
loading one means parsing a million objects into host tables and then
transposing those into the analysis engine's columns -- passes over
data that is columnar at both ends.  This package is the storage format
that cuts the middleman out:

* :func:`write_store` -- one directory per country holding typed,
  mmap-able column buffers (the per-country chunks of a built
  :class:`~repro.analysis.engine.AnalysisIndex`) plus url/hostname
  string tables, under a BLAKE2-digest-chained manifest;
* :class:`DatasetStore` / :func:`load_store_dataset` -- open a store
  and get a dataset whose analysis index takes each shard's mmapped
  columns as its chunks, so analyses (including the byte-identical
  full paper report) run zero-copy off the shards, while each
  country's host table is rebuilt from its shard on first read;
* :func:`jsonl_to_store` / :func:`store_to_jsonl` -- lossless,
  byte-identical conversions (the CLI's ``repro-gov convert``).
"""

from repro.store.convert import jsonl_to_store, store_to_jsonl
from repro.store.format import STORE_FORMAT_VERSION, StoreError
from repro.store.reader import (
    DatasetStore,
    ShardReader,
    is_store_path,
    load_store_dataset,
)
from repro.store.writer import StoreWriteResult, write_store

__all__ = [
    "STORE_FORMAT_VERSION",
    "StoreError",
    "DatasetStore",
    "ShardReader",
    "StoreWriteResult",
    "is_store_path",
    "jsonl_to_store",
    "load_store_dataset",
    "store_to_jsonl",
    "write_store",
]
