"""Low-level column and string-table codecs of the dataset store.

Two byte-level building blocks, both little-endian and
platform-independent:

* **typed columns** -- a flat buffer of one fixed-width dtype
  (:data:`KINDS` names the allowed ones), written with
  :func:`column_bytes` and viewed back zero-copy with
  :func:`column_view` (over any buffer: ``bytes``, ``memoryview`` or an
  ``mmap``).
* **string tables** -- a UTF-8 blob plus an ``int64`` offset column of
  length ``n + 1`` (``offsets[0] == 0``), so table entry ``i`` is
  ``blob[offsets[i]:offsets[i + 1]]``.  Encoding preserves order, so a
  first-seen interner round-trips exactly.

Content digests use BLAKE2b-128, the same discipline as
:mod:`repro.cache.fingerprint`.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

#: Column kind -> platform-independent numpy dtype string.
KINDS = {
    "i64": "<i8",
    "i32": "<i4",
    "u32": "<u4",
    "u8": "|u1",
}

#: Bytes per element, per kind (for size checks before mapping).
KIND_ITEMSIZE = {kind: np.dtype(dtype).itemsize for kind, dtype in KINDS.items()}


def digest(payload: bytes) -> str:
    """BLAKE2b-128 hex digest (the store's content-address discipline)."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


# ------------------------------------------------------------- columns

def column_bytes(values, kind: str) -> bytes:
    """Encode a sequence (or ndarray) as one typed little-endian buffer."""
    return np.asarray(values, dtype=KINDS[kind]).tobytes()


def column_view(buffer, kind: str) -> np.ndarray:
    """Zero-copy ndarray view of a typed buffer written by
    :func:`column_bytes` (empty buffers yield empty arrays)."""
    if len(buffer) == 0:
        return np.zeros(0, dtype=KINDS[kind])
    return np.frombuffer(buffer, dtype=KINDS[kind])


# -------------------------------------------------------- string tables

def strtab_bytes(strings: Iterable[str]) -> tuple[bytes, bytes]:
    """Encode strings (order-preserving) as ``(offsets, blob)`` buffers."""
    offsets = [0]
    chunks = []
    total = 0
    for text in strings:
        raw = text.encode("utf-8")
        chunks.append(raw)
        total += len(raw)
        offsets.append(total)
    return column_bytes(offsets, "i64"), b"".join(chunks)


def strtab_decode(offsets_buffer, blob_buffer) -> list[str]:
    """Decode a full string table back into its ordered string list."""
    offsets = column_view(offsets_buffer, "i64").tolist()
    if not offsets:
        return []
    blob = bytes(blob_buffer)
    return [
        blob[start:stop].decode("utf-8")
        for start, stop in zip(offsets, offsets[1:])
    ]


def strtab_length(offsets_buffer) -> int:
    """Number of entries in a string table, from its offsets alone."""
    count = len(offsets_buffer) // KIND_ITEMSIZE["i64"]
    return max(0, count - 1)


__all__ = [
    "KINDS",
    "KIND_ITEMSIZE",
    "digest",
    "column_bytes",
    "column_view",
    "strtab_bytes",
    "strtab_decode",
    "strtab_length",
]
