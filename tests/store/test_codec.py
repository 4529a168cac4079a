"""Unit tests for the byte-level column and string-table codecs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.store import codec


@pytest.mark.parametrize("kind,values", [
    ("i64", [0, 1, -5, 2**62]),
    ("i32", [0, -1, 2**31 - 1]),
    ("u32", [0, 1, 2**32 - 1]),
    ("u8", [0, 1, 255]),
])
def test_column_roundtrip(kind, values):
    buffer = codec.column_bytes(values, kind)
    assert len(buffer) == len(values) * codec.KIND_ITEMSIZE[kind]
    assert codec.column_view(buffer, kind).tolist() == values


def test_column_view_empty():
    view = codec.column_view(b"", "i64")
    assert view.size == 0 and view.dtype == np.dtype("<i8")


def test_column_view_is_zero_copy():
    buffer = codec.column_bytes([1, 2, 3], "i64")
    view = codec.column_view(buffer, "i64")
    assert view.base is not None  # a view over the buffer, not a copy


@pytest.mark.parametrize("strings", [
    [],
    [""],
    ["a", "b", "a"],
    ["héllo", "wörld", "", "x" * 1000],
])
def test_strtab_roundtrip(strings):
    offsets, blob = codec.strtab_bytes(strings)
    assert codec.strtab_decode(offsets, blob) == strings
    assert codec.strtab_length(offsets) == len(strings)


def test_digest_is_blake2b_128():
    assert len(codec.digest(b"")) == 32  # 16 bytes hex
    assert codec.digest(b"a") != codec.digest(b"b")
