"""HTTP Archive (HAR) records.

The study consolidates each page load into a HAR file (Section 3.2).
We keep only the fields the analysis consumes: the resource URL, its
hostname, and the transferred size in bytes (Figure 2 and friends
aggregate bytes as well as URL counts).
"""

from __future__ import annotations

from typing import NamedTuple


class HarEntry(NamedTuple):
    """One fetchable object: the unit the paper counts as a unique URL.

    A site's pages hold their entries from generation on, and the crawl
    files those same objects, so each URL is built once.  A
    ``NamedTuple`` rather than a dataclass: a world holds hundreds of
    thousands of entries and tuple construction is ~5x cheaper than
    frozen-dataclass ``__init__``.
    """

    url: str
    hostname: str
    size_bytes: int


__all__ = ["HarEntry"]
