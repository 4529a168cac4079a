"""Persistent content-addressed cache for per-country scan results.

A :class:`~repro.exec.partials.CountryPartial` is a pure function of
``(WorldConfig, country, max_depth, FaultPlan)`` — the whole phase-1
scan (crawl, filter, DNS/WHOIS mapping, geolocation) is deterministic
given those inputs.  :class:`ScanCache` memoizes that function on disk:
each partial is stored under a key derived from a canonical fingerprint
of every input (see :func:`scan_key`), so *any* parameter change
invalidates exactly the affected entries and nothing silently goes
stale.  Entries carry an integrity digest; corrupt, truncated or
mismatched entries are evicted and recomputed, never trusted.

Warm starts are wired through the execution layer
(:meth:`~repro.exec.base.ExecutionStrategy.scan_cached`): cache hits are
loaded in canonical country order, misses fan out through whichever
serial or process executor the caller picked, and the merged dataset
is byte-identical cold vs. warm and across executors.
"""

from repro.cache.fingerprint import (
    CACHE_FORMAT_VERSION,
    country_key,
    country_slice_fingerprint,
    global_fingerprint,
    run_fingerprint,
    scan_key,
)
from repro.cache.store import (
    CacheEntryInfo,
    CacheStats,
    PruneResult,
    ScanCache,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheEntryInfo",
    "CacheStats",
    "PruneResult",
    "ScanCache",
    "country_key",
    "country_slice_fingerprint",
    "global_fingerprint",
    "run_fingerprint",
    "scan_key",
]
