"""The on-disk scan cache: load, store, verify, recover.

Entry layout (one file per key, sharded by the key's first two hex
digits to keep directories small)::

    <cache_dir>/<key[:2]>/<key>.partial
    ┌──────────────────────────────────────────────┐
    │ header JSON line (format, key, country,      │
    │   meta_bytes, bulk_bytes, digest, scan_s)    │
    │ meta pickle (merge inputs: counts, verdicts, │
    │   footprint, faults)                         │
    │ bulk segment ((hosts, urls) — record         │
    │   assembly's inputs, as a columnar section   │
    │   pack: see :mod:`repro.cache.columnar`)     │
    └──────────────────────────────────────────────┘

The payload is split so a warm start pays only for what the driver's
merges touch: the meta segment is unpickled eagerly, while the much
larger bulk segment (per-host annotations and per-URL rows) stays raw
bytes behind the returned partial's deferred ``bulk`` loader until the
country's records are actually materialized.  The bulk has one codec:
a partial the columnar model cannot carry is refused at store time
(:meth:`ScanCache.store` raises and writes nothing), never written in
some other encoding.

Loads trust nothing: the header must parse, carry the current format
version and the expected key, the payload must match its recorded
segment sizes and BLAKE2 digest (covering *both* segments, checked
up front — a deferred bulk never skips verification), and the meta
must decode to the expected country's merge inputs.  Any failed check
evicts the entry and reports a miss, so the pipeline recomputes — a
corrupt cache can cost time, never correctness.  Stores are atomic
(write-to-temp + ``os.replace``), so a crashed or concurrent writer
can't leave a torn entry behind.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import pathlib
import pickle
import time
import weakref
from typing import TYPE_CHECKING, Optional, Union

from repro.cache import columnar
from repro.cache.fingerprint import (
    CACHE_FORMAT_VERSION,
    country_key,
    country_slice_fingerprint,
    global_fingerprint,
)
from repro.exec.partials import CountryPartial

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.pipeline import Pipeline

logger = logging.getLogger(__name__)

PathLike = Union[str, pathlib.Path]

#: Filename suffix of cache entries.
ENTRY_SUFFIX = ".partial"


def _digest(payload: bytes) -> str:
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _format_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KiB", "MiB"):
        if size < 1024.0:
            return f"{count} B" if unit == "B" else f"{size:.1f} {unit}"
        size /= 1024.0
    return f"{size:.1f} GiB"


@dataclasses.dataclass
class CacheStats:
    """Accounting for one :class:`ScanCache` instance."""

    #: Entries served from disk.
    hits: int = 0
    #: Lookups that had to recompute (absent, corrupt or mismatched).
    misses: int = 0
    #: Fresh entries written.
    stores: int = 0
    #: Entries evicted because a load-time check failed.
    evicted: int = 0
    #: Bytes read for hits / written for stores.
    bytes_read: int = 0
    bytes_written: int = 0
    #: Estimated scan time the hits avoided, from the per-entry scan
    #: cost recorded at store time (wall clock of the miss batch spread
    #: over its countries, so parallel fan-outs make this conservative).
    time_saved_s: float = 0.0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup in [0, 1] (0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        """One-line render for run reports."""
        return (
            f"{self.hits} hits, {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), "
            f"{_format_bytes(self.bytes_read)} read, "
            f"{_format_bytes(self.bytes_written)} written, "
            f"~{self.time_saved_s:.1f}s scan time saved"
        )

    def to_dict(self) -> dict:
        """JSON-ready rendering (run manifests, metrics exports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evicted": self.evicted,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "time_saved_s": round(self.time_saved_s, 6),
            "hit_rate": round(self.hit_rate, 6),
        }


@dataclasses.dataclass(frozen=True)
class CacheEntryInfo:
    """On-disk facts about one cache entry (for stats and pruning)."""

    key: str
    country: str
    size_bytes: int
    mtime: float
    #: Scan cost the entry recorded at store time (0 when unreadable).
    scan_s: float
    path: pathlib.Path


@dataclasses.dataclass(frozen=True)
class PruneResult:
    """What one :meth:`ScanCache.prune` pass did (or would do)."""

    examined: int
    removed: int
    removed_bytes: int
    kept: int
    kept_bytes: int
    dry_run: bool

    def summary(self) -> str:
        """One-line render for the CLI."""
        verb = "would remove" if self.dry_run else "removed"
        return (
            f"{verb} {self.removed} of {self.examined} entries "
            f"({_format_bytes(self.removed_bytes)}), keeping {self.kept} "
            f"({_format_bytes(self.kept_bytes)})"
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class ScanCache:
    """Persistent store of per-country phase-1 scan results."""

    def __init__(self, cache_dir: PathLike) -> None:
        self.cache_dir = pathlib.Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        #: Global fingerprints memoized per pipeline (config
        #: canonicalization costs more than the per-country key).
        self._global_fps: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()

    # ------------------------------------------------------------- keys

    def key_for(self, pipeline: "Pipeline", country: str) -> str:
        """The content address of one country's scan under ``pipeline``.

        Composed from the run's global fingerprint plus the country's
        own config slice, so an evolved snapshot re-keys exactly the
        mutated countries and hits on everything else.
        """
        global_fp = self._global_fps.get(pipeline)
        if global_fp is None:
            global_fp = global_fingerprint(
                pipeline.world.config,
                pipeline.crawler.max_depth,
                pipeline.fault_plan,
            )
            self._global_fps[pipeline] = global_fp
        slice_fp = country_slice_fingerprint(pipeline.world.config, country)
        return country_key(global_fp, country, slice_fp)

    def _entry_path(self, key: str) -> pathlib.Path:
        return self.cache_dir / key[:2] / f"{key}{ENTRY_SUFFIX}"

    # ---------------------------------------------------------- load/store

    def load(self, key: str, country: str) -> Optional[CountryPartial]:
        """The cached partial for ``key``, or None (then recompute).

        Never raises on bad entries: a failed integrity or fingerprint
        check evicts the file and counts as a miss.
        """
        path = self._entry_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        decoded = self._decode(blob, key, country)
        if decoded is None:
            logger.warning(
                "evicting cache entry %s (%s): failed integrity or "
                "fingerprint check", key, country.upper(),
            )
            self.stats.evicted += 1
            self.stats.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        header, partial = decoded
        self.stats.hits += 1
        self.stats.bytes_read += len(blob)
        self.stats.time_saved_s += float(header.get("scan_s", 0.0) or 0.0)
        return partial

    @staticmethod
    def _decode(
        blob: bytes, key: str, country: str
    ) -> Optional[tuple[dict, CountryPartial]]:
        """Verify one entry and build a lazy-bulk partial from it.

        Integrity is checked in full here (sizes and digest cover both
        segments); only the *decoding* of the bulk segment is deferred.
        Returns None on any inconsistency.
        """
        newline = blob.find(b"\n")
        if newline < 0:
            return None
        try:
            header = json.loads(blob[:newline])
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(header, dict):
            return None
        payload = blob[newline + 1:]
        meta_bytes = header.get("meta_bytes")
        bulk_bytes = header.get("bulk_bytes")
        if (
            header.get("format") != CACHE_FORMAT_VERSION
            or header.get("key") != key
            or not isinstance(meta_bytes, int)
            or not isinstance(bulk_bytes, int)
            or meta_bytes + bulk_bytes != len(payload)
            or header.get("digest") != _digest(payload)
        ):
            return None
        try:
            meta = pickle.loads(payload[:meta_bytes])
            (country_field, landing_count, discarded_url_count,
             unresolved_hostnames, depth_histogram, verdicts,
             footprint, faults) = meta
        except Exception:
            return None
        if country_field != country.upper():
            return None
        partial = CountryPartial(
            country=country_field,
            landing_count=landing_count,
            discarded_url_count=discarded_url_count,
            unresolved_hostnames=unresolved_hostnames,
            depth_histogram=depth_histogram,
            verdicts=verdicts,
            footprint=footprint,
            faults=faults,
            bulk=functools.partial(columnar.decode_bulk,
                                   payload[meta_bytes:]),
        )
        return header, partial

    def store(
        self, key: str, partial: CountryPartial, scan_s: float = 0.0
    ) -> None:
        """Persist one partial under ``key`` (atomically).

        ``scan_s`` records what the scan cost, so future hits can report
        the time they saved.  The bulk is encoded columnar; a partial
        that does not fit the columnar model (e.g. an out-of-enum via)
        raises from :func:`~repro.cache.columnar.encode_bulk` before
        anything touches the disk.
        """
        meta = pickle.dumps(
            (partial.country, partial.landing_count,
             partial.discarded_url_count, partial.unresolved_hostnames,
             partial.depth_histogram, partial.verdicts,
             partial.footprint, partial.faults),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        bulk = columnar.encode_bulk(partial.hosts, partial.urls)
        payload = meta + bulk
        header = {
            "format": CACHE_FORMAT_VERSION,
            "key": key,
            "country": partial.country,
            "meta_bytes": len(meta),
            "bulk_bytes": len(bulk),
            "digest": _digest(payload),
            "scan_s": round(scan_s, 6),
        }
        blob = json.dumps(header, sort_keys=True).encode("ascii") + b"\n" + payload
        path = self._entry_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
        tmp.write_bytes(blob)
        os.replace(tmp, path)
        self.stats.stores += 1
        self.stats.bytes_written += len(blob)

    # ------------------------------------------------------------ maintenance

    def entry_count(self) -> int:
        """Number of entries currently on disk."""
        return sum(1 for _ in self.cache_dir.glob(f"*/*{ENTRY_SUFFIX}"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for entry in self.cache_dir.glob(f"*/*{ENTRY_SUFFIX}"):
            try:
                entry.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    def inventory(self) -> list[CacheEntryInfo]:
        """Every entry on disk, sorted oldest-first (then by key).

        Reads only each entry's stat and header line — never the
        payload — so inventorying a multi-gigabyte cache stays cheap.
        Entries whose header no longer parses are still listed (with an
        unknown country) so pruning can get rid of them.
        """
        entries = []
        for path in self.cache_dir.glob(f"*/*{ENTRY_SUFFIX}"):
            try:
                stat = path.stat()
            except OSError:
                continue
            key = path.name[:-len(ENTRY_SUFFIX)]
            country, scan_s = "??", 0.0
            try:
                with path.open("rb") as handle:
                    header = json.loads(handle.readline())
                country = str(header.get("country", "??"))
                scan_s = float(header.get("scan_s", 0.0) or 0.0)
            except (OSError, ValueError, TypeError, UnicodeDecodeError):
                pass
            entries.append(CacheEntryInfo(
                key=key, country=country, size_bytes=stat.st_size,
                mtime=stat.st_mtime, scan_s=scan_s, path=path,
            ))
        entries.sort(key=lambda entry: (entry.mtime, entry.key))
        return entries

    def usage(self) -> dict:
        """Aggregate view over :meth:`inventory` (the ``cache stats`` CLI).

        JSON-ready: entry/byte totals, per-country entry counts, age
        bounds and the total recorded scan time the entries would save.
        """
        entries = self.inventory()
        by_country: dict[str, int] = {}
        for entry in entries:
            by_country[entry.country] = by_country.get(entry.country, 0) + 1
        return {
            "cache_dir": str(self.cache_dir),
            "entries": len(entries),
            "total_bytes": sum(entry.size_bytes for entry in entries),
            "countries": dict(sorted(by_country.items())),
            "oldest_mtime": entries[0].mtime if entries else None,
            "newest_mtime": entries[-1].mtime if entries else None,
            "recorded_scan_s": round(
                sum(entry.scan_s for entry in entries), 6
            ),
        }

    def prune(
        self,
        max_bytes: Optional[int] = None,
        older_than_s: Optional[float] = None,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> PruneResult:
        """LRU-by-mtime eviction: age out, then shrink to a byte budget.

        ``older_than_s`` drops entries whose mtime lags ``now`` by more
        than that many seconds; ``max_bytes`` then removes oldest-first
        until the survivors fit the budget.  mtime approximates
        recency-of-use well enough here because stores rewrite the file;
        ties break on the key, so a prune is deterministic given the
        same on-disk state.  ``dry_run`` reports what would go without
        unlinking anything.
        """
        if max_bytes is None and older_than_s is None:
            raise ValueError("prune needs max_bytes and/or older_than_s")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if older_than_s is not None and older_than_s < 0:
            raise ValueError("older_than_s must be non-negative")
        entries = self.inventory()
        reference = time.time() if now is None else now
        doomed: list[CacheEntryInfo] = []
        kept: list[CacheEntryInfo] = []
        for entry in entries:
            if older_than_s is not None and \
                    reference - entry.mtime > older_than_s:
                doomed.append(entry)
            else:
                kept.append(entry)
        if max_bytes is not None:
            kept_bytes = sum(entry.size_bytes for entry in kept)
            cut = 0
            while kept_bytes > max_bytes and cut < len(kept):
                doomed.append(kept[cut])
                kept_bytes -= kept[cut].size_bytes
                cut += 1
            kept = kept[cut:]
        removed = removed_bytes = 0
        for entry in doomed:
            if not dry_run:
                try:
                    entry.path.unlink()
                except OSError:
                    continue
            removed += 1
            removed_bytes += entry.size_bytes
        return PruneResult(
            examined=len(entries),
            removed=removed,
            removed_bytes=removed_bytes,
            kept=len(kept),
            kept_bytes=sum(entry.size_bytes for entry in kept),
            dry_run=dry_run,
        )


__all__ = [
    "CacheEntryInfo",
    "CacheStats",
    "PruneResult",
    "ScanCache",
    "ENTRY_SUFFIX",
]
