"""Reading a sharded columnar store: mmap columns, lazy host tables.

:class:`DatasetStore` opens a store directory, checks the manifest
digest chain and every column file's size up front (cheap stats -- no
column bytes are read), and then serves three progressively heavier
views:

* **columns** -- zero-copy ``numpy.frombuffer`` views over read-only
  ``mmap`` objects per shard, mapped and checked against their manifest
  digest on first read (a damaged file raises
  :class:`~repro.store.format.StoreError`, never loads): the chunks of
  the dataset's :class:`~repro.analysis.engine.AnalysisIndex`;
* **metadata** -- per-country landing counts, depth histograms,
  unresolved hostnames and hostname tables, enough for the full paper
  report without touching a single URL row;
* **host tables** -- each country's
  :class:`~repro.core.dataset.HostTable`, rebuilt from the columns by
  interning each URL's hostname and nine annotations: what exports
  read.  Nothing in the analysis path needs them.

:meth:`DatasetStore.dataset` assembles a
:class:`~repro.core.dataset.GovernmentHostingDataset` whose country
views defer their host tables to their shard, and pre-attaches an
:class:`~repro.analysis.engine.AnalysisIndex` with one chunk per shard
under the cache attribute :meth:`AnalysisIndex.ensure` uses -- so every
existing analysis entry point transparently runs off the mmapped
columns.

Resource lifetime
-----------------
Every mapped column holds an open file descriptor and a live mapping
until explicitly released (an ``mmap`` object keeps a duplicate of the
file's descriptor for its lifetime), so a long-running process that
opens stores must close them: :meth:`DatasetStore.close` -- or the
context-manager form ``with DatasetStore(path) as store:`` -- cascades
to every shard and releases all memoized mappings.  Closing is not
final: a later :meth:`ShardReader.column` call simply remaps on demand,
so ``close`` doubles as a "drop all mappings" pressure valve.  Column
memoization is lock-guarded, making concurrent reads from a shared
store safe.
"""

from __future__ import annotations

import functools
import json
import mmap
import pathlib
import threading
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from repro.analysis.engine.index import (
    _CACHE_ATTRIBUTE,
    CATEGORIES,
    AnalysisIndex,
    CountryChunk,
)
from repro.core.dataset import (
    CountryDataset,
    GovernmentHostingDataset,
    HostRow,
    HostTable,
    intern_rows,
)
from repro.core.geolocation import ValidationStats
from repro.faults.report import FaultReport
from repro.io import require, validation_from_dict
from repro.store import codec
from repro.store.format import (
    COLUMN_FILES,
    INDEX_COLUMN_FILES,
    MANIFEST_NAME,
    SHARD_MANIFEST_NAME,
    STORE_FORMAT_VERSION,
    STRTAB_FILES,
    VALIDATION_CODES,
    VIA_CODES,
    StoreError,
)

PathLike = Union[str, pathlib.Path]

#: ``repro.io.require`` raising ``StoreError``: the root manifest is
#: checked field by field because no digest covers it.
_require = functools.partial(require, error=StoreError)

#: Filenames every shard must carry.
_SHARD_FILES = tuple(COLUMN_FILES) + tuple(
    name for pair in STRTAB_FILES for name in pair
)


def is_store_path(path: PathLike) -> bool:
    """Whether ``path`` looks like a store directory (has a root manifest)."""
    path = pathlib.Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def _close_mapping(mapped) -> None:
    """Close one ``mmap`` object, tolerating still-exported buffers.

    ``mmap.close`` refuses to pull pages out from under a live buffer
    export (it raises ``BufferError``); in that case the mapping -- and
    its file descriptor -- is released when the last view is
    garbage-collected instead, so swallowing the error trades promptness,
    never correctness.
    """
    if mapped is None:
        return
    try:
        mapped.close()
    except BufferError:
        pass


def _load_json(path: pathlib.Path) -> tuple[dict, bytes]:
    try:
        payload = path.read_bytes()
    except OSError as exc:
        raise StoreError(f"{path}: unreadable manifest ({exc})") from exc
    try:
        manifest = json.loads(payload)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StoreError(f"{path}: corrupt manifest ({exc})") from exc
    if not isinstance(manifest, dict):
        raise StoreError(f"{path}: manifest is not an object")
    return manifest, payload


class ShardReader:
    """One country's shard: lazily mapped columns and decoded tables."""

    def __init__(self, store: "DatasetStore", code: str,
                 shard_dir: pathlib.Path, manifest: dict) -> None:
        self.store = store
        self.code = code
        self.shard_dir = shard_dir
        self.manifest = manifest
        self.record_count: int = manifest["records"]
        self.landing_count: int = manifest["landing_count"]
        self.discarded_url_count: int = manifest["discarded_url_count"]
        self.unresolved_hostnames: list[str] = list(
            manifest["unresolved_hostnames"]
        )
        self.depth_histogram: dict[int, int] = {
            int(depth): count for depth, count in manifest["depth_histogram"]
        }
        self.total_bytes: int = manifest["total_bytes"]
        self._lock = threading.Lock()
        self._columns: dict[str, np.ndarray] = {}
        #: The ``mmap`` object behind each memoized column view.
        self._maps: dict[str, mmap.mmap] = {}
        self._hostname_table: Optional[list[str]] = None

    # ------------------------------------------------------------ files

    def _map_file(
        self, name: str, kind: Optional[str]
    ) -> tuple[np.ndarray, Optional[mmap.mmap]]:
        """mmap one column file read-only and check its digest against
        the shard manifest; returns the typed view and its mapping.

        Empty files map to empty arrays and no mapping (``mmap`` cannot
        map zero bytes; their size check covers them).  A plain
        ``mmap`` under ``numpy.frombuffer`` costs a fraction of a
        ``numpy.memmap``, which resolves the path on every call.
        """
        path = self.shard_dir / name
        dtype = codec.KINDS[kind or "u8"]
        if self.manifest["files"][name]["bytes"] == 0:
            return np.zeros(0, dtype=dtype), None
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as exc:
            raise StoreError(f"{path}: cannot map column ({exc})") from exc
        try:
            self._check_digest(name, mapped)
            try:
                view = np.frombuffer(mapped, dtype=dtype)
            except ValueError as exc:
                raise StoreError(f"{path}: cannot map column ({exc})") from exc
        except BaseException:
            _close_mapping(mapped)
            raise
        return view, mapped

    def _check_digest(self, name: str, payload) -> None:
        """``payload`` (the file's bytes, or its mapping) must hash to
        the file's shard-manifest digest."""
        if codec.digest(payload) != self.manifest["files"][name]["digest"]:
            raise StoreError(f"{self.shard_dir / name}: digest mismatch")

    def column(self, name: str) -> np.ndarray:
        """Zero-copy view of one typed column (memoized per shard).

        Memoization double-checks under the shard lock so concurrent
        first readers share one mapping instead of each mapping the
        file (and leaking the losers' descriptors until GC).
        """
        view = self._columns.get(name)
        if view is None:
            with self._lock:
                view = self._columns.get(name)
                if view is None:
                    view, mapped = self._map_file(
                        name, COLUMN_FILES.get(name, "u8"))
                    self._columns[name] = view
                    if mapped is not None:
                        self._maps[name] = mapped
        return view

    def _strtab(self, idx_name: str, blob_name: str) -> list[str]:
        idx, idx_map = self._map_file(idx_name, "i64")
        try:
            blob, blob_map = self._map_file(blob_name, "u8")
        except BaseException:
            del idx
            _close_mapping(idx_map)
            raise
        try:
            return codec.strtab_decode(idx, blob)
        finally:
            # Drop the transient views before closing so the mappings
            # (and their descriptors) release now, not at the next GC.
            del idx, blob
            _close_mapping(idx_map)
            _close_mapping(blob_map)

    def close(self) -> None:
        """Release every memoized mapping (descriptors included).

        Safe to call any number of times and while other threads read:
        a reader that raced past the memo keeps a valid view (its
        mapping is then released when the view is garbage-collected --
        ``mmap.close`` refuses to pull pages out from under an exported
        buffer), and later :meth:`column` calls simply remap.
        """
        with self._lock:
            maps = list(self._maps.values())
            self._maps.clear()
            self._columns.clear()  # drop the views so the exports die
            self._hostname_table = None
        for mapped in maps:
            _close_mapping(mapped)

    # --------------------------------------------------------- metadata

    def hostname_table(self) -> list[str]:
        """The shard's interned hostnames, first-seen order (memoized)."""
        table = self._hostname_table
        if table is None:
            with self._lock:
                if self._hostname_table is None:
                    self._hostname_table = self._strtab(
                        "hostnames.idx", "hostnames.blob"
                    )
                table = self._hostname_table
        return table

    def hostname_set(self) -> set[str]:
        """Unique hostnames of this country (no URL row is decoded)."""
        return set(self.hostname_table())

    # ------------------------------------------------------ host table

    def host_table(self) -> HostTable:
        """Rebuild the country's :class:`HostTable` from the columns.

        Each URL's hostname id and nine annotation columns are interned
        as raw integers, so a host row is decoded once, however many
        URLs it has.  All ints come back as Python ints, so the rows
        and the jsonl lines equal -- byte for byte -- a pipeline-built
        dataset's.
        """
        if self.record_count == 0:
            return HostTable([], [], [])
        store = self.store
        country_table = store.country_table
        organization_table = store.organization_table
        hostname_table = self.hostname_table()
        column = self.column
        hostname_ids = column("hostname.u32").tolist()
        coded, host_index = intern_rows(zip(
            hostname_ids,
            column("addresses.i64").tolist(),
            column("asns.i64").tolist(),
            column("organization.i32").tolist(),
            column("registered.i32").tolist(),
            column("gov.u8").tolist(),
            column("category.u8").tolist(),
            column("server.i32").tolist(),
            column("anycast.u8").tolist(),
            column("validation.u8").tolist(),
        ))
        hosts = [
            HostRow(hostname_table[hostname], address, asn,
                    organization_table[organization],
                    country_table[registered], bool(gov), CATEGORIES[category],
                    None if server < 0 else country_table[server],
                    bool(anycast), VALIDATION_CODES[validation])
            for (hostname, address, asn, organization, registered, gov,
                 category, server, anycast, validation) in coded
        ]
        urls = list(zip(
            self._strtab("urls.idx", "urls.blob"),
            [hostname_table[hid] for hid in hostname_ids],
            column("sizes.i64").tolist(),
            [VIA_CODES[v] for v in column("via.u8").tolist()],
            column("depth.i64").tolist(),
        ))
        return HostTable(hosts, urls, host_index)

    # --------------------------------------------------------- checking

    def check_sizes(self) -> None:
        """Every listed file must exist with its recorded size."""
        for name in _SHARD_FILES:
            entry = self.manifest["files"].get(name)
            if entry is None:
                raise StoreError(
                    f"{self.shard_dir}: shard manifest misses {name!r}"
                )
            path = self.shard_dir / name
            try:
                actual = path.stat().st_size
            except OSError as exc:
                raise StoreError(f"{path}: missing column file") from exc
            if actual != entry["bytes"]:
                raise StoreError(
                    f"{path}: size {actual} != recorded {entry['bytes']}"
                )

    def verify(self) -> None:
        """Re-hash every column file against its recorded digest (read
        whole: mapping each file would cost more than hashing it)."""
        self.check_sizes()
        for name in _SHARD_FILES:
            self._check_digest(name, (self.shard_dir / name).read_bytes())


class _IndexColumns(Mapping):
    """A shard's analytic columns by index column name, mapped on first read."""

    __slots__ = ("_shard",)

    def __init__(self, shard: ShardReader) -> None:
        self._shard = shard

    def __getitem__(self, name: str) -> np.ndarray:
        return self._shard.column(INDEX_COLUMN_FILES[name])

    def __iter__(self) -> Iterator[str]:
        return iter(INDEX_COLUMN_FILES)

    def __len__(self) -> int:
        return len(INDEX_COLUMN_FILES)


class DatasetStore:
    """An opened store directory (manifests parsed, sizes checked)."""

    def __init__(self, store_dir: PathLike) -> None:
        self.store_dir = pathlib.Path(store_dir)
        manifest_path = self.store_dir / MANIFEST_NAME
        if not manifest_path.is_file():
            raise StoreError(f"{self.store_dir}: not a dataset store "
                             f"(no {MANIFEST_NAME})")
        self.manifest, _ = _load_json(manifest_path)
        if self.manifest.get("format") != STORE_FORMAT_VERSION:
            raise StoreError(
                f"{self.store_dir}: unsupported store format "
                f"{self.manifest.get('format')!r}"
            )
        field = functools.partial(_require, self.manifest,
                                  where=str(manifest_path))
        self.record_count: int = field("record_count", int)
        self.countries: list[str] = list(field("countries", list))
        self.country_table: list[str] = list(field("country_table", list))
        self.organization_table: list[str] = list(
            field("organization_table", list)
        )
        self._shard_entries: dict = field("shards", dict)
        known = set(self.country_table)
        missing = [code for code in self.countries if code not in known]
        if missing:
            raise StoreError(
                f"{self.store_dir}: countries absent from the country "
                f"table: {missing}"
            )
        self._shards: dict[str, ShardReader] = {}
        total = 0
        for code in self.countries:
            shard = self._open_shard(code)
            self._shards[code] = shard
            total += shard.record_count
        if total != self.record_count:
            raise StoreError(
                f"{self.store_dir}: shard records sum to {total}, manifest "
                f"says {self.record_count}"
            )

    def _open_shard(self, code: str) -> ShardReader:
        entry = self._shard_entries.get(code)
        if entry is None:
            raise StoreError(f"{self.store_dir}: no shard entry for {code}")
        where = f"{self.store_dir / MANIFEST_NAME}: shard {code!r}"
        expected_bytes = _require(entry, "manifest_bytes", int, where)
        expected_digest = _require(entry, "manifest_digest", str, where)
        records = _require(entry, "records", int, where)
        shard_dir = self.store_dir / code
        manifest, payload = _load_json(shard_dir / SHARD_MANIFEST_NAME)
        if (
            len(payload) != expected_bytes
            or codec.digest(payload) != expected_digest
        ):
            raise StoreError(
                f"{shard_dir / SHARD_MANIFEST_NAME}: digest mismatch against "
                f"the root manifest"
            )
        if manifest.get("country") != code or \
                manifest.get("records") != records:
            raise StoreError(
                f"{shard_dir / SHARD_MANIFEST_NAME}: shard manifest "
                f"contradicts the root manifest"
            )
        shard = ShardReader(self, code, shard_dir, manifest)
        shard.check_sizes()
        return shard

    # ----------------------------------------------------------- access

    def shard(self, code: str) -> ShardReader:
        """The shard of one country; KeyError when unknown."""
        return self._shards[code]

    def shards(self) -> Iterator[ShardReader]:
        """All shards, store (dataset) order."""
        return iter(self._shards.values())

    @property
    def validation(self) -> ValidationStats:
        return validation_from_dict(
            self.manifest.get("validation"),
            str(self.store_dir / MANIFEST_NAME), StoreError,
        )

    @property
    def faults(self) -> FaultReport:
        return FaultReport.from_dict(self.manifest.get("faults", {}))

    def verify(self) -> None:
        """Full integrity pass: re-hash every column file of every shard."""
        for shard in self.shards():
            shard.verify()

    # --------------------------------------------------------- lifetime

    def close(self) -> None:
        """Release every shard's mappings and file descriptors.

        Idempotent, and not final: the store object stays usable --
        any later column access remaps on demand.  Long-running
        processes (the query service, repeated ``convert`` calls in
        one interpreter) must close stores they are done with, or every
        mapped column keeps a descriptor open for the process lifetime.
        """
        for shard in self._shards.values():
            shard.close()

    def __enter__(self) -> "DatasetStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ---------------------------------------------------------- dataset

    def dataset(self) -> GovernmentHostingDataset:
        """A store-backed dataset: lazy country views + zero-copy index.

        The returned dataset answers every metadata question (counts,
        hostnames, landing pages) and every analysis -- including the
        full paper report -- without decoding a single URL row; host
        tables are rebuilt lazily per country from the shard columns.
        No column file is mapped until an analysis reads it.
        """
        countries: dict[str, CountryDataset] = {}
        for code in self.countries:
            shard = self._shards[code]
            countries[code] = CountryDataset(
                country=code,
                landing_count=shard.landing_count,
                load_table=shard.host_table,
                discarded_url_count=shard.discarded_url_count,
                unresolved_hostnames=list(shard.unresolved_hostnames),
                depth_histogram=dict(shard.depth_histogram),
                record_count=shard.record_count,
                hostname_loader=shard.hostname_set,
                total_bytes=shard.total_bytes,
            )
        dataset = GovernmentHostingDataset(
            countries=countries,
            validation=self.validation,
            faults=self.faults,
        )
        country_ids = {code: i for i, code in enumerate(self.country_table)}
        chunks = [
            CountryChunk(code, country_ids[code], shard.record_count,
                         _IndexColumns(shard))
            for code, shard in self._shards.items()
        ]
        setattr(dataset, _CACHE_ATTRIBUTE, AnalysisIndex(
            dataset, chunks, self.country_table, self.organization_table
        ))
        return dataset


def load_store_dataset(store_dir: PathLike) -> GovernmentHostingDataset:
    """Open ``store_dir`` and return its store-backed dataset.

    The opened store stays reachable as ``dataset``'s index backing; a
    caller that owns the lifetime (the query service, the CLI) should
    open the :class:`DatasetStore` itself and ``close()`` it when done.
    """
    return DatasetStore(store_dir).dataset()


__all__ = [
    "DatasetStore",
    "ShardReader",
    "is_store_path",
    "load_store_dataset",
]
