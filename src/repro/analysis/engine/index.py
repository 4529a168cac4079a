"""Columnar analysis index over an assembled dataset.

Rendering the full paper report used to walk every URL record about
fifteen times: every Section 5-7 analysis re-derived its own per-country
tallies from the same million-record dataset.  :class:`AnalysisIndex`
replaces those repeated record scans with **one** pass that transposes
each country's host table into one :class:`CountryChunk` of compact
NumPy columns (:data:`COLUMNS`: category codes, sizes, ASNs, addresses,
interned registration/server/organization ids, boolean flags), plus
lazily memoized aggregate tables derived chunk by chunk -- per-country
category URL/byte totals, registration and server-location splits,
per-(source, destination) cross-border flows, per-(country, ASN)
provider footprints, HHI inputs and the Table 3 summary counts.

:meth:`AnalysisIndex.build` fills the chunks from each country's
:class:`~repro.core.dataset.HostTable`: per-host columns, expanded to
one value per URL with ``numpy.take`` over the URL rows' host index
(only ``sizes`` is read per URL); a columnar store (:mod:`repro.store`)
hands each shard's lazily mapped column files to the same constructor,
so both sources share every aggregate.

Exactness contract
------------------
Every aggregate reproduces the record-loop implementations *bit for
bit*.  All tallies are integer counts and integer byte sums, which the
legacy float accumulators represent exactly (every intermediate value
is an integer far below 2**53), and the final float divisions and
float summations happen in the same order as the record loops, so each
derived fraction, mean and HHI is the identical double.  The
equivalence suite (``tests/analysis/test_engine_equivalence.py``)
asserts this against the reference implementations in the test
oracle ``tests/analysis/oracle.py``, including byte-identical
paper-report text.

Mutability contract
-------------------
The index snapshots the host tables at build time.  They are immutable
once read (the pipeline never rewrites a ``CountryDataset``),
so the index cached on a dataset by :meth:`AnalysisIndex.ensure` never
needs invalidation.  Each ``CountryDataset``'s ``country`` is assumed
to match the key it lives under -- true for every dataset the pipeline,
``repro.io`` or a store produces.

Concurrency contract
--------------------
:meth:`AnalysisIndex.ensure` and every memoized aggregate table are
safe to race from many threads (the query service serves one shared
index to all clients): the dataset-level cache is built under a
per-dataset lock, and table memoization double-checks under a
per-index reentrant lock (``functools.cached_property`` stopped
locking in Python 3.12).  At most one thread ever builds the index or
a given table; losers of the race read the winner's memo, so results
are reference-identical across threads.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import (Callable, Iterable, Iterator, Mapping, NamedTuple,
                    Sequence, Union)

import numpy as np

from repro.categories import HostingCategory
from repro.core.dataset import (
    DatasetSummary,
    GovernmentHostingDataset,
    HostRow,
    HostTable,
)
from repro.obs import events as obs_events
from repro.urltools import registrable_domain
from repro.world.countries import COUNTRIES

#: Category code space of the ``categories`` column, in declaration order.
CATEGORIES: tuple[HostingCategory, ...] = tuple(HostingCategory)
_CATEGORY_CODE = {category: code for code, category in enumerate(CATEGORIES)}

#: The analytic columns of every chunk: name -> dtype.  ``registered``,
#: ``server`` and ``organizations`` hold ids into the index's
#: ``country_table`` / ``organization_table``; ``server`` is ``-1`` for
#: excluded (unlocated) records.
COLUMNS: dict[str, type] = {
    "sizes": np.int64,
    "addresses": np.int64,
    "asns": np.int64,
    "categories": np.uint8,
    "gov": np.uint8,
    "anycast": np.uint8,
    "registered": np.intc,
    "server": np.intc,
    "organizations": np.intc,
}

#: Attribute under which :meth:`AnalysisIndex.ensure` caches the index.
_CACHE_ATTRIBUTE = "_analysis_index"

#: Attribute under which :meth:`AnalysisIndex.ensure` parks the
#: per-dataset build lock (created lazily under :data:`_ENSURE_GUARD`).
_BUILD_LOCK_ATTRIBUTE = "_analysis_index_build_lock"

#: Guards only the *creation* of per-dataset build locks -- never held
#: while an index builds, so unrelated datasets build concurrently.
_ENSURE_GUARD = threading.Lock()


class locked_cached_property:
    """``functools.cached_property`` with double-checked locking.

    Python 3.12 removed ``cached_property``'s class-level lock, so two
    threads touching an unmemoized table at once could each compute it
    -- or, worse, interleave on tables that read other tables.  This
    descriptor memoizes into the instance ``__dict__`` exactly like
    ``cached_property`` (hits stay a plain dict read, no lock) but
    computes under the instance's ``_memo_lock``.  The lock is
    reentrant: tables may read other tables while building.
    """

    def __init__(self, func):
        self.func = func
        self.attrname = func.__name__
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name) -> None:
        self.attrname = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        cache = instance.__dict__
        try:
            return cache[self.attrname]
        except KeyError:
            pass
        with instance._memo_lock:
            if self.attrname not in cache:
                # Observability only: a no-op unless a collection scope
                # is active on this thread (zero-perturbation rule).
                # The memoized fast path above bypasses __get__ via the
                # instance __dict__, so only builds and lock-race hits
                # are observable here.
                obs_events.emit("memo.build", table=self.attrname,
                                index=type(instance).__name__)
                cache[self.attrname] = self.func(instance)
            else:
                obs_events.emit("memo.hit", table=self.attrname,
                                index=type(instance).__name__)
            return cache[self.attrname]


class _Interner(dict):
    """Dense first-seen interning: ``interner[key]`` assigns the next id."""

    __slots__ = ("table",)

    def __init__(self) -> None:
        super().__init__()
        self.table: list = []

    def __missing__(self, key) -> int:
        index = len(self.table)
        self[key] = index
        self.table.append(key)
        return index


class CountryChunk(NamedTuple):
    """One country's share of the index, in dataset order.

    ``columns`` maps every :data:`COLUMNS` name to an array of
    ``records`` values -- buffers filled by :meth:`AnalysisIndex.build`,
    or a store shard's column files, mapped on first read.
    """

    code: str
    country_id: int
    records: int
    columns: Mapping[str, np.ndarray]


class AnalysisIndex:
    """Per-country columnar index with memoized Section 5-7 aggregate tables.

    Build with :meth:`build` (always a fresh scan) or :meth:`ensure`
    (transparently builds once and caches the index on the dataset).
    Every aggregate accessor is lazy and memoized: the first caller of a
    table family pays one vectorized pass over the chunks, every later
    caller -- including every other analysis sharing the table -- reads
    the memo.
    """

    def __init__(
        self,
        dataset: GovernmentHostingDataset,
        chunks: Iterable[CountryChunk],
        country_table: Sequence[str],
        organization_table: Sequence[str],
    ) -> None:
        self._dataset = dataset
        self._memo_lock = threading.RLock()
        #: One chunk per country, dataset order.
        self.chunks: tuple[CountryChunk, ...] = tuple(chunks)
        self._chunk_by_code = {chunk.code: chunk for chunk in self.chunks}
        #: Country codes and organization names by column id, in the
        #: first-seen order of the record scan.
        self.country_table: list[str] = list(country_table)
        self.organization_table: list[str] = list(organization_table)
        self.record_count: int = sum(chunk.records for chunk in self.chunks)
        self._basis_memo: dict[tuple[str, str], object] = {}

    # ------------------------------------------------------------ build

    @classmethod
    def build(cls, dataset: GovernmentHostingDataset) -> "AnalysisIndex":
        """Construct a fresh index: one pass over each country's host
        table, expanded to per-URL columns."""
        countries = _Interner()
        countries[None] = -1  # excluded server locations
        organizations = _Interner()
        chunks = []
        for code, country_dataset in dataset.countries.items():
            country_id = countries[code]
            table = country_dataset.host_table
            hosts, expand = hosts_in_url_order(table)
            per_host = dict.fromkeys(COLUMNS, ())
            if hosts:
                (_, addresses, asns, organizations_, regs, govs, cats,
                 servers, anycasts, _) = zip(*hosts)
                per_host = {
                    "addresses": addresses,
                    "asns": asns,
                    "categories": map(_CATEGORY_CODE.__getitem__, cats),
                    "gov": govs,
                    "anycast": anycasts,
                    "registered": map(countries.__getitem__, regs),
                    "server": map(countries.__getitem__, servers),
                    "organizations": map(organizations.__getitem__,
                                         organizations_),
                }
            # Filled in COLUMNS order, so registration countries intern
            # before server countries -- the id order stores persist.
            # Hosts come in the order of their first URL, so every id is
            # assigned in the first-seen order of a per-URL scan.
            urls = len(table.urls)
            columns = {"sizes": np.fromiter(map(itemgetter(2), table.urls),
                                            np.int64, urls)}
            for name, dtype in COLUMNS.items():
                if name != "sizes":
                    columns[name] = np.fromiter(
                        per_host[name], dtype, len(hosts)).take(expand)
            chunks.append(CountryChunk(code, country_id, urls, columns))
        return cls(dataset, chunks, countries.table, organizations.table)

    @classmethod
    def ensure(
        cls, source: Union[GovernmentHostingDataset, "AnalysisIndex"]
    ) -> "AnalysisIndex":
        """Return ``source`` if it already is an index, else build-and-cache.

        The built index is cached on the dataset instance, so every
        analysis function called with the same dataset shares one index
        (host tables are immutable once read -- no invalidation).

        Concurrent first calls on the same dataset build exactly once:
        the check-then-set runs under a per-dataset lock (itself
        created under a tiny global guard), so racing threads block on
        the one build instead of each scanning the host tables.  The hot
        path -- an already-cached index -- stays a lock-free getattr.
        """
        if isinstance(source, cls):
            return source
        index = getattr(source, _CACHE_ATTRIBUTE, None)
        if index is not None:
            return index
        with _ENSURE_GUARD:
            lock = getattr(source, _BUILD_LOCK_ATTRIBUTE, None)
            if lock is None:
                lock = threading.Lock()
                setattr(source, _BUILD_LOCK_ATTRIBUTE, lock)
        with lock:
            index = getattr(source, _CACHE_ATTRIBUTE, None)
            if index is None:
                index = cls.build(source)
                setattr(source, _CACHE_ATTRIBUTE, index)
        return index

    # ------------------------------------------------------- basic shape

    @property
    def dataset(self) -> GovernmentHostingDataset:
        """The dataset the index was built from."""
        return self._dataset

    def chunk(self, code: str) -> CountryChunk:
        """The chunk of ``code``; KeyError when unknown."""
        return self._chunk_by_code[code]

    def _populated_chunks(self) -> Iterator[CountryChunk]:
        return (chunk for chunk in self.chunks if chunk.records)

    def _per_basis(self, build: Callable[[str], object], basis: str):
        """Memoize ``build(basis)`` per destination basis.

        Any basis other than ``"registration"`` means ``"server"``.
        Double-checked under ``_memo_lock``, like
        :class:`locked_cached_property`, and like it emits a
        ``memo.build`` event (``table`` is the build method's name) when
        it builds.
        """
        key = (build.__name__,
               "registration" if basis == "registration" else "server")
        value = self._basis_memo.get(key)
        if value is None:
            with self._memo_lock:
                value = self._basis_memo.get(key)
                if value is None:
                    obs_events.emit("memo.build", table=key[0],
                                    basis=key[1], index=type(self).__name__)
                    value = self._basis_memo[key] = build(key[1])
        return value

    # -------------------------------------------------- category tables

    @locked_cached_property
    def _category_table(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        n_categories = len(CATEGORIES)
        table: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for chunk in self._populated_chunks():
            codes = chunk.columns["categories"]
            url_counts = np.bincount(codes, minlength=n_categories)
            byte_sums = np.bincount(
                codes, weights=chunk.columns["sizes"], minlength=n_categories
            )
            table[chunk.code] = (
                tuple(int(value) for value in url_counts),
                tuple(int(value) for value in byte_sums),
            )
        return table

    def category_counts(self) -> dict[str, tuple[tuple[int, ...], tuple[int, ...]]]:
        """Per-country ``(URL counts, byte sums)`` per category code.

        Keys follow dataset order and omit countries without records;
        tuples follow :data:`CATEGORIES` (``HostingCategory``) order.
        """
        return self._category_table

    @locked_cached_property
    def _global_category_totals(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        url_totals = [0] * len(CATEGORIES)
        byte_totals = [0] * len(CATEGORIES)
        for url_counts, byte_sums in self._category_table.values():
            for i, value in enumerate(url_counts):
                url_totals[i] += value
            for i, value in enumerate(byte_sums):
                byte_totals[i] += value
        return tuple(url_totals), tuple(byte_totals)

    def global_category_counts(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Dataset-wide ``(URL counts, byte sums)`` per category code."""
        return self._global_category_totals

    # -------------------------------------------------- location tables

    @locked_cached_property
    def _location_table(self) -> dict[str, tuple[int, int, int, int]]:
        table: dict[str, tuple[int, int, int, int]] = {}
        for chunk in self._populated_chunks():
            registered = chunk.columns["registered"]
            server = chunk.columns["server"]
            table[chunk.code] = (
                chunk.records,
                int(np.count_nonzero(registered == chunk.country_id)),
                int(np.count_nonzero(server >= 0)),
                int(np.count_nonzero(server == chunk.country_id)),
            )
        return table

    def location_counts(self) -> dict[str, tuple[int, int, int, int]]:
        """Per-country ``(records, registration-domestic, located, server-domestic)``.

        ``located`` counts records whose server location was validated
        (the geolocation view's denominator); keys follow dataset order
        and omit countries without records.
        """
        return self._location_table

    # ------------------------------------------------ cross-border flows

    def crossborder_counts(
        self, basis: str = "server"
    ) -> dict[tuple[str, str], tuple[int, int]]:
        """``(source, destination) -> (URL count, byte count)`` flows.

        ``basis`` selects the destination view: the validated server
        country, or -- for ``"registration"`` -- the WHOIS registration
        country (mirroring ``crossborder._destination``).  Domestic and
        unlocated records carry no flow.
        """
        return self._per_basis(self._build_crossborder, basis)

    def _build_crossborder(self, basis: str) -> dict[tuple[str, str], tuple[int, int]]:
        column = "registered" if basis == "registration" else "server"
        country_table = self.country_table
        table: dict[tuple[str, str], tuple[int, int]] = {}
        for chunk in self._populated_chunks():
            destinations = chunk.columns[column]
            if basis == "registration":
                mask = destinations != chunk.country_id
            else:
                mask = (destinations >= 0) & (destinations != chunk.country_id)
            if not mask.any():
                continue
            selected = destinations[mask]
            unique, inverse = np.unique(selected, return_inverse=True)
            url_counts = np.bincount(inverse)
            byte_sums = np.bincount(inverse, weights=chunk.columns["sizes"][mask])
            for i, destination_id in enumerate(unique.tolist()):
                table[(chunk.code, country_table[destination_id])] = (
                    int(url_counts[i]),
                    int(byte_sums[i]),
                )
        return table

    def crossborder_flow_table(
        self, basis: str = "server"
    ) -> tuple[tuple[str, str, int, int], ...]:
        """The sorted flow table: ``(source, destination, urls, bytes)``.

        The immutable, memoized form of :meth:`crossborder_counts`
        already sorted by ``(source, destination)`` -- what a query
        service answers ``/v1/crossborder`` from without re-sorting the
        dict per request (the old p95 tail: every first-hit-per-thread
        rebuilt and re-sorted the full table).
        """
        return self._per_basis(self._build_flow_table, basis)

    def _build_flow_table(self, basis: str) -> tuple[tuple[str, str, int, int], ...]:
        return tuple(
            (s, d, u, b)
            for (s, d), (u, b) in sorted(self.crossborder_counts(basis).items())
        )

    def crossborder_flow_slices(
        self, basis: str = "server"
    ) -> dict[str, tuple[int, int]]:
        """Per-source ``[start, stop)`` ranges into the sorted flow table.

        Since :meth:`crossborder_flow_table` sorts by source first, one
        source's flows are a contiguous run; a per-source query is a
        slice, not a filter pass over every flow.
        """
        return self._per_basis(self._build_flow_slices, basis)

    def _build_flow_slices(self, basis: str) -> dict[str, tuple[int, int]]:
        slices: dict[str, tuple[int, int]] = {}
        for position, (source, _, _, _) in enumerate(
            self.crossborder_flow_table(basis)
        ):
            start = slices[source][0] if source in slices else position
            slices[source] = (start, position + 1)
        return slices

    # --------------------------------------------------- provider tables

    @locked_cached_property
    def _asn_info(self) -> tuple[
        dict[str, dict[int, tuple[int, int]]],  # per-country ASN stats
        dict[int, str],                          # first-seen organization
        tuple[int, ...],                         # global first-seen order
        dict[int, set],                          # continents served
        set,                                     # government-operated ASNs
    ]:
        organization_table = self.organization_table
        per_country: dict[str, dict[int, tuple[int, int]]] = {}
        organization_by_asn: dict[int, str] = {}
        first_seen: list[int] = []
        continents: dict[int, set] = {}
        gov_asns: set = set()
        for chunk in self._populated_chunks():
            asns = chunk.columns["asns"]
            unique, first, inverse = np.unique(
                asns, return_index=True, return_inverse=True
            )
            order = np.argsort(first)
            url_counts = np.bincount(inverse)
            byte_sums = np.bincount(inverse, weights=chunk.columns["sizes"])
            country = COUNTRIES.get(chunk.code)
            stats: dict[int, tuple[int, int]] = {}
            for i in order.tolist():
                asn = int(unique[i])
                stats[asn] = (int(url_counts[i]), int(byte_sums[i]))
                if asn not in organization_by_asn:
                    first_seen.append(asn)
                    organization_by_asn[asn] = organization_table[
                        chunk.columns["organizations"][first[i]]
                    ]
                if country is not None:
                    continents.setdefault(asn, set()).add(country.continent)
            per_country[chunk.code] = stats
            gov_mask = chunk.columns["gov"] != 0
            if gov_mask.any():
                gov_asns.update(int(asn) for asn in np.unique(asns[gov_mask]))
        return per_country, organization_by_asn, tuple(first_seen), continents, gov_asns

    def asn_counts(self) -> dict[str, dict[int, tuple[int, int]]]:
        """Per-country ``asn -> (URL count, byte sum)`` tables.

        Outer keys follow dataset order (countries with records only);
        inner keys follow each ASN's first appearance in that country's
        records -- the insertion order the HHI computation depends on.
        """
        return self._asn_info[0]

    def organization_by_asn(self) -> dict[int, str]:
        """First-seen organization name per ASN, in record order."""
        return self._asn_info[1]

    def asn_first_seen(self) -> tuple[int, ...]:
        """Every ASN in global first-appearance order."""
        return self._asn_info[2]

    def continents_by_asn(self) -> dict[int, set]:
        """Continents each ASN serves governments on (Global definition)."""
        return self._asn_info[3]

    def gov_asns(self) -> set:
        """ASNs carrying at least one government-operated record."""
        return self._asn_info[4]

    @locked_cached_property
    def _country_totals(self) -> tuple[dict[str, int], dict[str, int]]:
        url_totals: dict[str, int] = {}
        byte_totals: dict[str, int] = {}
        for code, (url_counts, byte_sums) in self._category_table.items():
            url_totals[code] = sum(url_counts)
            byte_totals[code] = sum(byte_sums)
        return url_totals, byte_totals

    def country_url_totals(self) -> dict[str, int]:
        """Record count per country (countries with records only)."""
        return self._country_totals[0]

    def country_byte_totals(self) -> dict[str, int]:
        """Byte sum per country (countries with records only)."""
        return self._country_totals[1]

    # ------------------------------------------------- regression inputs

    @locked_cached_property
    def _address_location_table(self) -> dict[str, tuple[int, int]]:
        table: dict[str, tuple[int, int]] = {}
        for chunk in sorted(self._populated_chunks(), key=lambda c: c.code):
            server = chunk.columns["server"]
            included = server >= 0
            if not included.any():
                continue
            addresses = chunk.columns["addresses"]
            domestic = np.unique(addresses[server == chunk.country_id])
            foreign = np.unique(addresses[included & (server != chunk.country_id)])
            table[chunk.code] = (
                int(foreign.size),
                int(np.union1d(domestic, foreign).size),
            )
        return table

    def address_location_counts(self) -> dict[str, tuple[int, int]]:
        """Per-country ``(foreign server IPs, total server IPs)`` counts.

        Sorted by country code; countries without any located record are
        omitted -- exactly the Appendix E outcome-variable inputs.
        """
        return self._address_location_table

    # -------------------------------------------------- hostname tables

    @locked_cached_property
    def _domains_by_country(self) -> dict[str, set[str]]:
        return {
            chunk.code: {
                registrable_domain(hostname)
                for hostname in self._dataset.countries[chunk.code].hostnames
            }
            for chunk in self._populated_chunks()
        }

    def domains_by_country(self) -> dict[str, set[str]]:
        """Registrable government domains per country (dataset order)."""
        return self._domains_by_country

    # ------------------------------------------------------ summary

    @locked_cached_property
    def _summary(self) -> DatasetSummary:
        dataset = self._dataset
        landing = sum(cd.landing_count for cd in dataset.countries.values())
        total = self.record_count
        hostnames: set[str] = set()
        for country_dataset in dataset.countries.values():
            hostnames |= country_dataset.hostnames
        # The union of per-chunk uniques is exact; only uniques, never
        # whole columns, are concatenated.
        addresses, anycast, servers = [], [], []
        for chunk in self._populated_chunks():
            chunk_addresses = chunk.columns["addresses"]
            anycast_mask = chunk.columns["anycast"] != 0
            addresses.append(np.unique(chunk_addresses))
            anycast.append(np.unique(chunk_addresses[anycast_mask]))
            servers.append(np.unique(chunk.columns["server"]))
        return DatasetSummary(
            landing_urls=landing,
            internal_urls=max(0, total - landing),
            total_unique_urls=total,
            unique_hostnames=len(hostnames),
            ases=len(self.organization_by_asn()),
            government_ases=len(self.gov_asns()),
            unique_addresses=_union(addresses).size,
            anycast_addresses=_union(anycast).size,
            countries_with_servers=int(np.count_nonzero(_union(servers) >= 0)),
        )

    def summary(self) -> DatasetSummary:
        """The Table 3 headline numbers (equals ``dataset.summarize()``)."""
        return self._summary


def hosts_in_url_order(table: HostTable) -> tuple[list[HostRow], np.ndarray]:
    """``table``'s host rows in the order of their first URL row, and
    each URL row's position in that list.

    Interning per-host values in this order assigns ids in exactly the
    first-seen order of a scan over the URL rows, and ``take`` over the
    positions expands a per-host column to the per-URL one.  A host row
    without URL rows is left out.
    """
    index = np.asarray(table.host_index, dtype=np.intp)
    if index.size == 0:
        return [], index
    present, first = np.unique(index, return_index=True)
    order = present[np.argsort(first)]
    rank = np.empty(len(table.hosts), dtype=np.intp)
    rank[order] = np.arange(order.size)
    hosts = table.hosts
    return [hosts[i] for i in order.tolist()], rank[index]


def _union(uniques: list[np.ndarray]) -> np.ndarray:
    """The sorted union of per-chunk unique arrays."""
    return np.unique(np.concatenate(uniques)) if uniques else np.zeros(0)


#: Either a dataset or a prebuilt index -- what every rewritten Section
#: 5-7 analysis function accepts.
DatasetOrIndex = Union[GovernmentHostingDataset, AnalysisIndex]


def ensure_index(source: DatasetOrIndex) -> AnalysisIndex:
    """Resolve ``source`` to an :class:`AnalysisIndex` (building if needed)."""
    return AnalysisIndex.ensure(source)


def underlying_dataset(source: DatasetOrIndex) -> GovernmentHostingDataset:
    """The dataset behind ``source`` (identity for plain datasets)."""
    if isinstance(source, AnalysisIndex):
        return source.dataset
    return source


__all__ = [
    "CATEGORIES",
    "COLUMNS",
    "AnalysisIndex",
    "CountryChunk",
    "DatasetOrIndex",
    "ensure_index",
    "hosts_in_url_order",
    "locked_cached_property",
    "underlying_dataset",
]
