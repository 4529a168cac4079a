"""Index over store shards == scan-built index, without host tables.

The equivalence suite (tests/analysis/test_engine_equivalence.py) pins
index-backed analyses to the record-loop baselines; this module pins the
:class:`~repro.analysis.engine.AnalysisIndex` a store attaches (one
chunk per shard, columns mapped from the shard files) to the scan-built
index over the same dataset -- same tables, same floats, same orderings
-- and asserts every report section renders without rebuilding a
single host table, and that no column file is mapped before it is read.
"""

from __future__ import annotations

import mmap

import numpy as np
import pytest

from repro.analysis import (
    crossborder,
    diversification,
    hosting,
    providers,
    registration,
    resilience,
)
from repro.analysis.engine import AnalysisIndex, ensure_index
from repro.analysis.engine.index import COLUMNS
from repro.reporting.paper_report import render_paper_report
from repro.reporting.sections import SECTION_NAMES, render_report_section
from repro.store import DatasetStore, ShardReader, load_store_dataset
from repro.store.codec import KINDS
from repro.store.format import COLUMN_FILES, INDEX_COLUMN_FILES
from tests.records import records_of


@pytest.fixture(scope="module")
def store_dataset(store_dir):
    return load_store_dataset(store_dir)


@pytest.fixture(scope="module")
def store_index(store_dataset) -> AnalysisIndex:
    return ensure_index(store_dataset)


@pytest.fixture(scope="module")
def scan_index(dataset):
    return ensure_index(dataset)


def _shape(index):
    return [(chunk.code, chunk.country_id, chunk.records)
            for chunk in index.chunks]


def test_interners_match(store_index, scan_index):
    assert store_index.country_table == scan_index.country_table
    assert store_index.organization_table == scan_index.organization_table
    assert _shape(store_index) == _shape(scan_index)


def test_columns_match(store_index, scan_index):
    for ours, reference in zip(store_index.chunks, scan_index.chunks):
        for name in COLUMNS:
            assert len(ours.columns[name]) == ours.records
            assert np.array_equal(ours.columns[name],
                                  reference.columns[name]), name


def test_store_chunk_columns_are_memmap_views(store_index):
    populated = [chunk for chunk in store_index.chunks if chunk.records]
    assert populated
    for chunk in populated:
        for name in COLUMNS:
            # The shard file's own mapping, never a copy.
            column = chunk.columns[name]
            assert isinstance(column.base, memoryview), name
            assert isinstance(column.base.obj, mmap.mmap), name


def test_index_column_files_cover_exactly_the_index_columns():
    assert set(INDEX_COLUMN_FILES) == set(COLUMNS)
    for name, filename in INDEX_COLUMN_FILES.items():
        stored = np.dtype(KINDS[COLUMN_FILES[filename]])
        indexed = np.dtype(COLUMNS[name])
        assert (stored.kind, stored.itemsize) == \
            (indexed.kind, indexed.itemsize), name


def test_attaching_the_index_maps_no_column_file(store_dir):
    with DatasetStore(store_dir) as store:
        index = ensure_index(store.dataset())
        assert [chunk.code for chunk in index.chunks] == store.countries
        assert all(not shard._columns for shard in store.shards())
        index.summary()
        # Table 3 reads the address, anycast and server columns plus the
        # provider table's ASN, size, organization and gov columns.
        read = {INDEX_COLUMN_FILES[name] for name in (
            "addresses", "anycast", "server",
            "asns", "sizes", "organizations", "gov",
        )}
        for shard in store.shards():
            expected = read if shard.record_count else set()
            assert set(shard._columns) == expected, shard.code


def test_summary_matches(store_index, scan_index, dataset):
    assert store_index.summary() == scan_index.summary()
    assert store_index.summary() == dataset.summarize()


def test_aggregate_tables_match(store_index, scan_index):
    assert store_index._category_table == scan_index._category_table
    assert store_index._location_table == scan_index._location_table
    assert store_index.organization_by_asn() == \
        scan_index.organization_by_asn()
    assert store_index.gov_asns() == scan_index.gov_asns()
    assert store_index.asn_first_seen() == scan_index.asn_first_seen()


def test_analyses_match(store_dataset, dataset):
    assert hosting.global_breakdown(store_dataset) == \
        hosting.global_breakdown(dataset)
    assert hosting.regional_breakdown(store_dataset) == \
        hosting.regional_breakdown(dataset)
    assert registration.global_split(store_dataset) == \
        registration.global_split(dataset)
    assert crossborder.flows(store_dataset, "server") == \
        crossborder.flows(dataset, "server")
    assert providers.global_provider_footprints(store_dataset) == \
        providers.global_provider_footprints(dataset)
    assert diversification.country_network_hhi(store_dataset) == \
        diversification.country_network_hhi(dataset)
    assert resilience.single_points_of_failure(store_dataset) == \
        resilience.single_points_of_failure(dataset)


def test_full_report_matches_without_materializing(store_dir, dataset,
                                                   monkeypatch):
    expected = render_paper_report(dataset)

    def no_host_table(shard):
        raise AssertionError(f"the report rebuilt {shard.code}'s host table")

    monkeypatch.setattr(ShardReader, "host_table", no_host_table)
    fresh = load_store_dataset(store_dir)
    assert render_paper_report(fresh) == expected
    for section in SECTION_NAMES:
        assert render_report_section(fresh, section)


def test_record_count_property(store_index, dataset):
    assert store_index.record_count == sum(
        cd.url_count for cd in dataset.countries.values()
    )


def test_lazy_records_still_work(store_dir, dataset):
    code = next(iter(dataset.countries))
    lazy = load_store_dataset(store_dir).countries[code]
    assert lazy._table is None  # deferred until first read
    assert records_of(lazy) == records_of(dataset.countries[code])
    assert lazy._table is not None

