"""Integration tests for the end-to-end pipeline over the shared world."""

import pytest

from repro import Pipeline
from repro.categories import HostingCategory
from repro.core.urlfilter import FilterVia
from tests.records import iter_records


def test_pipeline_covers_all_countries(dataset, world):
    assert set(dataset.countries) == set(world.config.country_codes())


def test_dataset_sizes_track_scale(dataset, world):
    from repro.world.countries import COUNTRIES

    scale = world.config.scale
    summary = dataset.summarize()
    expected_internal = sum(c.internal_urls for c in COUNTRIES.values()) * scale
    assert summary.internal_urls == pytest.approx(expected_internal, rel=0.25)
    assert summary.unique_hostnames == pytest.approx(
        sum(c.hostnames for c in COUNTRIES.values()) * scale, rel=0.35
    )


def test_records_match_truth_hosts(dataset, world):
    """Every measured record agrees with ground truth on AS and address."""
    mismatched = 0
    total = 0
    for record in iter_records(dataset):
        truth = world.truth.hosts.get(record.hostname)
        if truth is None:
            continue
        total += 1
        if record.asn != truth.asn or record.address != truth.address:
            mismatched += 1
    assert total > 0
    assert mismatched == 0


def test_measured_categories_match_truth(dataset, world):
    """Category recovery is imperfect only where the cascade legitimately
    lacks evidence; mismatches must be rare."""
    mismatched = total = 0
    for record in iter_records(dataset):
        truth = world.truth.hosts.get(record.hostname)
        if truth is None:
            continue
        total += 1
        if record.category is not truth.category:
            mismatched += 1
    assert mismatched / total < 0.12


def test_filter_vias_present(dataset):
    vias = {record.via for record in iter_records(dataset)}
    assert FilterVia.TLD in vias
    assert FilterVia.DOMAIN in vias
    assert FilterVia.SAN in vias


def test_every_category_observed(dataset):
    categories = {record.category for record in iter_records(dataset)}
    assert categories == set(HostingCategory)


def test_excluded_records_have_no_server_country(dataset):
    for record in iter_records(dataset):
        if record.excluded:
            assert record.server_country is None
        else:
            assert record.server_country is not None


def test_korea_dataset_is_empty(dataset):
    korea = dataset.country("KR")
    assert korea.url_count == 0
    assert korea.landing_count == 0


def test_validation_stats_populated(dataset):
    stats = dataset.validation
    assert stats.unicast_total > 0
    assert stats.anycast_total > 0
    table = stats.table4()
    assert 0.2 < table["unicast"]["AP"] < 0.6
    assert 0.3 < table["unicast"]["MG"] < 0.75
    assert table["unicast"]["UR"] < 0.12
    assert table["anycast"]["MG"] == 0.0


def test_country_subset_run(pipeline):
    subset = pipeline.run(["UY", "PY"])
    assert set(subset.countries) == {"UY", "PY"}


def test_reused_pipeline_matches_fresh_pipeline(tiny_world):
    """A run's categories come from its own partials alone, never from
    the footprints of countries the pipeline measured earlier."""
    reused = Pipeline(tiny_world)
    reused.run(["BR", "US"])
    fresh = Pipeline(tiny_world).run(["FR"])
    assert list(iter_records(reused.run(["FR"]))) == \
        list(iter_records(fresh))


def test_depth_histogram_recorded(dataset):
    brazil = dataset.country("BR")
    assert 0 in brazil.depth_histogram
    assert sum(brazil.depth_histogram.values()) >= brazil.url_count
