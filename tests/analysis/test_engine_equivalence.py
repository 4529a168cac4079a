"""Index-backed analyses == legacy record loops, exactly.

Every Section 5-7 figure/table function rewritten onto the
:class:`~repro.analysis.engine.AnalysisIndex` is compared against the
verbatim pre-index implementation kept in :mod:`tests.analysis.oracle`.
Equality is strict ``==`` --
same floats (same arithmetic order), same orderings, same types -- over
two seeds, a faulted run and an empty dataset, and the full rendered
paper report must be byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.analysis import (
    crossborder,
    diversification,
    hosting,
    providers,
    registration,
    regression,
    resilience,
    topsites,
)
from repro.analysis.engine import AnalysisIndex, ensure_index
from repro.core.dataset import GovernmentHostingDataset
from repro.core.geolocation import ValidationStats
from repro.reporting.paper_report import render_paper_report
from tests.analysis import oracle as bl
from tests.records import build_country

ALT_COUNTRIES = ("BR", "US", "FR", "MA")


def _run(config: WorldConfig) -> GovernmentHostingDataset:
    world = SyntheticWorld.generate(config)
    return Pipeline(world).run(list(config.countries))


@pytest.fixture(scope="module")
def alt_dataset() -> GovernmentHostingDataset:
    """Second seed: a different world than the shared session dataset."""
    return _run(WorldConfig(seed=11, scale=0.03, countries=ALT_COUNTRIES,
                            include_topsites=False))


@pytest.fixture(scope="module")
def faulted_dataset() -> GovernmentHostingDataset:
    """A run with injected faults (excluded records, lost hostnames)."""
    return _run(WorldConfig(seed=13, scale=0.03, countries=ALT_COUNTRIES,
                            include_topsites=False, fault_rate=0.08))


@pytest.fixture(scope="module")
def empty_dataset() -> GovernmentHostingDataset:
    no_records = build_country("ZZ", [])
    return GovernmentHostingDataset(
        countries={"ZZ": no_records}, validation=ValidationStats(),
    )


#: Fixture names the equivalence matrix runs over: two seeds, a faulted
#: run, and a fully empty dataset.
DATASETS = ("dataset", "alt_dataset", "faulted_dataset", "empty_dataset")


@pytest.fixture(params=DATASETS)
def any_dataset(request) -> GovernmentHostingDataset:
    return request.getfixturevalue(request.param)


# ------------------------------------------------------------ Section 5

def test_global_breakdown_equivalent(any_dataset):
    assert hosting.global_breakdown(any_dataset) == \
        bl.baseline_global_breakdown(any_dataset)


def test_country_breakdown_equivalent(any_dataset):
    assert hosting.country_breakdown(any_dataset) == \
        bl.baseline_country_breakdown(any_dataset)


@pytest.mark.parametrize("by_bytes", [False, True])
@pytest.mark.parametrize("weighting", ["country", "url"])
def test_regional_breakdown_equivalent(any_dataset, by_bytes, weighting):
    ours = hosting.regional_breakdown(any_dataset, by_bytes=by_bytes,
                                      weighting=weighting)
    reference = bl.baseline_regional_breakdown(any_dataset, by_bytes=by_bytes,
                                               weighting=weighting)
    assert ours == reference
    assert list(ours) == list(reference)  # same region iteration order


@pytest.mark.parametrize("by_bytes", [False, True])
def test_country_majority_equivalent(any_dataset, by_bytes):
    assert hosting.country_majority(any_dataset, by_bytes=by_bytes) == \
        bl.baseline_country_majority(any_dataset, by_bytes=by_bytes)


# ------------------------------------------------------------ Section 6

def test_global_split_equivalent(any_dataset):
    assert registration.global_split(any_dataset) == \
        bl.baseline_global_split(any_dataset)


def test_country_split_equivalent(any_dataset):
    assert registration.country_split(any_dataset) == \
        bl.baseline_country_split(any_dataset)


@pytest.mark.parametrize("view", ["whois", "geolocation"])
@pytest.mark.parametrize("weighting", ["country", "url"])
def test_regional_split_equivalent(any_dataset, view, weighting):
    ours = registration.regional_split(any_dataset, view=view,
                                       weighting=weighting)
    reference = bl.baseline_regional_split(any_dataset, view=view,
                                           weighting=weighting)
    assert ours == reference
    assert list(ours) == list(reference)


@pytest.mark.parametrize("basis", ["server", "registration"])
def test_flows_equivalent(any_dataset, basis):
    assert crossborder.flows(any_dataset, basis) == \
        bl.baseline_flows(any_dataset, basis)


@pytest.mark.parametrize("basis", ["server", "registration"])
def test_same_region_share_equivalent(any_dataset, basis):
    ours = crossborder.same_region_share(any_dataset, basis)
    reference = bl.baseline_same_region_share(any_dataset, basis)
    assert ours == reference
    assert list(ours) == list(reference)


@pytest.mark.parametrize("basis", ["server", "registration"])
def test_regional_affinity_equivalent(any_dataset, basis):
    assert crossborder.regional_affinity(any_dataset, basis) == \
        bl.baseline_regional_affinity(any_dataset, basis)


def test_gdpr_compliance_equivalent(any_dataset):
    assert crossborder.gdpr_compliance(any_dataset) == \
        bl.baseline_gdpr_compliance(any_dataset)


@pytest.mark.parametrize("basis", ["server", "registration"])
def test_bilateral_share_equivalent(dataset, basis):
    for source, destination in [("MX", "US"), ("NZ", "AU"), ("BR", "BR"),
                                ("US", "QQ")]:
        assert crossborder.bilateral_share(dataset, source, destination,
                                           basis) == \
            bl.baseline_bilateral_share(dataset, source, destination, basis)


def test_bilateral_share_unknown_source_raises(dataset):
    with pytest.raises(KeyError):
        crossborder.bilateral_share(dataset, "QQ", "US")
    with pytest.raises(KeyError):
        bl.baseline_bilateral_share(dataset, "QQ", "US")


def test_foreign_share_by_destination_equivalent(any_dataset):
    ours = crossborder.foreign_share_by_destination(any_dataset)
    reference = bl.baseline_foreign_share_by_destination(any_dataset)
    assert ours == reference
    assert list(ours) == list(reference)


# ------------------------------------------------------------ Section 7

def test_global_provider_asns_equivalent(any_dataset):
    assert providers.global_provider_asns(any_dataset) == \
        bl.baseline_global_provider_asns(any_dataset)


def test_global_provider_footprints_equivalent(any_dataset):
    assert providers.global_provider_footprints(any_dataset) == \
        bl.baseline_global_provider_footprints(any_dataset)


def test_provider_byte_reliance_equivalent(any_dataset):
    ours = providers.provider_byte_reliance(any_dataset)
    reference = bl.baseline_provider_byte_reliance(any_dataset)
    assert ours == reference
    assert list(ours) == list(reference)


def test_top_reliances_equivalent(any_dataset):
    assert providers.top_reliances(any_dataset, 5) == \
        bl.baseline_top_reliances(any_dataset, 5)


@pytest.mark.parametrize("by_bytes", [False, True])
def test_country_network_hhi_equivalent(any_dataset, by_bytes):
    assert diversification.country_network_hhi(any_dataset,
                                               by_bytes=by_bytes) == \
        bl.baseline_country_network_hhi(any_dataset, by_bytes=by_bytes)


@pytest.mark.parametrize("by_bytes", [False, True])
def test_hhi_by_dominant_category_equivalent(any_dataset, by_bytes):
    assert diversification.hhi_by_dominant_category(
        any_dataset, by_bytes=by_bytes
    ) == bl.baseline_hhi_by_dominant_category(any_dataset, by_bytes=by_bytes)


def test_single_network_dependence_equivalent(any_dataset):
    assert diversification.single_network_dependence(any_dataset) == \
        bl.baseline_single_network_dependence(any_dataset)


def test_outage_impact_equivalent(any_dataset):
    index = ensure_index(any_dataset)
    for asn in index.asn_first_seen()[:5]:
        assert resilience.outage_impact(any_dataset, asn) == \
            bl.baseline_outage_impact(any_dataset, asn)
    assert resilience.outage_impact(any_dataset, -1) == \
        bl.baseline_outage_impact(any_dataset, -1)


def test_single_points_of_failure_equivalent(any_dataset):
    assert resilience.single_points_of_failure(any_dataset) == \
        bl.baseline_single_points_of_failure(any_dataset)


def test_worst_global_outage_equivalent(any_dataset):
    assert resilience.worst_global_outage(any_dataset) == \
        bl.baseline_worst_global_outage(any_dataset)


# ------------------------------------------------- Appendix E regression

def test_feature_matrix_equivalent(any_dataset):
    codes, features, outcome = regression.feature_matrix(any_dataset)
    ref_codes, ref_features, ref_outcome = \
        bl.baseline_feature_matrix(any_dataset)
    assert codes == ref_codes
    assert np.array_equal(features, ref_features)
    assert np.array_equal(outcome, ref_outcome)


def test_regression_equivalent(dataset):
    assert regression.explanatory_regression(dataset) == \
        bl.baseline_explanatory_regression(dataset)
    assert regression.variance_inflation_factors(dataset) == \
        bl.baseline_variance_inflation_factors(dataset)


def test_regression_too_few_countries_raises_both_ways(alt_dataset,
                                                       empty_dataset):
    # Four countries are fewer than the seven observations OLS needs;
    # the empty dataset has none at all.  Both paths must refuse alike.
    for measured in (alt_dataset, empty_dataset):
        with pytest.raises(ValueError):
            regression.explanatory_regression(measured)
        with pytest.raises(ValueError):
            bl.baseline_explanatory_regression(measured)


# ------------------------------------------------- topsites subsets

def test_government_subset_breakdown_equivalent(any_dataset):
    assert topsites.government_subset_breakdown(any_dataset) == \
        bl.baseline_government_subset_breakdown(any_dataset)


def test_government_subset_location_equivalent(any_dataset):
    assert topsites.government_subset_location(any_dataset) == \
        bl.baseline_government_subset_location(any_dataset)


# ------------------------------------------------- summary + report text

def test_summary_equals_record_summarize(any_dataset):
    assert ensure_index(any_dataset).summary() == any_dataset.summarize()


def test_report_byte_identical(dataset, world):
    assert render_paper_report(dataset) == \
        bl.baseline_render_paper_report(dataset)
    assert render_paper_report(dataset, world) == \
        bl.baseline_render_paper_report(dataset, world)


def test_report_byte_identical_faulted(faulted_dataset):
    assert render_paper_report(faulted_dataset) == \
        bl.baseline_render_paper_report(faulted_dataset)


def test_report_byte_identical_empty(empty_dataset):
    assert render_paper_report(empty_dataset) == \
        bl.baseline_render_paper_report(empty_dataset)


# ------------------------------------------------- index plumbing

def test_index_cached_on_dataset(alt_dataset):
    first = ensure_index(alt_dataset)
    assert ensure_index(alt_dataset) is first
    assert ensure_index(first) is first
    assert first.dataset is alt_dataset


def test_build_always_fresh(alt_dataset):
    assert AnalysisIndex.build(alt_dataset) is not \
        AnalysisIndex.build(alt_dataset)


def test_record_count_matches(any_dataset):
    index = ensure_index(any_dataset)
    assert index.record_count == sum(
        len(cd.host_table.urls) for cd in any_dataset.countries.values()
    )


def test_passing_index_directly_matches_dataset(dataset):
    index = ensure_index(dataset)
    assert hosting.global_breakdown(index) == \
        hosting.global_breakdown(dataset)
    assert registration.global_split(index) == \
        registration.global_split(dataset)
    assert render_paper_report(index) == render_paper_report(dataset)


# ------------------------------------------------- store-backed index

def _store_roundtrip(measured, tmp_path):
    from repro.store import load_store_dataset, write_store

    write_store(measured, tmp_path / "equiv.store")
    return load_store_dataset(tmp_path / "equiv.store")


def test_report_byte_identical_store_backed(dataset, tmp_path):
    store_dataset = _store_roundtrip(dataset, tmp_path)
    assert render_paper_report(store_dataset) == \
        bl.baseline_render_paper_report(dataset)


def test_report_byte_identical_store_backed_faulted(faulted_dataset,
                                                    tmp_path):
    store_dataset = _store_roundtrip(faulted_dataset, tmp_path)
    assert render_paper_report(store_dataset) == \
        bl.baseline_render_paper_report(faulted_dataset)


def test_report_byte_identical_store_backed_empty(empty_dataset, tmp_path):
    store_dataset = _store_roundtrip(empty_dataset, tmp_path)
    assert render_paper_report(store_dataset) == \
        bl.baseline_render_paper_report(empty_dataset)
