"""N-snapshot trend engine plus the one-sided compare_snapshots fix."""

from __future__ import annotations

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.analysis.longitudinal import (
    TrendReport,
    compare_snapshots,
    compute_trends,
    trend_summary,
)


def _measure(countries, seed=7, **config_kwargs):
    config = WorldConfig(seed=seed, scale=0.05, countries=countries,
                         **config_kwargs)
    return Pipeline(SyntheticWorld.generate(config)).run()


@pytest.fixture(scope="module")
def snapshots():
    """A three-snapshot series with growing third-party drift."""
    return [
        _measure(("BR", "US", "FR"), third_party_drift=drift)
        for drift in (0.0, 0.15, 0.3)
    ]


# ------------------------------------------- one-sided compare_snapshots

def test_compare_skips_country_in_only_one_snapshot():
    """A country measured in just one snapshot must not raise: it has
    no delta and is omitted."""
    before = _measure(("BR", "US"))
    after = _measure(("BR", "US", "FR"))
    deltas = compare_snapshots(before, after)
    assert set(deltas) == {"BR", "US"}
    reverse = compare_snapshots(after, before)
    assert set(reverse) == {"BR", "US"}


def test_compare_identical_snapshots_all_zero(tiny_dataset):
    deltas = compare_snapshots(tiny_dataset, tiny_dataset)
    assert deltas
    assert all(d.delta == 0.0 for d in deltas.values())
    summary = trend_summary(deltas)
    assert summary["mean_delta"] == 0.0
    assert summary["share_increasing"] == 0.0


# ------------------------------------------------------- trend engine

def test_trend_report_shape(snapshots):
    report = compute_trends(snapshots)
    assert isinstance(report, TrendReport)
    assert report.labels == ("T+0", "T+1", "T+2")
    assert len(report.points) == 3
    for point in report.points:
        assert point.countries == 3
        assert 0.0 <= point.mean_third_party_share <= 1.0
        assert 0.0 < point.mean_hhi <= 1.0
    assert set(report.hhi_series) == {"BR", "US", "FR"}
    for series in report.hhi_series.values():
        assert len(series) == 3


def test_third_party_drift_detected(snapshots):
    """Worlds generated with growing third_party_drift must trend up."""
    report = compute_trends(snapshots)
    shares = [p.mean_third_party_share for p in report.points]
    assert shares[0] < shares[-1]
    assert report.third_party_drift > 0.0


def test_custom_labels(snapshots):
    report = compute_trends(snapshots, labels=["2023", "2024", "2025"])
    assert report.labels == ("2023", "2024", "2025")
    with pytest.raises(ValueError):
        compute_trends(snapshots, labels=["only-one"])


def test_single_snapshot_degenerate(tiny_dataset):
    report = compute_trends([tiny_dataset])
    assert report.snapshot_count == 1
    assert report.hhi_drift == 0.0
    assert report.third_party_drift == 0.0
    assert report.migrations == ()


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        compute_trends([])


def test_to_dict_json_ready(snapshots):
    import json

    payload = compute_trends(snapshots).to_dict()
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["labels"] == ["T+0", "T+1", "T+2"]
    assert len(round_tripped["points"]) == 3
    assert "hhi_drift" in round_tripped
    assert set(round_tripped["hhi_series"]) == {"BR", "US", "FR"}


def test_migrations_well_formed(snapshots):
    report = compute_trends(snapshots)
    labels = set(report.labels)
    for migration in report.migrations:
        assert migration.from_label in labels
        assert migration.to_label in labels
        assert migration.from_category != migration.to_category


def test_accepts_prebuilt_indexes(snapshots):
    from repro.analysis.engine import ensure_index

    via_datasets = compute_trends(snapshots)
    via_indexes = compute_trends([ensure_index(s) for s in snapshots])
    assert via_datasets.to_dict() == via_indexes.to_dict()
