"""Tests asserting generator-vs-profile calibration quality."""

import pytest

from repro.datagen.calibration import calibrate, country_calibration
from repro.world.profiles import get_profile


@pytest.fixture(scope="module")
def report(dataset):
    return calibrate(dataset)


def test_report_covers_measured_countries(report, dataset):
    measured = {c for c, cd in dataset.countries.items() if cd.url_count}
    assert set(report.countries) == measured


def test_mean_mix_error_is_small(report):
    # At the session scale, the URL-weighted greedy assignment keeps the
    # mean per-country deviation within a few points.
    assert report.mean_url_mix_error < 0.12


def test_mean_intl_error_is_small(report):
    assert report.mean_intl_error < 0.10


def test_site_rich_countries_calibrate_tightly(report):
    # Quantization hurts only host-poor countries (e.g. Hungary packs 204k
    # URLs into ~70 hostnames); countries with many sites must be close to
    # their targets.
    for code in ("US", "BE", "DE", "NL", "CL"):
        calibration = report.countries[code]
        assert calibration.sites >= 10, code
        assert calibration.url_mix_error < 0.13, code
        assert calibration.intl_error < 0.10, code


def test_worst_returns_sorted(report):
    worst = report.worst(3)
    assert len(worst) == 3
    assert worst[0].url_mix_error >= worst[1].url_mix_error >= worst[2].url_mix_error


def test_country_calibration_against_explicit_profile(dataset):
    calibration = country_calibration(dataset, "UY", get_profile("UY"))
    assert calibration.country == "UY"
    assert calibration.sites > 0
    assert calibration.url_mix_error < 0.25
