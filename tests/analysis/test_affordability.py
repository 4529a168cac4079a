"""Tests for the affordability extension."""

import pytest

from repro.analysis.affordability import (
    affordability_gap,
    affordability_ranking,
    country_affordability,
)
from repro.world.affordability import (
    DATA_PRICE_USD_PER_GB,
    daily_income_usd,
    data_price_usd_per_gb,
)
from repro.world.countries import COUNTRIES


def test_price_table_covers_sample():
    assert set(DATA_PRICE_USD_PER_GB) == set(COUNTRIES)
    for price in DATA_PRICE_USD_PER_GB.values():
        assert 0 < price < 20


def test_price_lookup_case_insensitive():
    assert data_price_usd_per_gb("in") == DATA_PRICE_USD_PER_GB["IN"]


def test_daily_income_proxy():
    assert daily_income_usd("US") == pytest.approx(76_000 / 365)
    assert daily_income_usd("PK") < daily_income_usd("CH")


def test_country_affordability_fields(dataset):
    report = country_affordability(dataset, "BR")
    assert report.median_landing_bytes > 0
    assert report.visit_cost_usd > 0
    assert 0 < report.cost_share_of_daily_income < 1


def test_country_without_data_raises(dataset):
    with pytest.raises(ValueError):
        country_affordability(dataset, "KR")


def test_ranking_sorted_and_complete(dataset):
    ranking = affordability_ranking(dataset)
    measured = [c for c, cd in dataset.countries.items() if cd.url_count]
    assert len(ranking) == len(measured)
    shares = [report.cost_share_of_daily_income for report in ranking]
    assert shares == sorted(shares, reverse=True)


def test_gap_disfavours_poor_countries(dataset):
    # The same page weights cost (relatively) far more in low-income
    # countries -- the Habib et al. headline.
    gap = affordability_gap(dataset)
    assert gap > 2.0


def test_gap_requires_enough_countries(tiny_dataset):
    with pytest.raises(ValueError):
        affordability_gap(tiny_dataset)
