"""Tests for the calibrated hosting profiles."""

import pytest

from repro.categories import HostingCategory
from repro.world.countries import COUNTRIES
from repro.world.profiles import (
    REGION_BYTE_MIX,
    REGION_INTL_SERVER_FRAC,
    REGION_URL_MIX,
    all_profiles,
    get_profile,
)

_G = HostingCategory.GOVT_SOE
_L = HostingCategory.P3_LOCAL
_GL = HostingCategory.P3_GLOBAL


def test_every_country_has_a_profile():
    profiles = all_profiles()
    assert set(profiles) == set(COUNTRIES)


def test_mixes_are_normalized():
    for code in COUNTRIES:
        profile = get_profile(code)
        assert sum(profile.url_mix.values()) == pytest.approx(1.0)
        assert sum(profile.byte_mix.values()) == pytest.approx(1.0)


def test_region_reference_mixes_normalized():
    for mix in list(REGION_URL_MIX.values()) + list(REGION_BYTE_MIX.values()):
        assert sum(mix.values()) == pytest.approx(1.0)


def test_intl_fraction_within_unit_interval():
    for code in COUNTRIES:
        profile = get_profile(code)
        assert 0.0 <= profile.intl_server_frac <= 0.85


def test_paper_pinned_country_findings():
    # Uruguay: 98% of bytes from Govt&SOE (Section 5.3).
    assert get_profile("UY").byte_mix[_G] > 0.9
    # Italy: 93% 3P Local (Section 5.3).
    assert get_profile("IT").url_mix[_L] == pytest.approx(0.93, abs=0.02)
    # Argentina: ~90% third-party (Section 1).
    argentina = get_profile("AR")
    assert 1 - argentina.url_mix[_G] == pytest.approx(0.90, abs=0.03)
    # Mexico: 79.22% of URLs served from the US (Section 6.3).
    mexico = get_profile("MX")
    assert mexico.intl_server_frac == pytest.approx(0.7922)
    assert mexico.partners["US"] > 0.9
    # New Zealand -> Australia 40%.
    nz = get_profile("NZ")
    assert nz.intl_server_frac == pytest.approx(0.40)
    assert max(nz.partners, key=nz.partners.get) == "AU"
    # France -> New Caledonia 18.03%.
    fr = get_profile("FR")
    assert fr.intl_server_frac == pytest.approx(0.1803)
    assert fr.partners == {"NC": 1.0}
    # India: 99.3% domestic.
    assert get_profile("IN").intl_server_frac == pytest.approx(0.007)
    # China: 26.4% of URLs from Japan.
    cn = get_profile("CN")
    assert cn.intl_server_frac == pytest.approx(0.264)
    assert max(cn.partners, key=cn.partners.get) == "JP"


def test_partner_weights_exclude_self():
    for code in COUNTRIES:
        assert code not in get_profile(code).partners


def test_dominant_category_examples():
    assert get_profile("UY").dominant_category() is _G
    assert get_profile("IT").dominant_category() is _L
    assert get_profile("CA").dominant_category() is _GL


def test_network_counts_positive():
    for code in COUNTRIES:
        profile = get_profile(code)
        assert profile.gov_network_count >= 1
        assert profile.local_provider_count >= 2


def test_default_intl_reacts_to_development_drivers():
    # Two ECA countries sharing the regional default but with very
    # different development: the populous/low-NRI one must host more
    # services abroad than the rich/high-NRI one.
    ua = get_profile("UA").intl_server_frac
    ch = get_profile("CH").intl_server_frac
    assert ua > ch


def test_region_intl_defaults_match_figure8b():
    from repro.world.regions import Region

    assert REGION_INTL_SERVER_FRAC[Region.SSA] == pytest.approx(0.48)
    assert REGION_INTL_SERVER_FRAC[Region.NA] == pytest.approx(0.02)


def test_foreign_byte_boost_defaults_to_one():
    assert get_profile("BR").foreign_byte_boost == 1.0
    assert get_profile("NO").foreign_byte_boost > 1.0


def test_development_residuals_match_the_appendix_e_regression():
    # The checked-in table is the OLS residual of each standardized
    # feature on the other five; recompute it to keep the two honest.
    import numpy as np

    from repro.world.profiles import _DEV_RESIDUALS

    raw = np.array([
        [c.idi, c.efi, c.gdp_per_capita_kusd,
         (c.hdi if c.hdi is not None else 0.8), c.nri, c.internet_users_m]
        for c in COUNTRIES.values()
    ])
    std = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    columns = []
    for column in (5, 4, 2):  # users, NRI, GDP
        target = std[:, column]
        others = np.delete(std, column, axis=1)
        design = np.column_stack([np.ones(len(COUNTRIES)), others])
        beta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        columns.append(target - design @ beta)
    assert list(_DEV_RESIDUALS) == list(COUNTRIES)
    table = np.array(list(_DEV_RESIDUALS.values()))
    assert table.shape == (61, 3)
    np.testing.assert_allclose(table, np.column_stack(columns),
                               rtol=0, atol=1e-12)
