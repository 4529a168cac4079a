"""Tests for HCA clustering (Figure 5) and the OLS regression (Figure 12)."""

import math

import numpy as np
import pytest

from repro.analysis.clustering import (
    cluster_assignments,
    country_signatures,
    dendrogram_order,
    dominant_category_of_cluster,
    ward_linkage,
)
from repro.analysis.regression import (
    FEATURE_NAMES,
    explanatory_regression,
    feature_matrix,
    fit_ols,
    variance_inflation_factors,
)
from repro.categories import HostingCategory


def test_signatures_rows_normalized(dataset):
    codes, signatures = country_signatures(dataset)
    assert len(codes) == len(signatures)
    assert "KR" not in codes
    for row in signatures:
        assert row.sum() == pytest.approx(1.0)


def test_ward_clustering_produces_three_branches(dataset):
    codes, signatures = country_signatures(dataset, by_bytes=True)
    linkage = ward_linkage(signatures)
    assignments = cluster_assignments(codes, linkage, n_clusters=3)
    assert set(assignments.values()) == {1, 2, 3}
    # Each main branch corresponds to a distinct dominant hosting source.
    dominants = {
        dominant_category_of_cluster(codes, signatures, assignments, cluster)
        for cluster in (1, 2, 3)
    }
    assert len(dominants) == 3
    assert HostingCategory.GOVT_SOE in dominants


def test_similar_countries_share_cluster(dataset):
    codes, signatures = country_signatures(dataset, by_bytes=True)
    linkage = ward_linkage(signatures)
    assignments = cluster_assignments(codes, linkage, n_clusters=3)
    # Brazil/Russia (Govt&SOE-dominant) cluster together, away from
    # Argentina (Global-dominant) -- the Section 5.3 observation.
    assert assignments["BR"] == assignments["RU"]
    assert assignments["BR"] != assignments["AR"]
    assert assignments["UY"] == assignments["IN"]


def test_dendrogram_order_is_permutation(dataset):
    codes, signatures = country_signatures(dataset)
    linkage = ward_linkage(signatures)
    order = dendrogram_order(linkage, codes)
    assert sorted(order) == sorted(codes)


def test_clustering_needs_two_rows():
    with pytest.raises(ValueError):
        ward_linkage(np.array([[1.0, 0.0, 0.0, 0.0]]))


def test_feature_matrix_standardized(dataset):
    codes, features, outcome = feature_matrix(dataset)
    assert features.shape == (len(codes), len(FEATURE_NAMES))
    assert np.allclose(features.mean(axis=0), 0, atol=1e-9)
    assert np.allclose(features.std(axis=0), 1, atol=1e-6)
    assert outcome.mean() == pytest.approx(0.0, abs=1e-9)


def test_regression_reproduces_figure12_shape(dataset):
    result = explanatory_regression(dataset)
    users = result.coefficient("internet_users")
    nri = result.coefficient("NRI")
    gdp = result.coefficient("GDP")
    # Paper: users positive and significant, NRI negative and significant,
    # GDP negative.
    assert users.estimate > 0
    assert users.significant
    assert nri.estimate < 0
    assert nri.significant
    assert gdp.estimate < 0.15  # negative or near zero
    assert result.n_observations >= 55
    assert 0 <= result.r_squared <= 1


def test_confidence_intervals_bracket_estimates(dataset):
    result = explanatory_regression(dataset)
    for coefficient in result.coefficients.values():
        assert coefficient.ci_low < coefficient.estimate < coefficient.ci_high
        assert coefficient.stderr > 0


@pytest.mark.parametrize("noise", [1.0, 0.0],
                         ids=["finite-t", "zero-stderr"])
def test_fit_ols_student_t_values_equal_scipy_stats(noise):
    """``fit_ols`` calls ``scipy.special`` directly; its p-values and CI
    bounds must be the very floats ``scipy.stats.t`` gives, including
    t = inf (a zero outcome fits exactly: every standard error is 0)."""
    from scipy import stats

    rng = np.random.default_rng(20)
    n = 24
    features = rng.normal(size=(n, len(FEATURE_NAMES)))
    outcome = noise * (features @ np.array([3.0, 0.4, 0.0, 0.1, -1.0, 0.0])
                       + rng.normal(size=n))
    result = fit_ols(features, outcome)
    dof = n - (len(FEATURE_NAMES) + 1)
    t_crit = stats.t.ppf(0.975, dof)
    for coefficient in result.coefficients.values():
        estimate, stderr = coefficient.estimate, coefficient.stderr
        t_stat = estimate / stderr if stderr > 0 else math.inf
        assert coefficient.p_value == float(2 * stats.t.sf(abs(t_stat), dof))
        assert coefficient.ci_low == estimate - t_crit * stderr
        assert coefficient.ci_high == estimate + t_crit * stderr
    p_values = [c.p_value for c in result.coefficients.values()]
    if noise:
        assert min(p_values) < 1e-6 < max(p_values) < 1.0
    else:
        assert p_values == [0.0] * len(FEATURE_NAMES)


def test_vifs_below_ten(dataset):
    vifs = variance_inflation_factors(dataset)
    assert set(vifs) == set(FEATURE_NAMES)
    for value in vifs.values():
        assert 1.0 <= value < 10.0
    # Internet users is the least collinear feature (Table 7).
    assert min(vifs, key=vifs.get) == "internet_users"
