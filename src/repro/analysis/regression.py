"""Explanatory OLS regression (Appendix E, Figure 12, Table 7).

Regresses the percentage of each country's government URLs served from
abroad on six standardized country-level features: the ICT Development
Index, the Economic Freedom Index, GDP per capita, the Human
Development Index, the Network Readiness Index, and the number of
Internet users.  Reports coefficients with 95% confidence intervals and
p-values, plus Variance Inflation Factors for multicollinearity.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy import stats

from repro.analysis.engine.index import DatasetOrIndex, ensure_index
from repro.world.countries import get_country

#: Feature order used throughout (matches the paper's Equation 1 naming).
FEATURE_NAMES = ("IDI", "econ_freedom", "GDP", "HDI", "NRI", "internet_users")


@dataclasses.dataclass(frozen=True)
class Coefficient:
    """One estimated regression coefficient."""

    name: str
    estimate: float
    stderr: float
    ci_low: float
    ci_high: float
    p_value: float

    @property
    def significant(self) -> bool:
        """Significance at the 5% level."""
        return self.p_value < 0.05


@dataclasses.dataclass(frozen=True)
class RegressionResult:
    """Complete OLS output for Figure 12."""

    coefficients: dict[str, Coefficient]
    intercept: float
    r_squared: float
    n_observations: int

    def coefficient(self, name: str) -> Coefficient:
        return self.coefficients[name]


def _standardize(matrix: np.ndarray) -> np.ndarray:
    if matrix.size == 0:
        return matrix
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0, ddof=0)
    std[std == 0] = 1.0
    return (matrix - mean) / std


def feature_matrix(
    dataset: DatasetOrIndex,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Country codes, standardized feature matrix and outcome vector.

    The outcome follows the Figure 12 caption: the percentage of a
    country's *server IPs* located outside the country (standardized,
    like every feature).
    """
    index = ensure_index(dataset)
    codes: list[str] = []
    raw_features: list[list[float]] = []
    outcomes: list[float] = []
    for code, (foreign_ips, total_ips) in index.address_location_counts().items():
        country = get_country(code)
        intl = foreign_ips / total_ips if total_ips else 0.0
        codes.append(code)
        raw_features.append([
            country.idi,
            country.efi,
            country.gdp_per_capita_kusd,
            country.hdi if country.hdi is not None else 0.8,
            country.nri,
            country.internet_users_m,
        ])
        outcomes.append(intl)
    features = _standardize(np.array(raw_features, dtype=float))
    outcome = np.array(outcomes, dtype=float)
    if outcome.size:  # an empty vector has no mean to standardize by
        outcome = (outcome - outcome.mean()) / (outcome.std() or 1.0)
    return codes, features, outcome


def fit_ols(features: np.ndarray, outcome: np.ndarray) -> RegressionResult:
    """Fit the Appendix E OLS model over prepared matrices."""
    n, k = features.shape
    if n <= k + 1:
        raise ValueError("not enough countries for the regression")
    design = np.column_stack([np.ones(n), features])
    beta, _, _, _ = np.linalg.lstsq(design, outcome, rcond=None)
    residuals = outcome - design @ beta
    dof = n - (k + 1)
    sigma2 = float(residuals @ residuals) / dof
    covariance = sigma2 * np.linalg.inv(design.T @ design)
    stderrs = np.sqrt(np.diag(covariance))
    t_crit = stats.t.ppf(0.975, dof)

    coefficients: dict[str, Coefficient] = {}
    for index, name in enumerate(FEATURE_NAMES):
        estimate = float(beta[index + 1])
        stderr = float(stderrs[index + 1])
        t_stat = estimate / stderr if stderr > 0 else math.inf
        p_value = float(2 * stats.t.sf(abs(t_stat), dof))
        coefficients[name] = Coefficient(
            name=name,
            estimate=estimate,
            stderr=stderr,
            ci_low=estimate - t_crit * stderr,
            ci_high=estimate + t_crit * stderr,
            p_value=p_value,
        )
    total_ss = float(((outcome - outcome.mean()) ** 2).sum())
    residual_ss = float(residuals @ residuals)
    r_squared = 1.0 - residual_ss / total_ss if total_ss > 0 else 0.0
    return RegressionResult(
        coefficients=coefficients,
        intercept=float(beta[0]),
        r_squared=r_squared,
        n_observations=n,
    )


def explanatory_regression(dataset: DatasetOrIndex) -> RegressionResult:
    """Fit the Appendix E OLS model."""
    _, features, outcome = feature_matrix(dataset)
    return fit_ols(features, outcome)


def vifs_of_features(features: np.ndarray) -> dict[str, float]:
    """Table 7 VIFs over a prepared feature matrix."""
    n, k = features.shape
    vifs: dict[str, float] = {}
    for j, name in enumerate(FEATURE_NAMES):
        target = features[:, j]
        others = np.delete(features, j, axis=1)
        design = np.column_stack([np.ones(n), others])
        beta, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
        predicted = design @ beta
        ss_res = float(((target - predicted) ** 2).sum())
        ss_tot = float(((target - target.mean()) ** 2).sum())
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
        vifs[name] = 1.0 / (1.0 - r2) if r2 < 1.0 else math.inf
    return vifs


def variance_inflation_factors(
    dataset: DatasetOrIndex,
) -> dict[str, float]:
    """Table 7: VIF of each explanatory feature.

    VIF_j = 1 / (1 - R_j^2), where R_j^2 comes from regressing feature j
    on the remaining features.
    """
    _, features, _ = feature_matrix(dataset)
    return vifs_of_features(features)


__all__ = [
    "FEATURE_NAMES",
    "Coefficient",
    "RegressionResult",
    "feature_matrix",
    "fit_ols",
    "vifs_of_features",
    "explanatory_regression",
    "variance_inflation_factors",
]
