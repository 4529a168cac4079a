"""Analyses of Sections 5-7 and Appendices D/E.

Each module implements the computation behind one or more figures or
tables of the paper; the ``benchmarks/`` directory wires them to
regeneration targets.
"""

from repro.analysis.engine import AnalysisIndex, ensure_index
from repro.analysis.hosting import (
    global_breakdown,
    regional_breakdown,
    country_breakdown,
    country_majority,
)
from repro.analysis.registration import (
    LocationSplit,
    global_split,
    regional_split,
    country_split,
)
from repro.analysis.crossborder import (
    CrossBorderFlow,
    flows,
    same_region_share,
    regional_affinity,
    gdpr_compliance,
    bilateral_share,
)
from repro.analysis.providers import (
    ProviderFootprint,
    global_provider_footprints,
    provider_byte_reliance,
    top_reliances,
)
from repro.analysis.diversification import (
    hhi,
    country_network_hhi,
    hhi_by_dominant_category,
    single_network_dependence,
)
from repro.analysis.clustering import (
    country_signatures,
    ward_linkage,
    cluster_assignments,
)
from repro.analysis.regression import (
    RegressionResult,
    explanatory_regression,
    variance_inflation_factors,
)
from repro.analysis.topsites import (
    TopsiteReport,
    analyze_topsites,
    government_subset_breakdown,
)
from repro.analysis.dnsdep import (
    DnsDependencyReport,
    country_dns_dependency,
    managed_dns_footprints,
    global_third_party_dns_share,
)
from repro.analysis.https_adoption import (
    HttpsReport,
    country_https_adoption,
    global_https_prevalence,
    https_development_correlation,
)
from repro.analysis.resilience import (
    OutageImpact,
    outage_impact,
    single_points_of_failure,
    worst_global_outage,
)
from repro.analysis.longitudinal import (
    CategoryMigration,
    CountryDelta,
    TrendPoint,
    TrendReport,
    compare_snapshots,
    compute_trends,
    trend_summary,
)
from repro.analysis.affordability import (
    AffordabilityReport,
    country_affordability,
    affordability_ranking,
    affordability_gap,
)

__all__ = [
    "AnalysisIndex",
    "ensure_index",
    "global_breakdown",
    "regional_breakdown",
    "country_breakdown",
    "country_majority",
    "LocationSplit",
    "global_split",
    "regional_split",
    "country_split",
    "CrossBorderFlow",
    "flows",
    "same_region_share",
    "regional_affinity",
    "gdpr_compliance",
    "bilateral_share",
    "ProviderFootprint",
    "global_provider_footprints",
    "provider_byte_reliance",
    "top_reliances",
    "hhi",
    "country_network_hhi",
    "hhi_by_dominant_category",
    "single_network_dependence",
    "country_signatures",
    "ward_linkage",
    "cluster_assignments",
    "RegressionResult",
    "explanatory_regression",
    "variance_inflation_factors",
    "TopsiteReport",
    "analyze_topsites",
    "government_subset_breakdown",
    "DnsDependencyReport",
    "country_dns_dependency",
    "managed_dns_footprints",
    "global_third_party_dns_share",
    "HttpsReport",
    "country_https_adoption",
    "global_https_prevalence",
    "https_development_correlation",
    "OutageImpact",
    "outage_impact",
    "single_points_of_failure",
    "worst_global_outage",
    "CountryDelta",
    "CategoryMigration",
    "TrendPoint",
    "TrendReport",
    "compare_snapshots",
    "compute_trends",
    "trend_summary",
    "AffordabilityReport",
    "country_affordability",
    "affordability_ranking",
    "affordability_gap",
]
