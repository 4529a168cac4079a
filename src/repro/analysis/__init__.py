"""Analyses of Sections 5-7 and Appendices D/E.

Each module implements the computation behind one or more figures or
tables of the paper; the ``benchmarks/`` directory wires them to
regeneration targets.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.analysis.engine": ["AnalysisIndex", "ensure_index"],
    "repro.analysis.hosting": [
        "global_breakdown", "regional_breakdown", "country_breakdown",
        "country_majority"],
    "repro.analysis.registration": [
        "LocationSplit", "global_split", "regional_split", "country_split"],
    "repro.analysis.crossborder": [
        "CrossBorderFlow", "flows", "same_region_share",
        "regional_affinity", "gdpr_compliance", "bilateral_share"],
    "repro.analysis.providers": [
        "ProviderFootprint", "global_provider_footprints",
        "provider_byte_reliance", "top_reliances"],
    "repro.analysis.diversification": [
        "hhi", "country_network_hhi", "hhi_by_dominant_category",
        "single_network_dependence"],
    "repro.analysis.clustering": [
        "country_signatures", "ward_linkage", "cluster_assignments"],
    "repro.analysis.regression": [
        "RegressionResult", "explanatory_regression",
        "variance_inflation_factors"],
    "repro.analysis.topsites": [
        "TopsiteReport", "analyze_topsites", "government_subset_breakdown"],
    "repro.analysis.dnsdep": [
        "DnsDependencyReport", "country_dns_dependency",
        "managed_dns_footprints", "global_third_party_dns_share"],
    "repro.analysis.https_adoption": [
        "HttpsReport", "country_https_adoption", "global_https_prevalence",
        "https_development_correlation"],
    "repro.analysis.resilience": [
        "OutageImpact", "outage_impact", "single_points_of_failure",
        "worst_global_outage"],
    "repro.analysis.longitudinal": [
        "CountryDelta", "CategoryMigration", "TrendPoint", "TrendReport",
        "compare_snapshots", "compute_trends", "trend_summary"],
    "repro.analysis.affordability": [
        "AffordabilityReport", "country_affordability",
        "affordability_ranking", "affordability_gap"],
})
