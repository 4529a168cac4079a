"""Full paper-style evaluation report.

Renders every Section 5-7 analysis (plus the extensions) over a
measured dataset into one text document -- the "regenerate the paper's
evaluation" entry point used by ``examples/full_report.py`` and the
CLI.

The renderer builds one :class:`~repro.analysis.engine.AnalysisIndex`
up front (cached on the dataset) and feeds it to every analysis, so the
whole report costs a single record scan; the rendered text is
byte-identical to the record-loop implementations (see the test
oracle ``tests/analysis/oracle.py`` and the equivalence suite).
"""

from __future__ import annotations

import statistics
from typing import Optional

from repro.analysis.crossborder import (
    foreign_share_by_destination,
    gdpr_compliance,
    regional_affinity,
    same_region_share,
)
from repro.analysis.diversification import (
    hhi_by_dominant_category,
    single_network_dependence,
)
from repro.analysis.hosting import country_majority, global_breakdown, regional_breakdown
from repro.analysis.providers import global_provider_footprints, top_reliances
from repro.analysis.registration import global_split, regional_split
from repro.analysis.regression import (
    FEATURE_NAMES,
    explanatory_regression,
    variance_inflation_factors,
)
from repro.analysis.engine.index import AnalysisIndex, DatasetOrIndex, ensure_index
from repro.categories import CATEGORY_ORDER, HostingCategory
from repro.reporting.figures import render_histogram
from repro.reporting.tables import render_table


def _section(title: str) -> str:
    rule = "=" * len(title)
    return f"\n{title}\n{rule}\n"


def _hosting_section(index: AnalysisIndex) -> str:
    parts = [_section("Trends in government hosting (Section 5)")]
    breakdown = global_breakdown(index)
    parts.append(render_table(
        ["category", "URLs", "bytes"],
        [[str(c), f"{breakdown['urls'][c]:.2f}", f"{breakdown['bytes'][c]:.2f}"]
         for c in CATEGORY_ORDER],
        title="Global prevalence (Figure 2)",
    ))
    regional = regional_breakdown(index, by_bytes=True)
    parts.append("")
    parts.append(render_table(
        ["region"] + [str(c) for c in CATEGORY_ORDER],
        [[region.name] + [f"{mix[c]:.2f}" for c in CATEGORY_ORDER]
         for region, mix in sorted(regional.items(), key=lambda kv: kv[0].name)],
        title="Regional byte mixes (Figure 4b)",
    ))
    majority = country_majority(index)
    third_party = sorted(c for c, label in majority.items() if label == "3P")
    parts.append(
        f"\nMajority third-party countries (Figure 1): {len(third_party)} of "
        f"{len(majority)} -- {' '.join(third_party)}"
    )
    return "\n".join(parts)


def _location_section(index: AnalysisIndex) -> str:
    parts = [_section("Registration and server locations (Section 6)")]
    splits = global_split(index)
    parts.append(render_table(
        ["view", "domestic", "international"],
        [[view, f"{split.domestic:.2f}", f"{split.international:.2f}"]
         for view, split in splits.items()],
        title="Global domestic/international (Figure 6)",
    ))
    location = regional_split(index, view="geolocation", weighting="url")
    parts.append("")
    parts.append(render_table(
        ["region", "domestic"],
        [[region.name, f"{split.domestic:.2f}"]
         for region, split in sorted(location.items(),
                                     key=lambda kv: kv[1].domestic)],
        title="Server location per region (Figure 8b)",
    ))
    retention = same_region_share(index)
    parts.append("")
    parts.append(render_table(
        ["region", "% in-region"],
        [[region.name, f"{share * 100:.1f}"]
         for region, share in sorted(retention.items(), key=lambda kv: -kv[1])],
        title="Cross-border dependencies staying in-region (Table 5)",
    ))
    affinity = regional_affinity(index)
    for region, hosts in sorted(affinity.items(), key=lambda kv: kv[0].name):
        leader = max(hosts, key=hosts.get)
        parts.append(f"  {region.name}: {leader} hosts {hosts[leader]:.0%} "
                     f"of in-region cross-border URLs")
    destinations = foreign_share_by_destination(index)
    if destinations:
        top = sorted(destinations.items(), key=lambda kv: -kv[1])[:5]
        parts.append("  top foreign destinations: " + ", ".join(
            f"{code} {share:.0%}" for code, share in top))
    parts.append(f"  GDPR compliance of EU members: {gdpr_compliance(index):.1%}")
    return "\n".join(parts)


def _centralization_section(index: AnalysisIndex) -> str:
    parts = [_section("Global providers and diversification (Section 7)")]
    footprints = global_provider_footprints(index)
    if footprints:
        parts.append(render_histogram(
            [f"{fp.name} (AS{fp.asn})" for fp in footprints[:10]],
            [fp.country_count for fp in footprints[:10]],
            title="Countries per Global provider (Figure 10)",
        ))
    reliances = top_reliances(index, 5)
    parts.append("")
    parts.append(render_table(
        ["provider", "country", "byte share"],
        [[name, country, f"{fraction:.0%}"]
         for name, _asn, country, fraction in reliances],
        title="Deepest single-provider reliances",
    ))
    groups = hhi_by_dominant_category(index, by_bytes=True)
    dependence = single_network_dependence(index)
    rows = []
    for category in (HostingCategory.GOVT_SOE, HostingCategory.P3_LOCAL,
                     HostingCategory.P3_GLOBAL):
        values = groups.get(category, [])
        above, total = dependence.get(category, (0, 0))
        rows.append([
            str(category),
            f"{statistics.median(values):.2f}" if values else "-",
            f"{above}/{total}" if total else "-",
        ])
    parts.append("")
    parts.append(render_table(
        ["dominant source", "median HHI", ">50% single network"],
        rows, title="Diversification (Figure 11)",
    ))
    return "\n".join(parts)


def _regression_section(index: AnalysisIndex) -> str:
    parts = [_section("Explanatory factors (Appendix E)")]
    try:
        result = explanatory_regression(index)
    except ValueError:
        return parts[0] + "not enough countries for the regression"
    vifs = variance_inflation_factors(index)
    parts.append(render_table(
        ["feature", "estimate", "p-value", "VIF"],
        [[name,
          f"{result.coefficient(name).estimate:+.3f}",
          f"{result.coefficient(name).p_value:.3f}",
          f"{vifs[name]:.2f}"]
         for name in FEATURE_NAMES],
        title="OLS over offshore-hosting shares (Figure 12, Table 7)",
    ))
    parts.append(f"R^2 = {result.r_squared:.2f}, n = {result.n_observations}")
    return "\n".join(parts)


def render_paper_report(
    dataset: DatasetOrIndex,
    world: Optional[object] = None,
) -> str:
    """The full evaluation report; pass the world to add the extensions."""
    index = ensure_index(dataset)
    summary = index.summary()
    header = (
        "OF CHOICES AND CONTROL -- reproduction report\n"
        f"{summary.total_unique_urls:,} URLs / "
        f"{summary.unique_hostnames:,} hostnames / "
        f"{summary.ases} ASes / {summary.unique_addresses} addresses / "
        f"{summary.countries_with_servers} server countries\n"
    )
    sections = [
        header,
        _hosting_section(index),
        _location_section(index),
        _centralization_section(index),
        _regression_section(index),
    ]
    if world is not None:
        from repro.analysis.dnsdep import global_third_party_dns_share
        from repro.analysis.https_adoption import global_https_prevalence

        have, valid = global_https_prevalence(world, index)
        dns_share = global_third_party_dns_share(world, index)
        sections.append(_section("Extensions") + (
            f"valid HTTPS on government hostnames: {valid:.1%}\n"
            f"government domains on third-party DNS: {dns_share:.1%}"
        ))
    return "\n".join(sections) + "\n"


__all__ = ["render_paper_report"]
