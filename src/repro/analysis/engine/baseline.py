"""Reference record-loop implementations of the Section 5-7 analyses.

Each ``baseline_*`` function is the pre-index implementation of the
corresponding analysis, kept verbatim: one (or more) full passes over
``dataset.iter_records()`` / ``country_dataset.records`` per call.
They serve two purposes:

* the equivalence suite (``tests/analysis/test_engine_equivalence.py``)
  asserts that the :class:`~repro.analysis.engine.AnalysisIndex`-backed
  rewrites return **exactly equal** results -- same float arithmetic,
  same ordering, same types;
* the report benchmark (``benchmarks/bench_report_analysis.py``)
  measures the index speedup against these loops.

Nothing here is exported through ``repro.analysis.engine`` -- import it
explicitly.  Production code must use the index-backed analyses.
"""

from __future__ import annotations

import statistics
from typing import Optional

import numpy as np

from repro.analysis.crossborder import (
    Basis,
    CrossBorderFlow,
    EU_MEMBER_CODES,
    region_of,
)
from repro.analysis.diversification import dominant_category, hhi
from repro.analysis.hosting import Weighting, _mean_mixes, category_fractions
from repro.analysis.providers import ProviderFootprint
from repro.analysis.registration import (
    LocationSplit,
    _split,
    registration_split,
    server_split,
)
from repro.analysis.regression import (
    FEATURE_NAMES,
    RegressionResult,
    _standardize,
    fit_ols,
    vifs_of_features,
)
from repro.categories import CATEGORY_ORDER, HostingCategory
from repro.core.dataset import CountryDataset, GovernmentHostingDataset
from repro.reporting.figures import render_histogram
from repro.reporting.tables import render_table
from repro.urltools import registrable_domain
from repro.websim.topsites import COMPARISON_COUNTRIES, TopsiteHosting
from repro.world.countries import COUNTRIES, get_country
from repro.world.regions import Region


# ---------------------------------------------------------------------------
# Hosting trends (Section 5)
# ---------------------------------------------------------------------------

def baseline_global_breakdown(
    dataset: GovernmentHostingDataset,
) -> dict[str, dict[HostingCategory, float]]:
    records = list(dataset.iter_records())
    return {
        "urls": category_fractions(records, by_bytes=False),
        "bytes": category_fractions(records, by_bytes=True),
    }


def baseline_country_breakdown(
    dataset: GovernmentHostingDataset,
) -> dict[str, dict[str, dict[HostingCategory, float]]]:
    result: dict[str, dict[str, dict[HostingCategory, float]]] = {}
    for code, country_dataset in sorted(dataset.countries.items()):
        if not country_dataset.records:
            continue
        result[code] = {
            "urls": category_fractions(country_dataset.records, by_bytes=False),
            "bytes": category_fractions(country_dataset.records, by_bytes=True),
        }
    return result


def baseline_regional_breakdown(
    dataset: GovernmentHostingDataset,
    by_bytes: bool = False,
    weighting: Weighting = "country",
) -> dict[Region, dict[HostingCategory, float]]:
    by_region: dict[Region, list] = {}
    for code, country_dataset in dataset.countries.items():
        if not country_dataset.records:
            continue
        region = get_country(code).region
        by_region.setdefault(region, []).append(country_dataset)
    result: dict[Region, dict[HostingCategory, float]] = {}
    for region, country_datasets in by_region.items():
        if weighting == "country":
            mixes = [
                category_fractions(cd.records, by_bytes=by_bytes)
                for cd in country_datasets
            ]
            result[region] = _mean_mixes(mixes)
        else:
            pooled = [record for cd in country_datasets for record in cd.records]
            result[region] = category_fractions(pooled, by_bytes=by_bytes)
    return result


def baseline_country_majority(
    dataset: GovernmentHostingDataset, by_bytes: bool = True
) -> dict[str, str]:
    result: dict[str, str] = {}
    for code, country_dataset in sorted(dataset.countries.items()):
        if not country_dataset.records:
            continue
        mix = category_fractions(country_dataset.records, by_bytes=by_bytes)
        third_party = sum(
            share for category, share in mix.items() if category.is_third_party
        )
        result[code] = "3P" if third_party > 0.5 else "Govt&SOE"
    return result


# ---------------------------------------------------------------------------
# Registration and server locations (Section 6)
# ---------------------------------------------------------------------------

def baseline_global_split(
    dataset: GovernmentHostingDataset,
) -> dict[str, LocationSplit]:
    records = list(dataset.iter_records())
    return {
        "whois": registration_split(records),
        "geolocation": server_split(records),
    }


def baseline_country_split(
    dataset: GovernmentHostingDataset,
) -> dict[str, dict[str, LocationSplit]]:
    result: dict[str, dict[str, LocationSplit]] = {}
    for code, country_dataset in sorted(dataset.countries.items()):
        if not country_dataset.records:
            continue
        result[code] = {
            "whois": registration_split(country_dataset.records),
            "geolocation": server_split(country_dataset.records),
        }
    return result


def baseline_regional_split(
    dataset: GovernmentHostingDataset,
    view: str = "geolocation",
    weighting: Weighting = "country",
) -> dict[Region, LocationSplit]:
    if view not in ("whois", "geolocation"):
        raise ValueError(f"unknown view {view!r}")
    split_fn = registration_split if view == "whois" else server_split
    by_region: dict[Region, list] = {}
    for code, country_dataset in dataset.countries.items():
        if not country_dataset.records:
            continue
        by_region.setdefault(get_country(code).region, []).append(country_dataset)
    result: dict[Region, LocationSplit] = {}
    for region, country_datasets in by_region.items():
        if weighting == "country":
            splits = [split_fn(cd.records) for cd in country_datasets]
            splits = [s for s in splits if s.domestic + s.international > 0]
            if not splits:
                result[region] = LocationSplit(0.0, 0.0)
                continue
            domestic = sum(s.domestic for s in splits) / len(splits)
            result[region] = LocationSplit(domestic, 1.0 - domestic)
        else:
            pooled = [record for cd in country_datasets for record in cd.records]
            result[region] = split_fn(pooled)
    return result


# ---------------------------------------------------------------------------
# Cross-border dependencies (Section 6.3)
# ---------------------------------------------------------------------------

def _record_destination(record, basis: Basis):
    if basis == "registration":
        return record.registered_country
    return record.server_country


def baseline_flows(
    dataset: GovernmentHostingDataset, basis: Basis = "server"
) -> list[CrossBorderFlow]:
    counts: dict[tuple[str, str], list[int]] = {}
    for record in dataset.iter_records():
        destination = _record_destination(record, basis)
        if destination is None or destination == record.country:
            continue
        key = (record.country, destination)
        bucket = counts.setdefault(key, [0, 0])
        bucket[0] += 1
        bucket[1] += record.size_bytes
    return [
        CrossBorderFlow(source=s, destination=d, url_count=u, byte_count=b)
        for (s, d), (u, b) in sorted(counts.items())
    ]


def baseline_same_region_share(
    dataset: GovernmentHostingDataset, basis: Basis = "server"
) -> dict[Region, float]:
    in_region: dict[Region, int] = {}
    total: dict[Region, int] = {}
    for flow in baseline_flows(dataset, basis):
        source_region = region_of(flow.source)
        total[source_region] = total.get(source_region, 0) + flow.url_count
        if region_of(flow.destination) is source_region:
            in_region[source_region] = (
                in_region.get(source_region, 0) + flow.url_count
            )
    return {
        region: in_region.get(region, 0) / count
        for region, count in total.items()
        if count > 0
    }


def baseline_regional_affinity(
    dataset: GovernmentHostingDataset, basis: Basis = "server"
) -> dict[Region, dict[str, float]]:
    per_region: dict[Region, dict[str, int]] = {}
    for flow in baseline_flows(dataset, basis):
        source_region = region_of(flow.source)
        if region_of(flow.destination) is not source_region:
            continue
        hosts = per_region.setdefault(source_region, {})
        hosts[flow.destination] = hosts.get(flow.destination, 0) + flow.url_count
    result: dict[Region, dict[str, float]] = {}
    for region, hosts in per_region.items():
        region_total = sum(hosts.values())
        result[region] = {
            code: count / region_total for code, count in sorted(hosts.items())
        }
    return result


def baseline_gdpr_compliance(dataset: GovernmentHostingDataset) -> float:
    total = 0
    compliant = 0
    for record in dataset.iter_records():
        if record.country not in EU_MEMBER_CODES:
            continue
        if record.server_country is None:
            continue
        total += 1
        if record.server_country in EU_MEMBER_CODES:
            compliant += 1
    return compliant / total if total else 0.0


def baseline_bilateral_share(
    dataset: GovernmentHostingDataset,
    source: str,
    destination: str,
    basis: Basis = "server",
) -> float:
    source = source.upper()
    destination = destination.upper()
    total = 0
    matching = 0
    for record in dataset.countries[source].records:
        dest = _record_destination(record, basis)
        if basis == "server" and dest is None:
            continue
        total += 1
        if dest == destination:
            matching += 1
    return matching / total if total else 0.0


def baseline_foreign_share_by_destination(
    dataset: GovernmentHostingDataset, basis: Basis = "server"
) -> dict[str, float]:
    all_flows = baseline_flows(dataset, basis)
    grand_total = sum(flow.url_count for flow in all_flows)
    if grand_total == 0:
        return {}
    by_destination: dict[str, int] = {}
    for flow in all_flows:
        by_destination[flow.destination] = (
            by_destination.get(flow.destination, 0) + flow.url_count
        )
    return {
        code: count / grand_total for code, count in sorted(by_destination.items())
    }


# ---------------------------------------------------------------------------
# Global providers (Section 7.1)
# ---------------------------------------------------------------------------

def _baseline_continents_served(dataset: GovernmentHostingDataset) -> dict[int, set]:
    continents: dict[int, set] = {}
    for record in dataset.iter_records():
        country = COUNTRIES.get(record.country)
        if country is None:
            continue
        continents.setdefault(record.asn, set()).add(country.continent)
    return continents


def baseline_global_provider_asns(dataset: GovernmentHostingDataset) -> set[int]:
    continents = _baseline_continents_served(dataset)
    gov_asns = {r.asn for r in dataset.iter_records() if r.gov_operated}
    return {
        asn
        for asn, cset in continents.items()
        if len(cset) >= 2 and asn not in gov_asns
    }


def baseline_global_provider_footprints(
    dataset: GovernmentHostingDataset,
) -> list[ProviderFootprint]:
    global_asns = baseline_global_provider_asns(dataset)
    countries_by_asn: dict[int, set[str]] = {}
    name_by_asn: dict[int, str] = {}
    for record in dataset.iter_records():
        if record.asn not in global_asns:
            continue
        countries_by_asn.setdefault(record.asn, set()).add(record.country)
        name_by_asn.setdefault(record.asn, record.organization)
    footprints = [
        ProviderFootprint(
            asn=asn,
            name=name_by_asn[asn],
            country_count=len(countries),
            countries=tuple(sorted(countries)),
        )
        for asn, countries in countries_by_asn.items()
    ]
    footprints.sort(key=lambda fp: (-fp.country_count, fp.asn))
    return footprints


def baseline_provider_byte_reliance(
    dataset: GovernmentHostingDataset,
) -> dict[tuple[int, str], float]:
    global_asns = baseline_global_provider_asns(dataset)
    country_totals: dict[str, int] = {}
    pair_bytes: dict[tuple[int, str], int] = {}
    for record in dataset.iter_records():
        country_totals[record.country] = (
            country_totals.get(record.country, 0) + record.size_bytes
        )
        if record.asn in global_asns:
            key = (record.asn, record.country)
            pair_bytes[key] = pair_bytes.get(key, 0) + record.size_bytes
    return {
        (asn, country): byte_count / country_totals[country]
        for (asn, country), byte_count in sorted(pair_bytes.items())
        if country_totals[country] > 0
    }


def baseline_top_reliances(
    dataset: GovernmentHostingDataset, limit: int = 5
) -> list[tuple[str, int, str, float]]:
    reliance = baseline_provider_byte_reliance(dataset)
    names: dict[int, str] = {}
    for record in dataset.iter_records():
        names.setdefault(record.asn, record.organization)
    ranked = sorted(reliance.items(), key=lambda item: -item[1])[:limit]
    return [
        (names.get(asn, f"AS{asn}"), asn, country, fraction)
        for (asn, country), fraction in ranked
    ]


# ---------------------------------------------------------------------------
# Diversification (Section 7.2)
# ---------------------------------------------------------------------------

def _baseline_network_shares(
    country_dataset: CountryDataset, by_bytes: bool
) -> dict[int, float]:
    totals: dict[int, float] = {}
    for record in country_dataset.records:
        weight = record.size_bytes if by_bytes else 1.0
        totals[record.asn] = totals.get(record.asn, 0.0) + weight
    return totals


def baseline_country_network_hhi(
    dataset: GovernmentHostingDataset, by_bytes: bool = False
) -> dict[str, float]:
    result: dict[str, float] = {}
    for code, country_dataset in sorted(dataset.countries.items()):
        shares = _baseline_network_shares(country_dataset, by_bytes)
        if shares:
            result[code] = hhi(list(shares.values()))
    return result


def baseline_hhi_by_dominant_category(
    dataset: GovernmentHostingDataset, by_bytes: bool = False
) -> dict[HostingCategory, list[float]]:
    values = baseline_country_network_hhi(dataset, by_bytes=by_bytes)
    groups: dict[HostingCategory, list[float]] = {}
    for code, value in values.items():
        country_dataset = dataset.countries[code]
        group = dominant_category(country_dataset)
        if group is None:
            continue
        groups.setdefault(group, []).append(value)
    return groups


def baseline_single_network_dependence(
    dataset: GovernmentHostingDataset, threshold: float = 0.5
) -> dict[HostingCategory, tuple[int, int]]:
    result: dict[HostingCategory, tuple[int, int]] = {}
    for code, country_dataset in sorted(dataset.countries.items()):
        group = dominant_category(country_dataset)
        if group is None:
            continue
        shares = _baseline_network_shares(country_dataset, by_bytes=True)
        total = sum(shares.values())
        top_share = max(shares.values()) / total if total else 0.0
        above, size = result.get(group, (0, 0))
        result[group] = (above + (1 if top_share > threshold else 0), size + 1)
    return result


# ---------------------------------------------------------------------------
# Outage-impact simulation (Section 7.2 extension)
# ---------------------------------------------------------------------------

def baseline_outage_impact(dataset: GovernmentHostingDataset, asn: int) -> dict:
    from repro.analysis.resilience import OutageImpact

    impacts: dict[str, OutageImpact] = {}
    for code, country_dataset in sorted(dataset.countries.items()):
        if not country_dataset.records:
            continue
        total_urls = len(country_dataset.records)
        total_bytes = sum(r.size_bytes for r in country_dataset.records)
        lost_urls = 0
        lost_bytes = 0
        for record in country_dataset.records:
            if record.asn == asn:
                lost_urls += 1
                lost_bytes += record.size_bytes
        if lost_urls == 0:
            continue
        impacts[code] = OutageImpact(
            country=code,
            asn=asn,
            url_share_lost=lost_urls / total_urls if total_urls else 0.0,
            byte_share_lost=lost_bytes / total_bytes if total_bytes else 0.0,
        )
    return impacts


def baseline_single_points_of_failure(
    dataset: GovernmentHostingDataset, threshold: float = 0.5
) -> dict[str, tuple[int, float]]:
    result: dict[str, tuple[int, float]] = {}
    for code, country_dataset in sorted(dataset.countries.items()):
        if not country_dataset.records:
            continue
        by_asn: dict[int, int] = {}
        for record in country_dataset.records:
            by_asn[record.asn] = by_asn.get(record.asn, 0) + record.size_bytes
        total = sum(by_asn.values())
        if total == 0:
            continue
        top_asn = max(by_asn, key=by_asn.get)
        share = by_asn[top_asn] / total
        if share > threshold:
            result[code] = (top_asn, share)
    return result


def baseline_worst_global_outage(
    dataset: GovernmentHostingDataset,
) -> tuple[int, int, float]:
    # First-seen organization per ASN, mirroring the index's
    # organization_by_asn() so both implementations break exact
    # (affected, mean_loss) ties on the same (name, asn) order.
    names: dict[int, str] = {}
    for record in dataset.iter_records():
        names.setdefault(record.asn, record.organization)
    worst = (0, 0, 0.0)
    worst_tie = ("", 0)
    for asn in sorted(names):
        impacts = baseline_outage_impact(dataset, asn)
        affected = [i for i in impacts.values() if i.url_share_lost > 0.10]
        if not affected:
            continue
        mean_loss = sum(i.url_share_lost for i in affected) / len(affected)
        candidate = (asn, len(affected), mean_loss)
        tie = (names.get(asn, ""), asn)
        if (candidate[1], candidate[2]) > (worst[1], worst[2]) or (
            (candidate[1], candidate[2]) == (worst[1], worst[2])
            and tie < worst_tie
        ):
            worst = candidate
            worst_tie = tie
    return worst


# ---------------------------------------------------------------------------
# Explanatory regression (Appendix E)
# ---------------------------------------------------------------------------

def baseline_feature_matrix(
    dataset: GovernmentHostingDataset,
) -> tuple[list[str], np.ndarray, np.ndarray]:
    codes: list[str] = []
    raw_features: list[list[float]] = []
    outcomes: list[float] = []
    for code, country_dataset in sorted(dataset.countries.items()):
        included = country_dataset.included_records()
        if not included:
            continue
        country = get_country(code)
        domestic_ips = {r.address for r in included if r.server_country == code}
        foreign_ips = {r.address for r in included if r.server_country != code}
        total_ips = len(domestic_ips | foreign_ips)
        intl = len(foreign_ips) / total_ips if total_ips else 0.0
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


def baseline_explanatory_regression(
    dataset: GovernmentHostingDataset,
) -> RegressionResult:
    _, features, outcome = baseline_feature_matrix(dataset)
    return fit_ols(features, outcome)


def baseline_variance_inflation_factors(
    dataset: GovernmentHostingDataset,
) -> dict[str, float]:
    _, features, _ = baseline_feature_matrix(dataset)
    return vifs_of_features(features)


# ---------------------------------------------------------------------------
# Topsites comparison subsets (Section 5.1/6.1)
# ---------------------------------------------------------------------------

def baseline_government_subset_breakdown(
    dataset: GovernmentHostingDataset,
    countries: tuple[str, ...] = COMPARISON_COUNTRIES,
) -> dict[str, dict[TopsiteHosting, float]]:
    from repro.analysis.topsites import _GOV_TO_COMPARISON

    url_totals = {label: 0.0 for label in TopsiteHosting}
    byte_totals = {label: 0.0 for label in TopsiteHosting}
    for code in countries:
        country_dataset = dataset.countries.get(code)
        if country_dataset is None:
            continue
        for record in country_dataset.records:
            label = _GOV_TO_COMPARISON[record.category]
            url_totals[label] += 1
            byte_totals[label] += record.size_bytes
    url_sum = sum(url_totals.values()) or 1.0
    byte_sum = sum(byte_totals.values()) or 1.0
    return {
        "urls": {label: value / url_sum for label, value in url_totals.items()},
        "bytes": {label: value / byte_sum for label, value in byte_totals.items()},
    }


def baseline_government_subset_location(
    dataset: GovernmentHostingDataset,
    countries: tuple[str, ...] = COMPARISON_COUNTRIES,
) -> dict[str, LocationSplit]:
    records = []
    for code in countries:
        country_dataset = dataset.countries.get(code)
        if country_dataset is not None:
            records.extend(country_dataset.records)
    return {
        "whois": registration_split(records),
        "geolocation": server_split(records),
    }


# ---------------------------------------------------------------------------
# Extensions (DNS dependency, HTTPS adoption)
# ---------------------------------------------------------------------------

def baseline_domains_by_country(
    dataset: GovernmentHostingDataset,
) -> dict[str, set[str]]:
    result: dict[str, set[str]] = {}
    for record in dataset.iter_records():
        result.setdefault(record.country, set()).add(
            registrable_domain(record.hostname)
        )
    return result


def baseline_global_third_party_dns_share(
    world, dataset: GovernmentHostingDataset
) -> float:
    total = 0
    third_party = 0
    for domains in baseline_domains_by_country(dataset).values():
        for domain in domains:
            delegation = world.nameservers.lookup(domain)
            if delegation is None:
                continue
            total += 1
            third_party += not delegation.self_hosted
    return third_party / total if total else 0.0


def baseline_global_https_prevalence(
    world, dataset: GovernmentHostingDataset
) -> tuple[float, float]:
    total = have = valid = 0
    for country_dataset in dataset.countries.values():
        for hostname in {record.hostname for record in country_dataset.records}:
            total += 1
            certificate = world.certificates.get(hostname)
            if certificate is None:
                continue
            have += 1
            valid += certificate.valid
    if total == 0:
        return (0.0, 0.0)
    return (have / total, valid / total)


# ---------------------------------------------------------------------------
# Full paper report (record-loop rendering, verbatim pre-index)
# ---------------------------------------------------------------------------

def _section(title: str) -> str:
    rule = "=" * len(title)
    return f"\n{title}\n{rule}\n"


def _baseline_hosting_section(dataset: GovernmentHostingDataset) -> str:
    parts = [_section("Trends in government hosting (Section 5)")]
    breakdown = baseline_global_breakdown(dataset)
    parts.append(render_table(
        ["category", "URLs", "bytes"],
        [[str(c), f"{breakdown['urls'][c]:.2f}", f"{breakdown['bytes'][c]:.2f}"]
         for c in CATEGORY_ORDER],
        title="Global prevalence (Figure 2)",
    ))
    regional = baseline_regional_breakdown(dataset, by_bytes=True)
    parts.append("")
    parts.append(render_table(
        ["region"] + [str(c) for c in CATEGORY_ORDER],
        [[region.name] + [f"{mix[c]:.2f}" for c in CATEGORY_ORDER]
         for region, mix in sorted(regional.items(), key=lambda kv: kv[0].name)],
        title="Regional byte mixes (Figure 4b)",
    ))
    majority = baseline_country_majority(dataset)
    third_party = sorted(c for c, label in majority.items() if label == "3P")
    parts.append(
        f"\nMajority third-party countries (Figure 1): {len(third_party)} of "
        f"{len(majority)} -- {' '.join(third_party)}"
    )
    return "\n".join(parts)


def _baseline_location_section(dataset: GovernmentHostingDataset) -> str:
    parts = [_section("Registration and server locations (Section 6)")]
    splits = baseline_global_split(dataset)
    parts.append(render_table(
        ["view", "domestic", "international"],
        [[view, f"{split.domestic:.2f}", f"{split.international:.2f}"]
         for view, split in splits.items()],
        title="Global domestic/international (Figure 6)",
    ))
    location = baseline_regional_split(dataset, view="geolocation", weighting="url")
    parts.append("")
    parts.append(render_table(
        ["region", "domestic"],
        [[region.name, f"{split.domestic:.2f}"]
         for region, split in sorted(location.items(),
                                     key=lambda kv: kv[1].domestic)],
        title="Server location per region (Figure 8b)",
    ))
    retention = baseline_same_region_share(dataset)
    parts.append("")
    parts.append(render_table(
        ["region", "% in-region"],
        [[region.name, f"{share * 100:.1f}"]
         for region, share in sorted(retention.items(), key=lambda kv: -kv[1])],
        title="Cross-border dependencies staying in-region (Table 5)",
    ))
    affinity = baseline_regional_affinity(dataset)
    for region, hosts in sorted(affinity.items(), key=lambda kv: kv[0].name):
        leader = max(hosts, key=hosts.get)
        parts.append(f"  {region.name}: {leader} hosts {hosts[leader]:.0%} "
                     f"of in-region cross-border URLs")
    destinations = baseline_foreign_share_by_destination(dataset)
    if destinations:
        top = sorted(destinations.items(), key=lambda kv: -kv[1])[:5]
        parts.append("  top foreign destinations: " + ", ".join(
            f"{code} {share:.0%}" for code, share in top))
    parts.append(
        f"  GDPR compliance of EU members: {baseline_gdpr_compliance(dataset):.1%}"
    )
    return "\n".join(parts)


def _baseline_centralization_section(dataset: GovernmentHostingDataset) -> str:
    parts = [_section("Global providers and diversification (Section 7)")]
    footprints = baseline_global_provider_footprints(dataset)
    if footprints:
        parts.append(render_histogram(
            [f"{fp.name} (AS{fp.asn})" for fp in footprints[:10]],
            [fp.country_count for fp in footprints[:10]],
            title="Countries per Global provider (Figure 10)",
        ))
    reliances = baseline_top_reliances(dataset, 5)
    parts.append("")
    parts.append(render_table(
        ["provider", "country", "byte share"],
        [[name, country, f"{fraction:.0%}"]
         for name, _asn, country, fraction in reliances],
        title="Deepest single-provider reliances",
    ))
    groups = baseline_hhi_by_dominant_category(dataset, by_bytes=True)
    dependence = baseline_single_network_dependence(dataset)
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


def _baseline_regression_section(dataset: GovernmentHostingDataset) -> str:
    parts = [_section("Explanatory factors (Appendix E)")]
    try:
        result = baseline_explanatory_regression(dataset)
    except ValueError:
        return parts[0] + "not enough countries for the regression"
    vifs = baseline_variance_inflation_factors(dataset)
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


def baseline_render_paper_report(
    dataset: GovernmentHostingDataset,
    world: Optional[object] = None,
) -> str:
    """The full evaluation report rendered with record loops only."""
    summary = dataset.summarize()
    header = (
        "OF CHOICES AND CONTROL -- reproduction report\n"
        f"{summary.total_unique_urls:,} URLs / "
        f"{summary.unique_hostnames:,} hostnames / "
        f"{summary.ases} ASes / {summary.unique_addresses} addresses / "
        f"{summary.countries_with_servers} server countries\n"
    )
    sections = [
        header,
        _baseline_hosting_section(dataset),
        _baseline_location_section(dataset),
        _baseline_centralization_section(dataset),
        _baseline_regression_section(dataset),
    ]
    if world is not None:
        have, valid = baseline_global_https_prevalence(world, dataset)
        dns_share = baseline_global_third_party_dns_share(world, dataset)
        sections.append(_section("Extensions") + (
            f"valid HTTPS on government hostnames: {valid:.1%}\n"
            f"government domains on third-party DNS: {dns_share:.1%}"
        ))
    return "\n".join(sections) + "\n"


__all__ = [name for name in dir() if name.startswith("baseline_")]
