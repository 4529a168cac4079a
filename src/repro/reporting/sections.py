"""Named report sections shared by the CLI and the query service.

``repro-gov report --section X`` and the service's ``/v1/report``
endpoint must emit byte-identical text for the same dataset, so both
call :func:`render_report_section` -- one renderer, one set of
formatting decisions.  Each section matches what ``repro-gov report``
historically printed (the returned string carries no trailing newline;
``print`` adds it on the CLI side).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.reporting.tables import render_table

if TYPE_CHECKING:
    from repro.analysis.engine.index import DatasetOrIndex

#: Section names accepted by the CLI and the ``/v1/report`` endpoint.
SECTION_NAMES = ("summary", "global", "regional", "domestic", "providers",
                 "diversification", "trends", "full")


def _summary_section(index) -> str:
    # Via the index, not dataset.summarize(): over a store this streams
    # the mmapped columns instead of rebuilding host tables.
    summary = index.summary()
    rows = [[field, f"{getattr(summary, field):,}"]
            for field in ("landing_urls", "internal_urls",
                          "total_unique_urls", "unique_hostnames", "ases",
                          "government_ases", "unique_addresses",
                          "anycast_addresses", "countries_with_servers")]
    return render_table(["quantity", "value"], rows, title="Dataset summary")


def _global_section(index) -> str:
    from repro.analysis import global_breakdown
    from repro.categories import CATEGORY_ORDER

    breakdown = global_breakdown(index)
    rows = [[str(c), f"{breakdown['urls'][c]:.2f}",
             f"{breakdown['bytes'][c]:.2f}"] for c in CATEGORY_ORDER]
    return render_table(["category", "URLs", "bytes"], rows,
                        title="Global hosting mix (Figure 2)")


def _regional_section(index) -> str:
    from repro.analysis import regional_breakdown
    from repro.categories import CATEGORY_ORDER

    regional = regional_breakdown(index)
    rows = [
        [region.name] + [f"{mix[c]:.2f}" for c in CATEGORY_ORDER]
        for region, mix in sorted(regional.items(), key=lambda kv: kv[0].name)
    ]
    return render_table(
        ["region"] + [str(c) for c in CATEGORY_ORDER], rows,
        title="Regional hosting mixes (Figure 4)",
    )


def _domestic_section(index) -> str:
    from repro.analysis import global_split

    splits = global_split(index)
    rows = [[view, f"{split.domestic:.2f}", f"{split.international:.2f}"]
            for view, split in splits.items()]
    return render_table(["view", "domestic", "international"], rows,
                        title="Domestic vs international (Figure 6)")


def _providers_section(index) -> str:
    from repro.analysis import global_provider_footprints

    rows = [[fp.name, f"AS{fp.asn}", fp.country_count]
            for fp in global_provider_footprints(index)[:15]]
    return render_table(["provider", "asn", "countries"], rows,
                        title="Global providers (Figure 10)")


def _diversification_section(index) -> str:
    from repro.analysis import single_network_dependence

    rows = [[str(category), f"{above}/{total}"]
            for category, (above, total)
            in single_network_dependence(index).items()]
    return render_table(["dominant source", ">50% on one network"], rows,
                        title="Diversification (Figure 11)")


def render_trend_report(report) -> str:
    """Render a :class:`~repro.analysis.longitudinal.TrendReport`.

    Shared by ``repro-gov evolve``, the ``trends`` report section and
    anything else that wants the longitudinal tables as text.
    """
    sections = [render_table(
        ["snapshot", "countries", "3P share", "mean HHI", "providers",
         "links", "top share"],
        [[point.label, point.countries,
          f"{point.mean_third_party_share:.3f}", f"{point.mean_hhi:.3f}",
          point.provider_count, point.provider_relationships,
          f"{point.top_provider_share:.3f}"]
         for point in report.points],
        title="Longitudinal trends",
    )]
    if report.snapshot_count > 1:
        sections.append(
            f"drift over {report.snapshot_count} snapshots: "
            f"mean HHI {report.hhi_drift:+.4f}, "
            f"third-party share {report.third_party_drift:+.4f}"
        )
    if report.migrations:
        sections.append(render_table(
            ["country", "between", "from", "to"],
            [[m.country, f"{m.from_label}->{m.to_label}",
              m.from_category, m.to_category]
             for m in report.migrations],
            title="Dominant-category migrations",
        ))
    return "\n\n".join(sections)


def _trends_section(index) -> str:
    # One dataset is the degenerate single-snapshot series -- the same
    # tables a SnapshotSeries run prints, with no drift row.  Service
    # instances holding real history override this via their own series.
    from repro.analysis.longitudinal import compute_trends

    return render_trend_report(compute_trends([index]))


def _full_section(index) -> str:
    from repro.reporting.paper_report import render_paper_report

    return render_paper_report(index)


_RENDERERS = {
    "summary": _summary_section,
    "global": _global_section,
    "regional": _regional_section,
    "domestic": _domestic_section,
    "providers": _providers_section,
    "diversification": _diversification_section,
    "trends": _trends_section,
    "full": _full_section,
}


def render_report_section(dataset: DatasetOrIndex, section: str) -> str:
    """Render one named report section over a dataset or prebuilt index.

    ``KeyError`` on an unknown section name (the CLI restricts choices
    up front; the service maps this to a structured 400).
    """
    # Imported here, like each section's analysis: the CLI imports this
    # module for SECTION_NAMES, and a run must not load the analysis
    # layer (and numpy) it never uses.
    from repro.analysis.engine.index import ensure_index

    try:
        renderer = _RENDERERS[section]
    except KeyError:
        raise KeyError(
            f"unknown report section {section!r}; expected one of "
            f"{', '.join(SECTION_NAMES)}"
        ) from None
    return renderer(ensure_index(dataset))


__all__ = ["SECTION_NAMES", "render_report_section", "render_trend_report"]
