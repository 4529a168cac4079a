"""Table 3 and Section 4.2: dataset headline numbers and filter shares."""

from collections import Counter

from conftest import BENCH_SCALE
from paper_values import FILTER_FRACTIONS, TABLE3

from repro.reporting.tables import render_table


def test_tab03_summary(benchmark, bench_dataset, report):
    summary = benchmark(bench_dataset.summarize)
    rows = []
    for field, paper in TABLE3.items():
        measured = getattr(summary, field)
        # URL-ish quantities scale linearly; infrastructure counts sublinearly.
        scaled_note = (
            f"{paper * BENCH_SCALE:,.0f}"
            if field in ("landing_urls", "internal_urls", "total_unique_urls",
                         "unique_hostnames")
            else "-"
        )
        rows.append([field, f"{paper:,}", scaled_note, f"{measured:,}"])
    report("tab03_dataset", render_table(
        ["quantity", "paper (full)", "paper x scale", "measured"], rows,
        title="Table 3 -- dataset overview",
    ))
    assert summary.internal_urls > 0.6 * TABLE3["internal_urls"] * BENCH_SCALE
    assert summary.government_ases / summary.ases > 0.25
    assert summary.countries_with_servers >= 60


def test_sec42_filter_attribution(benchmark, bench_dataset, report):
    def attribution():
        # A URL row is (url, hostname, size_bytes, via, depth).
        counts = Counter(
            url_row[3] for country in bench_dataset.countries.values()
            for url_row in country.host_table.urls
        )
        total = sum(counts.values())
        return {via.value: count / total for via, count in counts.items()}

    fractions = benchmark(attribution)
    rows = [
        [via, f"{paper:.3f}", f"{fractions.get(via, 0.0):.3f}"]
        for via, paper in FILTER_FRACTIONS.items()
    ]
    report("sec42_filter_attribution", render_table(
        ["heuristic", "paper", "measured"], rows,
        title="Section 4.2 -- URL-filter attribution",
    ))
    # Domain matching dominates, TLDs follow, SANs are marginal.
    assert fractions["domain"] > fractions["tld"] > fractions["san"]
