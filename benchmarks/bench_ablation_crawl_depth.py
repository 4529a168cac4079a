"""Ablation: crawl depth (Section 3.2).

The paper crawls seven levels deep but observes that 84% of unique URLs
sit on landing pages and 95% within one level -- which justifies the
depth-1 shortcut used for topsites.  This bench reproduces the curve.
"""

from repro.core.crawler import Crawler
from repro.reporting.tables import render_table


def _url_count_at_depth(world, max_depth, codes):
    crawler = Crawler(world.web, max_depth=max_depth)
    total = 0
    for code in codes:
        seeds = list(world.truth.directories[code])
        vantage = world.vpn.vantage_for(code)
        total += len(crawler.crawl(seeds, vantage).urls)
    return total


def test_ablation_crawl_depth(benchmark, bench_world, report):
    codes = bench_world.config.country_codes()
    full = benchmark.pedantic(
        _url_count_at_depth, args=(bench_world, 7, codes),
        rounds=1, iterations=1,
    )
    counts = {depth: _url_count_at_depth(bench_world, depth, codes)
              for depth in (0, 1, 2, 7)}
    rows = [
        [depth, counts[depth], f"{counts[depth] / full:.1%}"]
        for depth in sorted(counts)
    ]
    report("ablation_crawl_depth", render_table(
        ["max depth", "unique URLs", "share of full crawl"], rows,
        title="Ablation -- crawl depth vs URL mass "
              "(paper: 84% at depth 0, 95% within depth 1)",
    ))
    assert counts[0] / full > 0.75
    assert counts[1] / full > 0.92
    assert counts[7] == full
