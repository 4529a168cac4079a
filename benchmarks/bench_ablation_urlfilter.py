"""Ablation: contribution of each URL-filter heuristic (Table 1).

Re-filters the crawled hostnames with heuristics disabled, quantifying
how many government URLs each of the three steps uniquely recovers.
"""

import pytest

from repro.core.crawler import Crawler
from repro.core.gathering import GovernmentDirectory, compile_directory
from repro.core.urlfilter import GovernmentUrlFilter
from repro.netsim.tls import CertificateStore
from repro.reporting.tables import render_table


@pytest.fixture(scope="module")
def archives(bench_world):
    """Per country: its directory and its crawl's URL count per hostname."""
    crawler = Crawler(bench_world.web)
    result = {}
    for code in bench_world.config.country_codes():
        directory = compile_directory(bench_world, code)
        vantage = bench_world.vpn.vantage_for(code)
        crawl = crawler.crawl(list(directory.landing_urls), vantage)
        result[code] = (directory, crawl.hostname_counts())
    return result


def _accepted(bench_world, archives, use_domain=True, use_san=True):
    total = 0
    for code, (directory, url_counts) in archives.items():
        if not use_domain:
            directory = GovernmentDirectory(country=code, landing_urls=())
        certificates = bench_world.certificates if use_san else CertificateStore()
        verdicts = GovernmentUrlFilter(directory, certificates).verdicts(url_counts)
        total += sum(url_counts[hostname] for hostname in verdicts)
    return total


def test_ablation_urlfilter(benchmark, bench_world, archives, report):
    full = benchmark(_accepted, bench_world, archives)
    tld_only = _accepted(bench_world, archives, use_domain=False, use_san=False)
    no_san = _accepted(bench_world, archives, use_san=False)
    no_domain = _accepted(bench_world, archives, use_domain=False)
    rows = [
        ["TLD + domain + SAN (full)", full, "100.0%"],
        ["TLD + domain", no_san, f"{no_san / full:.1%}"],
        ["TLD + SAN", no_domain, f"{no_domain / full:.1%}"],
        ["TLD only", tld_only, f"{tld_only / full:.1%}"],
    ]
    report("ablation_urlfilter", render_table(
        ["heuristics", "accepted URLs", "vs full"], rows,
        title="Ablation -- URL-filter heuristic contributions",
    ))
    # Domain matching carries most of the recall (72.1% in the paper);
    # dropping it loses more than dropping the SAN step.
    assert tld_only < no_san <= full
    assert (full - no_domain) > (full - no_san)
    assert tld_only / full < 0.7
