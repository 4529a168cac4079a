"""Tests for the Table 1 URL-filter cascade."""

import pytest

from repro.core.gathering import GovernmentDirectory
from repro.core.urlfilter import (
    FilterVia,
    GovernmentUrlFilter,
    default_san_verifier,
    matches_gov_tld,
)
from repro.netsim.tls import Certificate, CertificateStore


@pytest.mark.parametrize("hostname", [
    "www.nsf.gov", "www.gov.br", "impots.gouv.fr", "sat.gob.mx",
    "data.go.id", "stats.govt.nz", "www.gub.uy", "portal.admin.ch",
    "army.mil", "site.government.bg", "tax.gov.uk",
])
def test_gov_tld_matches(hostname):
    assert matches_gov_tld(hostname)


@pytest.mark.parametrize("hostname", [
    "www.example.com", "bund-gesundheit.de", "golf.com", "cdn.provider.net",
    "governance-institute.org", "fgov-mirror.example",
])
def test_gov_tld_rejects(hostname):
    assert not matches_gov_tld(hostname)


def test_san_verifier_rejects_provider_infrastructure():
    assert default_san_verifier("energia-argentina.com.ar")
    assert not default_san_verifier("sni12345.cloudflaressl.com")
    assert not default_san_verifier("edge7.cdn.example.net")


@pytest.fixture
def filter_setup():
    directory = GovernmentDirectory(
        country="DE",
        landing_urls=("https://gesundheit.de/", "https://www.finanzen.de/"),
    )
    certificates = CertificateStore()
    certificates.install("gesundheit.de", Certificate(
        subject="gesundheit.de",
        sans=("gesundheit.de", "energie-staat.com", "cdn9.cloudssl.net"),
    ))
    hostnames = [
        "gesundheit.de",        # domain
        "www.zoll.gov.de",      # tld
        "energie-staat.com",    # san
        "cdn9.cloudssl.net",    # rejected SAN
        "tracker.example.com",  # discard
    ]
    return GovernmentUrlFilter(directory, certificates), hostnames


def test_cascade_assigns_expected_vias(filter_setup):
    url_filter, hostnames = filter_setup
    verdicts = url_filter.verdicts(hostnames)
    assert verdicts["gesundheit.de"] is FilterVia.DOMAIN
    assert verdicts["www.zoll.gov.de"] is FilterVia.TLD
    assert verdicts["energie-staat.com"] is FilterVia.SAN
    assert "cdn9.cloudssl.net" not in verdicts
    assert "tracker.example.com" not in verdicts


def test_tld_takes_precedence_over_domain():
    directory = GovernmentDirectory(
        country="BR", landing_urls=("https://www.gov.br/",)
    )
    verdicts = GovernmentUrlFilter(directory, CertificateStore()).verdicts(
        ["www.gov.br"])
    assert verdicts == {"www.gov.br": FilterVia.TLD}


def test_verdicts_name_each_accepted_hostname_once_in_sorted_order(
        filter_setup):
    url_filter, hostnames = filter_setup
    verdicts = url_filter.verdicts(reversed(hostnames))
    assert verdicts == {
        "energie-staat.com": FilterVia.SAN,
        "gesundheit.de": FilterVia.DOMAIN,
        "www.zoll.gov.de": FilterVia.TLD,
    }
    assert list(verdicts) == sorted(verdicts)


def test_empty_archive():
    directory = GovernmentDirectory(country="BR", landing_urls=())
    assert GovernmentUrlFilter(directory, CertificateStore()).verdicts([]) == {}


def test_custom_verifier_overrides_default():
    directory = GovernmentDirectory(
        country="DE", landing_urls=("https://gesundheit.de/",)
    )
    certificates = CertificateStore()
    certificates.install("gesundheit.de", Certificate(
        subject="gesundheit.de", sans=("gesundheit.de", "energie-staat.com"),
    ))
    strict = GovernmentUrlFilter(
        directory, certificates, san_verifier=lambda _h: False
    )
    assert GovernmentUrlFilter(directory, certificates).verdicts(
        ["energie-staat.com"]) == {"energie-staat.com": FilterVia.SAN}
    assert strict.verdicts(["energie-staat.com"]) == {}
