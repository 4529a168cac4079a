"""Tests for the DNS-dependency and HTTPS-adoption extensions."""

import pytest

from repro.analysis.dnsdep import (
    country_dns_dependency,
    global_third_party_dns_share,
    managed_dns_footprints,
)
from repro.analysis.https_adoption import (
    country_https_adoption,
    global_https_prevalence,
    https_development_correlation,
)
from repro.urltools import registrable_domain
from tests.records import iter_records


def test_every_measured_domain_has_a_delegation(world, dataset):
    missing = []
    for record in iter_records(dataset):
        domain = registrable_domain(record.hostname)
        if world.nameservers.lookup(domain) is None:
            missing.append(domain)
    assert not missing


def test_delegation_nameserver_shapes(world):
    for delegation in world.nameservers:
        assert delegation.nameservers
        if delegation.self_hosted:
            assert any(
                ns.endswith(delegation.domain) for ns in delegation.nameservers
            )


def test_third_party_dns_share_is_substantial(world, dataset):
    share = global_third_party_dns_share(world, dataset)
    # The e-government DNS studies report heavy third-party reliance.
    assert 0.3 < share < 0.9


def test_managed_dns_concentration(world, dataset):
    footprints = managed_dns_footprints(world, dataset)
    assert footprints
    # Cloudflare's managed DNS leads the external providers.
    top_asn = max(footprints, key=footprints.get)
    assert top_asn == 13335
    assert footprints[top_asn] > 20


def test_country_reports_are_consistent(world, dataset):
    reports = country_dns_dependency(world, dataset)
    assert "US" in reports
    for report in reports.values():
        assert 0 <= report.third_party_share <= 1
        assert report.top_provider_share <= report.third_party_share + 1e-9
        assert report.domains > 0


def test_gouv_nc_is_self_hosted(world):
    delegation = world.nameservers.lookup("gouv.nc")
    assert delegation is not None
    assert delegation.self_hosted
    assert delegation.provider_asn == 18200


def test_https_prevalence_bounds(world, dataset):
    have, valid = global_https_prevalence(world, dataset)
    assert 0 < valid <= have <= 1
    # Large fractions of government hostnames lack valid HTTPS
    # (Singanamalla et al. report >70% lacking it in 2020).
    assert valid < 0.8


def test_https_reports_per_country(world, dataset):
    reports = country_https_adoption(world, dataset)
    assert "BR" in reports
    for report in reports.values():
        assert 0 <= report.with_valid_certificate <= report.with_certificate <= 1


def test_https_tracks_development(world, dataset):
    assert https_development_correlation(world, dataset) > 0


def test_nameserver_registry_rejects_duplicates():
    from repro.netsim.nameservers import NsDelegation, NsRegistry

    registry = NsRegistry()
    delegation = NsDelegation(
        domain="health.gov.br", nameservers=("ns1.health.gov.br",),
        provider_asn=1, self_hosted=True,
    )
    registry.register(delegation)
    with pytest.raises(ValueError):
        registry.register(delegation)
    assert registry.lookup("HEALTH.GOV.BR") is delegation
    assert len(registry) == 1


def test_delegation_requires_nameservers():
    from repro.netsim.nameservers import NsDelegation

    with pytest.raises(ValueError):
        NsDelegation(domain="x", nameservers=(), provider_asn=1,
                     self_hosted=True)
