"""worst_global_outage must break exact ties deterministically.

Two networks can disrupt the same number of governments with the same
mean URL-share loss; before the tie-break, the winner depended on ASN
iteration order and comparative scenario reports could name different
providers run-to-run.  The contract: ties go to the organization name
that sorts first, then the lower ASN — in both the reference analysis
and the record-loop oracle (:mod:`tests.analysis.oracle`) it is
validated against.
"""

from __future__ import annotations

import pytest

from repro.analysis.resilience import worst_global_outage
from repro.categories import HostingCategory
from repro.core.dataset import CountryDataset, GovernmentHostingDataset
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from tests.analysis.oracle import baseline_worst_global_outage
from tests.records import Record, build_country


def _record(country: str, asn: int, organization: str) -> Record:
    hostname = f"www.gov.{country.lower()}"
    return Record(
        url=f"https://{hostname}/", hostname=hostname, country=country,
        size_bytes=10, via=FilterVia.TLD, depth=0, address=0xC0A80001,
        asn=asn, organization=organization, registered_country=country,
        gov_operated=False, category=HostingCategory.P3_GLOBAL,
        server_country=country, anycast=False,
        validation=ValidationMethod.UNRESOLVED,
    )


def _single_asn_country(country: str, asn: int, org: str) -> CountryDataset:
    return build_country(country, [_record(country, asn, org)],
                         landing_count=1)


def _dataset(*country_datasets) -> GovernmentHostingDataset:
    return GovernmentHostingDataset(
        countries={cd.country: cd for cd in country_datasets},
        validation=ValidationStats(),
    )


@pytest.fixture
def tied_by_org():
    """Two ASNs, each wiping out exactly one government: a perfect tie.

    The numerically smaller ASN carries the lexicographically *larger*
    organization name, so a numeric-order winner and the contractual
    name-order winner differ.
    """
    return _dataset(
        _single_asn_country("AA", 64500, "Zeta Networks"),
        _single_asn_country("BB", 64501, "Alpha Cloud"),
    )


@pytest.fixture
def tied_by_asn():
    """Same organization on both sides: the lower ASN must win."""
    return _dataset(
        _single_asn_country("AA", 64510, "Same Org"),
        _single_asn_country("BB", 64509, "Same Org"),
    )


def test_exact_tie_goes_to_first_organization_name(tied_by_org):
    asn, affected, mean_loss = worst_global_outage(tied_by_org)
    assert (affected, mean_loss) == (1, 1.0)
    assert asn == 64501  # "Alpha Cloud" < "Zeta Networks"


def test_org_name_tie_falls_back_to_lower_asn(tied_by_asn):
    asn, affected, mean_loss = worst_global_outage(tied_by_asn)
    assert (affected, mean_loss) == (1, 1.0)
    assert asn == 64509


def test_engine_baseline_agrees_on_ties(tied_by_org, tied_by_asn):
    for dataset in (tied_by_org, tied_by_asn):
        assert baseline_worst_global_outage(dataset) == \
            worst_global_outage(dataset)


def test_result_is_stable_across_repeated_calls(dataset):
    first = worst_global_outage(dataset)
    assert all(
        worst_global_outage(dataset) == first for _ in range(3)
    )
    assert baseline_worst_global_outage(dataset) == first
