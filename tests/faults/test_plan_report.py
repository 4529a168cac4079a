"""Unit tests for the fault plan and the FaultReport monoid."""

import dataclasses

import pytest

from repro.faults import (
    FAULT_DOMAINS,
    FAULT_PROFILE_NAMES,
    DomainTally,
    Episode,
    FaultPlan,
    FaultReport,
    FaultSession,
    merge_fault_reports,
)
from repro.faults.plan import UNRETRYABLE_DOMAINS


# ------------------------------------------------------------------- plan

def test_plan_decisions_are_pure_and_order_independent():
    plan = FaultPlan(rate=0.3, seed=99)
    keys = [("BR", 1, 2), ("US", "host"), ("FR",)]
    first = [plan.attempt_fails("probe", key, 0) for key in keys]
    second = [plan.attempt_fails("probe", key, 0) for key in reversed(keys)]
    assert first == list(reversed(second))


def test_plan_rate_zero_never_fails():
    plan = FaultPlan(rate=0.0)
    assert not plan.enabled
    assert not any(
        plan.attempt_fails(domain, ("k", index), 0)
        for domain in FAULT_DOMAINS
        for index in range(200)
    )


def test_plan_rate_one_always_fails():
    plan = FaultPlan(rate=1.0, seed=5)
    assert all(
        plan.attempt_fails(domain, ("k", index), 0)
        for domain in FAULT_DOMAINS
        if plan.rate_for(domain) >= 1.0  # mixed halves congestion
        for index in range(50)
    )


def test_profiles_scope_the_domains():
    vpn_only = FaultPlan(rate=0.5, profile="vpn", seed=1)
    assert vpn_only.rate_for("vpn") == 0.5
    for domain in FAULT_DOMAINS:
        if domain != "vpn":
            assert vpn_only.rate_for(domain) == 0.0


@pytest.mark.parametrize("profile", FAULT_PROFILE_NAMES)
def test_every_profile_is_constructible(profile):
    FaultPlan(rate=0.1, profile=profile)


def test_plan_validation():
    with pytest.raises(ValueError, match="probability"):
        FaultPlan(rate=1.5)
    with pytest.raises(ValueError, match="profile"):
        FaultPlan(rate=0.1, profile="chaos-monkey")
    with pytest.raises(ValueError, match="max_retries"):
        FaultPlan(rate=0.1, max_retries=-1)


def test_plan_empirical_rate_tracks_requested_rate():
    plan = FaultPlan(rate=0.2, seed=3)
    trials = 4000
    failures = sum(
        plan.attempt_fails("dns", ("host", index), 0) for index in range(trials)
    )
    assert 0.15 < failures / trials < 0.25


# ----------------------------------------------------------------- report

def _report(*triples):
    report = FaultReport()
    for country, domain, injected, retried, degraded in triples:
        tally = report.tally(country, domain)
        tally.injected += injected
        tally.retried += retried
        tally.degraded += degraded
    return report


def test_merge_is_commutative():
    a = _report(("BR", "dns", 3, 3, 0), ("US", "vpn", 2, 1, 1))
    b = _report(("BR", "dns", 1, 0, 1), ("FR", "probe", 4, 4, 0))
    assert a.merge(b) == b.merge(a)


def test_merge_is_associative():
    a = _report(("BR", "dns", 3, 3, 0))
    b = _report(("BR", "dns", 1, 0, 1), ("US", "vpn", 2, 1, 1))
    c = _report(("FR", "probe", 5, 4, 1))
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


def test_empty_report_is_identity():
    a = _report(("BR", "dns", 3, 3, 0))
    assert a.merge(FaultReport()) == a
    assert FaultReport().merge(a) == a
    assert not FaultReport()


def test_merge_sums_componentwise():
    a = _report(("BR", "dns", 3, 3, 0))
    b = _report(("BR", "dns", 1, 0, 1))
    merged = a.merge(b)
    tally = merged.countries["BR"]["dns"]
    assert (tally.injected, tally.retried, tally.degraded) == (4, 3, 1)
    assert merged.consistent


def test_merge_fault_reports_reduces_any_iterable():
    reports = [_report(("BR", "dns", 1, 1, 0)) for _ in range(4)]
    merged = merge_fault_reports(reports)
    assert merged.countries["BR"]["dns"].injected == 4
    assert merge_fault_reports([]) == FaultReport()


def test_report_round_trips_through_dict():
    report = _report(("BR", "dns", 3, 3, 0), ("US", "vpn", 2, 1, 1))
    report.tally("US", "vpn").backoff_ms = 300.0
    assert FaultReport.from_dict(report.to_dict(), "report") == report


def test_consistency_invariant():
    good = DomainTally(injected=4, retried=3, recovered=1, degraded=1)
    assert good.consistent
    bad = DomainTally(injected=4, retried=1, degraded=1)
    assert not bad.consistent
    assert not _report(("BR", "dns", 4, 1, 1)).consistent


# ---------------------------------------------------------------- session

def test_session_requires_enabled_plan():
    with pytest.raises(ValueError, match="enabled"):
        FaultSession(FaultPlan(rate=0.0), "BR")


def test_session_memoizes_episodes_and_counts_once():
    session = FaultSession(FaultPlan(rate=1.0, seed=2), "BR")
    first = session.episode("dns", "host.gov")
    again = session.episode("dns", "host.gov")
    assert first is again
    tally = session.report.countries["BR"]["dns"]
    assert tally.injected == first.injected  # one episode, tallied once


def test_session_rate_one_always_degrades_with_full_retries():
    plan = FaultPlan(rate=1.0, seed=2, max_retries=2, backoff_base_ms=100.0)
    session = FaultSession(plan, "BR")
    episode = session.episode("whois", 0xDEADBEEF)
    assert episode == Episode(injected=3, retried=2, recovered=False,
                              degraded=True, backoff_ms=300.0)
    assert session.clock.now_ms == 300.0  # 100 + 200, simulated only


def test_unretryable_domains_fail_without_retries():
    # the "probes" profile applies the full rate to congestion
    session = FaultSession(FaultPlan(rate=1.0, profile="probes", seed=2), "BR")
    episode = session.episode("congestion", 7, 1)
    assert episode.degraded and episode.retried == 0 and episode.injected == 1
    assert "congestion" in UNRETRYABLE_DOMAINS


def test_session_report_is_always_consistent():
    plan = FaultPlan(rate=0.4, seed=11)
    session = FaultSession(plan, "DE")
    for index in range(300):
        session.operation_fails("dns", f"host-{index}.gov")
        session.operation_fails("whois", index)
        session.congestion_ms(index % 7, index)
    report = session.report
    assert report.consistent
    total = report.total()
    assert total.injected == total.retried + total.degraded
    assert total.injected > 0  # at 40% something must have fired


def test_country_scoped_decisions_differ_between_sessions():
    plan = FaultPlan(rate=0.5, seed=17)
    outcomes_a = [FaultSession(plan, "BR").operation_fails("dns", i)
                  for i in range(64)]
    outcomes_b = [FaultSession(plan, "US").operation_fails("dns", i)
                  for i in range(64)]
    assert outcomes_a != outcomes_b


def test_episode_is_frozen():
    episode = Episode(injected=1, retried=1, recovered=True, degraded=False,
                      backoff_ms=100.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        episode.injected = 2
