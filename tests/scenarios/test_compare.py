"""Divergence metrics: flips, category deltas, HHI, outage radius."""

from __future__ import annotations

import pytest

from repro.categories import HostingCategory
from repro.scenarios import SweepRunner, compare_scenario, compare_sweep
from repro.scenarios.compare import OUTAGE_THRESHOLD
from tests.scenarios.conftest import make_base, make_matrix
from tests.records import records_of


@pytest.fixture(scope="module")
def divergences(sweep):
    return compare_sweep(sweep)


def test_baseline_is_not_compared_to_itself(sweep, divergences):
    assert len(divergences) == len(sweep) - 1
    assert [d.name for d in divergences] == \
        [result.name for result in sweep.results[1:]]


def test_self_comparison_is_all_zero(sweep):
    divergence = compare_scenario(sweep.baseline, sweep.baseline)
    assert divergence.identical_dataset
    assert divergence.verdict_flips == 0
    assert divergence.third_party_delta == 0.0
    assert divergence.hhi_mean_delta == 0.0
    assert all(delta == 0.0 for _, delta in divergence.category_deltas)
    assert divergence.outage is None


def test_outage_divergence_reports_blast_radius_only(sweep, divergences):
    outage = next(d for d in divergences if d.kind == "outage")
    # The measured world is the baseline's: zero measurement divergence.
    assert outage.identical_dataset
    assert outage.verdict_flips == 0
    assert outage.hhi_mean_delta == 0.0
    # ...but the what-if analysis still ran over the shared dataset.
    radius = outage.outage
    assert radius is not None
    assert radius.asns == (13335,)
    assert radius.names == ("Cloudflare",)
    assert radius.affected_count == len(radius.affected)
    shares = [share for _, share in radius.affected]
    assert shares == sorted(shares, reverse=True)
    assert all(share > OUTAGE_THRESHOLD for share in shares)
    if radius.affected:
        assert radius.worst == radius.affected[0]
        assert 0 < radius.mean_share_lost <= 1


def test_flips_confined_to_changed_countries(sweep, divergences):
    for divergence in divergences:
        flipped = {code for code, _ in divergence.flips_by_country}
        assert flipped <= set(divergence.changed_countries)
        assert divergence.verdict_flips == \
            sum(count for _, count in divergence.flips_by_country)


def test_category_deltas_are_consistent(divergences):
    labels = tuple(category.value for category in HostingCategory)
    for divergence in divergences:
        assert tuple(label for label, _ in divergence.category_deltas) == \
            labels
        # Shares sum to 1 on both sides, so the deltas sum to ~0 and
        # the third-party aggregate mirrors the Govt&SOE movement.
        total = sum(delta for _, delta in divergence.category_deltas)
        assert total == pytest.approx(0.0, abs=1e-9)
        govt = dict(divergence.category_deltas)[
            HostingCategory.GOVT_SOE.value
        ]
        assert divergence.third_party_delta == pytest.approx(-govt)


def test_to_dict_is_json_ready(divergences):
    import json

    for divergence in divergences:
        payload = divergence.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["name"] == divergence.name


def test_demo_sweep_compares_without_building_records():
    """Verdict flips read the host rows: over a 0.02 demo sweep of every
    country they are the ones a pass over the per-URL records counts
    (seed 7's evolution step flips one GB hostname)."""
    base = make_base(seed=7, scale=0.02, countries=None)
    sweep = SweepRunner(make_matrix(base)).run()
    divergences = compare_sweep(sweep)
    assert any(d.verdict_flips for d in divergences)

    def verdicts(dataset, code):
        return {record.hostname: record.server_country
                for record in records_of(dataset.country(code))}

    for result, divergence in zip(sweep.results[1:], divergences):
        flips = []
        for code in result.changed_countries:
            before = verdicts(sweep.baseline.dataset, code)
            count = sum(1 for host, server in
                        verdicts(result.dataset, code).items()
                        if host in before and before[host] != server)
            if count:
                flips.append((code, count))
        flips.sort(key=lambda item: (-item[1], item[0]))
        assert tuple(flips) == tuple(divergence.flips_by_country)
