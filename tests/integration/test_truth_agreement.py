"""Measured-vs-truth agreement checks across the whole shared world."""

from repro.core.urlfilter import FilterVia
from tests.records import iter_records, records_of


def test_filter_via_matches_expected_heuristic(dataset, world):
    """Every hostname is picked up by exactly the heuristic the generator
    expected (TLD pattern, directory domain match, or SAN verification)."""
    mismatches = []
    for code, country_dataset in dataset.countries.items():
        seen: dict[str, FilterVia] = {}
        for record in records_of(country_dataset):
            seen.setdefault(record.hostname, record.via)
        for hostname, via in seen.items():
            truth = world.truth.hosts.get(hostname)
            if truth is None:
                continue
            if via.value != truth.expected_filter:
                mismatches.append((hostname, truth.expected_filter, via.value))
    assert not mismatches, mismatches[:10]


def test_registration_country_matches_truth(dataset, world):
    for record in iter_records(dataset):
        truth = world.truth.hosts.get(record.hostname)
        if truth is not None:
            assert record.registered_country == truth.registered_country


def test_confirmed_locations_match_truth_serving_country(dataset, world):
    """When geolocation confirms a location, it is (almost always) the true
    serving country; the rare exceptions are small countries whose road
    threshold admits a nearby foreign server."""
    wrong = total = 0
    for record in iter_records(dataset):
        if record.excluded:
            continue
        truth = world.truth.hosts.get(record.hostname)
        if truth is None:
            continue
        total += 1
        if record.server_country != truth.serving_country:
            wrong += 1
    assert total > 0
    assert wrong / total < 0.05
