"""HOIHO accuracy over the whole generated PTR corpus."""

from repro.datagen.config import CALIBRATION
from repro.measure.hoiho import HoihoExtractor


def test_extractor_never_returns_wrong_country(world):
    """Whenever the extractor produces a hint for a generated PTR name, the
    hint matches the address's true PoP country -- HOIHO's regexes are
    precise even though they are not complete."""
    extractor = HoihoExtractor(world.ptr_table)
    hits = misses = wrong = 0
    for address, _name in world.ptr_table.items():
        try:
            truth = world.fabric.unicast_location(address).country
        except ValueError:
            continue  # anycast addresses carry no single location
        hint = extractor.country_hint(address)
        if hint is None:
            misses += 1
        elif hint == truth:
            hits += 1
        else:
            wrong += 1
    assert hits > 0
    assert wrong == 0
    # Opaque-dialect names are the only misses, a small configured share.
    assert misses / (hits + misses) < 0.25


def test_ptr_coverage_tracks_config(world):
    expected = (CALIBRATION["ptr_city_rate"] + CALIBRATION["ptr_ntt_rate"]
                + CALIBRATION["ptr_opaque_rate"])
    unicast_total = sum(
        1 for truth in world.truth.hosts.values() if not truth.anycast
    )
    # PTR names exist for roughly the configured share of addresses
    # (addresses are fewer than hostnames due to pooling, so compare against
    # the address population).
    addresses = {
        truth.address for truth in world.truth.hosts.values() if not truth.anycast
    }
    with_ptr = sum(1 for a in addresses if world.ptr_table.lookup(a) is not None)
    assert with_ptr / len(addresses) > expected - 0.25
    assert unicast_total >= len(addresses)
