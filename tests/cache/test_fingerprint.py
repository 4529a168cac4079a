"""Key derivation: stability, normalization and selective invalidation."""

from __future__ import annotations

import dataclasses

import pytest

from repro import WorldConfig
from repro.cache import (
    CACHE_FORMAT_VERSION,
    country_key,
    country_slice_fingerprint,
    global_fingerprint,
    run_fingerprint,
    scan_keys,
)
from repro.datagen.config import CountryOverride
from repro.faults.plan import FaultPlan


def _key(config: WorldConfig, country: str = "BR") -> str:
    [key] = scan_keys(config, [country])
    return key


#: (config, run fingerprint, keys of BR and US) at format 6.  Both hash
#: the resolved fault plan and the crawl depth of 7, so a change to
#: either derivation — not only to the config — fails here before it
#: silently retires every cache entry and manifest identity.  Only the
#: keys hash the format version.
PINNED = [
    (WorldConfig(seed=42, scale=0.05),
     "3acafaee69a9b9d0e28ce0b5916ae03b",
     ["6ccd2006320dad20f0ebb4d8788946f8",
      "28b76d45f25485ac1f174d0d8072dce3"]),
    (WorldConfig(seed=7, scale=0.05, fault_rate=0.2),
     "34e95683e53e12b0c0780b61ee5e907e",
     ["b1bcf8815ff0bcc159be7d6f8c913c90",
      "b2c7e0e95c7ad0cb74d0f63241049d55"]),
    (WorldConfig(seed=42, scale=0.05, country_overrides=(
        CountryOverride(country="BR", extra_soes=1),)),
     "1f2f97fbb6e9954851aaacde27f323bf",
     ["41094d9dde1e41673131162717b9a98c",
      "28b76d45f25485ac1f174d0d8072dce3"]),
]


@pytest.mark.parametrize("config, run_fp, keys", PINNED,
                         ids=["base", "faulted", "override"])
def test_keys_and_run_fingerprints_are_pinned(config, run_fp, keys):
    assert CACHE_FORMAT_VERSION == 6  # a version bump re-pins the table
    assert run_fingerprint(config) == run_fp
    assert scan_keys(config, ["BR", "US"]) == keys


@pytest.mark.parametrize("config", [entry[0] for entry in PINNED],
                         ids=["base", "faulted", "override"])
def test_format_bump_moves_every_key_and_no_run_fingerprint(config,
                                                           monkeypatch):
    """A cache layout change retires the entries, not the run
    identities that manifests and the registry chain by."""
    from repro.cache import fingerprint

    keys = scan_keys(config, ["BR", "US"])
    run_fp = run_fingerprint(config)
    monkeypatch.setattr(fingerprint, "CACHE_FORMAT_VERSION",
                        CACHE_FORMAT_VERSION + 1)
    bumped = scan_keys(config, ["BR", "US"])
    assert all(old != new for old, new in zip(keys, bumped))
    assert run_fingerprint(config) == run_fp


def test_same_inputs_same_key():
    a = WorldConfig(seed=42, scale=0.05)
    b = WorldConfig(seed=42, scale=0.05)
    assert _key(a) == _key(b)


def test_country_spelling_normalized():
    config = WorldConfig(seed=42, scale=0.05)
    assert scan_keys(config, ["br"]) == scan_keys(config, ["BR"])


def test_countries_field_spelling_normalized():
    lower = WorldConfig(seed=42, scale=0.05, countries=("br", "us"))
    upper = WorldConfig(seed=42, scale=0.05, countries=("BR", "US"))
    assert _key(lower) == _key(upper)


def test_explicit_derived_fault_seed_equals_none():
    # fault_seed=None resolves to a seed derived from the world seed; a
    # config spelling that resolved seed out explicitly is the same scan.
    implicit = WorldConfig(seed=42, scale=0.05, fault_rate=0.1)
    resolved = FaultPlan.from_config(implicit).seed
    explicit = dataclasses.replace(implicit, fault_seed=resolved)
    assert _key(implicit) == _key(explicit)


@pytest.mark.parametrize(
    "change",
    [
        {"seed": 43},
        {"scale": 0.06},
        {"fault_rate": 0.25},
        {"fault_seed": 9},
    ],
)
def test_any_global_field_change_invalidates(change):
    base = WorldConfig(seed=42, scale=0.05, fault_rate=0.1)
    assert _key(base) != _key(dataclasses.replace(base, **change))


def test_country_selection_does_not_invalidate():
    # The generator is per-country hermetic: which *other* countries are
    # in the sample never changes a country's scan, so the selection is
    # deliberately excluded from the key (incremental snapshots depend
    # on this when the evolution model adds a country mid-series).
    base = WorldConfig(seed=42, scale=0.05)
    subset = dataclasses.replace(base, countries=("BR", "US"))
    assert _key(base) == _key(subset)


def test_countries_differ():
    config = WorldConfig(seed=42, scale=0.05)
    assert _key(config, "BR") != _key(config, "US")


def test_country_key_composes_global_fingerprint():
    config = WorldConfig(seed=42, scale=0.05)
    global_fp = global_fingerprint(config)
    assert scan_keys(config, ["US", "BR"]) == [
        country_key(global_fp, code, country_slice_fingerprint(config, code))
        for code in ("US", "BR")
    ]


# ------------------------------------------------ per-country key stability

def _with_override(base: WorldConfig, override: CountryOverride) -> WorldConfig:
    return dataclasses.replace(base, country_overrides=(override,))


@pytest.mark.parametrize(
    "override",
    [
        CountryOverride(country="BR", extra_soes=1),
        CountryOverride(country="BR", hyperscaler_shift=0.05),
        CountryOverride(country="BR", prefix_epoch=2),
        CountryOverride(country="BR", provider_tilt=(("amazon", 1.4),)),
        CountryOverride(country="BR", extra_soes=1, prefix_epoch=1),
    ],
)
def test_override_rekeys_only_its_country(override):
    """The incremental hit-rate guarantee: mutating one country's world
    slice changes that country's BLAKE2 key and nobody else's."""
    base = WorldConfig(seed=42, scale=0.05)
    mutated = _with_override(base, override)
    assert _key(base, "BR") != _key(mutated, "BR")
    for other in ("US", "FR", "DE"):
        assert _key(base, other) == _key(mutated, other)


def test_default_override_is_a_fingerprint_noop():
    base = WorldConfig(seed=42, scale=0.05)
    noop = _with_override(base, CountryOverride(country="BR"))
    assert _key(base, "BR") == _key(noop, "BR")


def test_override_spelling_normalized():
    lower = _with_override(
        WorldConfig(seed=42, scale=0.05),
        CountryOverride(country="br", extra_soes=1),
    )
    upper = _with_override(
        WorldConfig(seed=42, scale=0.05),
        CountryOverride(country="BR", extra_soes=1),
    )
    assert _key(lower, "BR") == _key(upper, "BR")


def test_global_fingerprint_ignores_overrides_and_selection():
    base = WorldConfig(seed=42, scale=0.05)
    mutated = dataclasses.replace(
        base,
        countries=("BR", "US"),
        country_overrides=(CountryOverride(country="BR", extra_soes=2),),
    )
    assert global_fingerprint(base) == global_fingerprint(mutated)
