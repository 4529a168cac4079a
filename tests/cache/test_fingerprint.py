"""Key derivation: stability, normalization and selective invalidation."""

from __future__ import annotations

import dataclasses

import pytest

from repro import WorldConfig
from repro.cache import (
    country_key,
    country_slice_fingerprint,
    global_fingerprint,
    scan_keys,
)
from repro.datagen.config import CountryOverride
from repro.faults.plan import FaultPlan


def _key(config: WorldConfig, country: str = "BR", max_depth: int = 7) -> str:
    [key] = scan_keys(config, max_depth, FaultPlan.from_config(config),
                      [country])
    return key


def test_same_inputs_same_key():
    a = WorldConfig(seed=42, scale=0.05)
    b = WorldConfig(seed=42, scale=0.05)
    assert _key(a) == _key(b)


def test_country_spelling_normalized():
    config = WorldConfig(seed=42, scale=0.05)
    plan = FaultPlan.from_config(config)
    assert scan_keys(config, 7, plan, ["br"]) == \
        scan_keys(config, 7, plan, ["BR"])


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


def test_max_depth_change_invalidates():
    config = WorldConfig(seed=42, scale=0.05)
    assert _key(config, max_depth=7) != _key(config, max_depth=3)


def test_countries_differ():
    config = WorldConfig(seed=42, scale=0.05)
    assert _key(config, "BR") != _key(config, "US")


def test_custom_fault_plan_fingerprints_its_fields():
    config = WorldConfig(seed=42, scale=0.05)
    plan = FaultPlan.from_config(config)
    bumped = dataclasses.replace(plan, max_retries=plan.max_retries + 1)
    assert scan_keys(config, 7, plan, ["BR"]) != \
        scan_keys(config, 7, bumped, ["BR"])


def test_country_key_composes_global_fingerprint():
    config = WorldConfig(seed=42, scale=0.05)
    plan = FaultPlan.from_config(config)
    global_fp = global_fingerprint(config, 7, plan)
    assert scan_keys(config, 7, plan, ["US", "BR"]) == [
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
        CountryOverride(country="BR", vantage_rank=1),
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
    plan = FaultPlan.from_config(base)
    assert global_fingerprint(base, 7, plan) == \
        global_fingerprint(mutated, 7, plan)
