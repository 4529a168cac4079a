"""Tests for seed derivation, configuration validation and the
calibration constant."""

import dataclasses

import pytest

from repro.datagen.config import CALIBRATION, WorldConfig, check_calibration
from repro.datagen.seeds import derive_rng, derive_seed


def test_seed_is_deterministic():
    assert derive_seed(42, "a", "b") == derive_seed(42, "a", "b")


def test_seed_depends_on_components():
    assert derive_seed(42, "a") != derive_seed(42, "b")
    assert derive_seed(42, "a", "b") != derive_seed(42, "ab")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_component_separator_prevents_ambiguity():
    assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")


def test_derived_rngs_reproduce_streams():
    a = derive_rng(9, "x")
    b = derive_rng(9, "x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_config_defaults_valid():
    config = WorldConfig()
    assert config.scale > 0
    assert [field.name for field in dataclasses.fields(config)] == [
        "seed", "scale", "countries", "include_topsites",
        "third_party_drift", "fault_rate", "fault_profile", "fault_seed",
        "country_overrides",
    ]


def test_config_rejects_bad_scale():
    with pytest.raises(ValueError):
        WorldConfig(scale=0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"),
                                   float("-inf"), -0.5])
def test_config_rejects_non_finite_or_negative_scale(scale):
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        WorldConfig(scale=scale)


def test_calibration_invariants():
    rates = {name: value for name, value in CALIBRATION.items()
             if name not in ("topsites_per_country", "depth_distribution",
                             "mean_resource_bytes")}
    assert len(rates) == 23
    assert all(0.0 <= value <= 1.0 for value in rates.values()), rates
    depths = CALIBRATION["depth_distribution"]
    assert all(share >= 0.0 for share in depths)
    assert abs(sum(depths) - 1.0) < 1e-9
    assert sum(CALIBRATION[f"ptr_{dialect}_rate"]
               for dialect in ("city", "ntt", "opaque")) <= 1.0
    assert CALIBRATION["topsites_per_country"] > 0
    assert CALIBRATION["mean_resource_bytes"] > 0
    with pytest.raises(TypeError):
        CALIBRATION["ipmap_coverage"] = 0.5
    check_calibration(CALIBRATION)


def test_config_rejects_bad_probability():
    with pytest.raises(ValueError, match="unicast_icmp_rate must be a prob"):
        check_calibration({**CALIBRATION, "unicast_icmp_rate": 1.5})


def test_config_rejects_bad_depth_distribution():
    with pytest.raises(ValueError, match="depth_distribution must sum to 1"):
        check_calibration({**CALIBRATION, "depth_distribution": (0.5, 0.1)})


def test_config_rejects_overfull_ptr_rates():
    with pytest.raises(ValueError, match="PTR dialect rates"):
        check_calibration({**CALIBRATION, "ptr_city_rate": 0.6,
                           "ptr_ntt_rate": 0.3, "ptr_opaque_rate": 0.2})


def test_calibration_is_no_config_field_but_keys_every_scan():
    with pytest.raises(TypeError):
        WorldConfig(ipmap_coverage=0.5)
    canonical = WorldConfig().canonical_dict()
    assert {name: canonical[name] for name in CALIBRATION} == {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in CALIBRATION.items()
    }


def test_country_codes_default_is_whole_sample():
    assert len(WorldConfig().country_codes()) == 61


def test_country_codes_validates_members():
    config = WorldConfig(countries=("br", "US"))
    assert config.country_codes() == ["BR", "US"]
    with pytest.raises(ValueError):
        WorldConfig(countries=("XX",)).country_codes()
