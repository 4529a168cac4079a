"""Tests for seed derivation and configuration validation."""

import pytest

from repro.datagen.config import WorldConfig
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
    assert abs(sum(config.depth_distribution) - 1.0) < 1e-9


def test_config_rejects_bad_scale():
    with pytest.raises(ValueError):
        WorldConfig(scale=0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"),
                                   float("-inf"), -0.5])
def test_config_rejects_non_finite_or_negative_scale(scale):
    with pytest.raises(ValueError, match="scale must be positive and finite"):
        WorldConfig(scale=scale)


def test_config_rejects_bad_probability():
    with pytest.raises(ValueError):
        WorldConfig(unicast_icmp_rate=1.5)


def test_config_rejects_bad_depth_distribution():
    with pytest.raises(ValueError):
        WorldConfig(depth_distribution=(0.5, 0.1))


def test_config_rejects_overfull_ptr_rates():
    with pytest.raises(ValueError):
        WorldConfig(ptr_city_rate=0.6, ptr_ntt_rate=0.3, ptr_opaque_rate=0.2)


def test_country_codes_default_is_whole_sample():
    assert len(WorldConfig().country_codes()) == 61


def test_country_codes_validates_members():
    config = WorldConfig(countries=("br", "US"))
    assert config.country_codes() == ["BR", "US"]
    with pytest.raises(ValueError):
        WorldConfig(countries=("XX",)).country_codes()
