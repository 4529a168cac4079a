"""EvolutionModel: purity, slice stability, cumulative composition."""

from __future__ import annotations

import pickle

import pytest

from repro import WorldConfig
from repro.datagen.config import CountryOverride
from repro.evolve import EvolutionModel, EvolutionRates, Mutation
from repro.evolve.mutations import MUTATION_KINDS

CODES = ("BR", "US", "FR", "DE", "JP", "IN", "ZA", "MX")


def _config(**kwargs) -> WorldConfig:
    kwargs.setdefault("seed", 42)
    kwargs.setdefault("scale", 0.05)
    kwargs.setdefault("countries", CODES)
    return WorldConfig(**kwargs)


def test_evolve_is_pure():
    model = EvolutionModel(seed=11)
    config = _config()
    assert model.evolve(config, 1) == model.evolve(config, 1)
    assert pickle.dumps(model.evolve(config, 1)) == \
        pickle.dumps(model.evolve(config, 1))


def test_different_steps_differ():
    model = EvolutionModel(seed=11)
    config = _config(countries=None)  # full sample: changes all but sure
    one = model.evolve(config, 1)
    two = model.evolve(config, 2)
    assert one.changed_countries != two.changed_countries


def test_untouched_countries_keep_identical_override_objects():
    """The cache-hit guarantee at the config layer: a country the step
    does not touch keeps the very same override object (or none)."""
    override = CountryOverride(country="BR", extra_soes=2)
    config = _config(country_overrides=(override,))
    model = EvolutionModel(seed=11)
    step = model.evolve(config, 1)
    for code in CODES:
        if code in step.changed_countries:
            continue
        before = config.override_for(code)
        after = step.config.override_for(code)
        assert after is before  # not merely equal: the same object


def test_slice_fingerprints_stable_for_unchanged_countries():
    from repro.cache import country_slice_fingerprint

    config = _config()
    model = EvolutionModel(seed=11)
    step = model.evolve(config, 1)
    assert step.changed_countries, "seed 11 should touch someone"
    for code in CODES:
        same = (country_slice_fingerprint(config, code)
                == country_slice_fingerprint(step.config, code))
        assert same == (code not in step.changed_countries)


def test_mutations_compose_across_steps():
    config = _config(countries=None)
    model = EvolutionModel(seed=3)
    seen: dict[str, list] = {}
    for step_number in range(1, 6):
        step = model.evolve(config, step_number)
        config = step.config
        for mutation in step.mutations:
            seen.setdefault(mutation.country, []).append(mutation)
    twice_touched = [code for code, events in seen.items()
                     if len(events) >= 2]
    assert twice_touched, "5 steps over 61 countries must retouch someone"
    # A retouched country's override reflects its whole history, e.g.
    # two SOE formations leave extra_soes == 2.
    for code, events in seen.items():
        soes = sum(1 for event in events if event.kind == "new-soe")
        override = config.override_for(code)
        if soes and override is not None:
            assert override.extra_soes >= soes


def test_changed_countries_only_lists_mutated():
    model = EvolutionModel(seed=11)
    step = model.evolve(_config(countries=None), 1)
    assert step.changed_countries == \
        tuple(sorted({m.country for m in step.mutations}))
    for mutation in step.mutations:
        assert mutation.kind in MUTATION_KINDS


def test_selection_independent_decisions():
    """A country's evolution does not depend on who else is sampled."""
    model = EvolutionModel(seed=11)
    full = model.evolve(_config(countries=None), 1)
    subset = model.evolve(_config(), 1)
    full_by_country = {}
    for mutation in full.mutations:
        full_by_country.setdefault(mutation.country, []).append(mutation)
    subset_by_country = {}
    for mutation in subset.mutations:
        subset_by_country.setdefault(mutation.country, []).append(mutation)
    for code in CODES:
        assert full_by_country.get(code) == subset_by_country.get(code)


def test_rates_validated():
    with pytest.raises(ValueError):
        EvolutionRates(provider_gain=1.5)
    with pytest.raises(ValueError):
        EvolutionRates(soe_formation=-0.1)


def test_zero_rates_change_nothing():
    zero = EvolutionRates(provider_gain=0.0, provider_loss=0.0,
                          hyperscaler_migration=0.0, soe_formation=0.0,
                          prefix_reregistration=0.0)
    config = _config()
    step = EvolutionModel(seed=11, rates=zero).evolve(config, 1)
    assert step.mutations == ()
    assert step.config == config


def test_step_must_be_positive():
    with pytest.raises(ValueError):
        EvolutionModel(seed=11).evolve(_config(), 0)


def test_mutation_kind_validated():
    with pytest.raises(ValueError):
        Mutation(country="BR", kind="asteroid-strike")


def test_derived_configs_stay_valid():
    """Every evolved config passes WorldConfig's own validation and
    keeps shift/epoch inside the generator's accepted domains."""
    config = _config(countries=None)
    model = EvolutionModel(
        seed=5,
        rates=EvolutionRates(provider_gain=0.5, provider_loss=0.5,
                             hyperscaler_migration=0.9, soe_formation=0.5,
                             prefix_reregistration=0.9),
    )
    for step_number in range(1, 20):
        step = model.evolve(config, step_number)
        config = step.config
    for override in config.country_overrides:
        assert 0.0 <= override.hyperscaler_shift <= 0.5
        assert 0 <= override.prefix_epoch <= 31
        for _, factor in override.provider_tilt:
            assert factor > 0
