"""End-to-end determinism and scale-consistency tests."""

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.analysis import country_breakdown, global_breakdown
from tests.records import iter_records


def _run(seed, scale, countries):
    world = SyntheticWorld.generate(
        WorldConfig(seed=seed, scale=scale, countries=countries,
                    include_topsites=False)
    )
    return Pipeline(world).run(list(countries))


def test_pipeline_is_fully_deterministic():
    countries = ("BR", "MA", "JP")
    first = _run(3, 0.04, countries)
    second = _run(3, 0.04, countries)
    records_a = sorted(iter_records(first), key=lambda r: r.url)
    records_b = sorted(iter_records(second), key=lambda r: r.url)
    assert records_a == records_b
    assert first.validation.table4() == second.validation.table4()


def test_different_seed_different_measurements():
    countries = ("BR",)
    first = _run(3, 0.04, countries)
    second = _run(4, 0.04, countries)
    urls_a = {record.url for record in iter_records(first)}
    urls_b = {record.url for record in iter_records(second)}
    assert urls_a != urls_b


def test_scale_preserves_country_mixes():
    """Category mixes are scale-invariant up to quantization noise."""
    countries = ("US", "BE")
    small = _run(7, 0.03, countries)
    large = _run(7, 0.12, countries)
    mixes_small = country_breakdown(small)
    mixes_large = country_breakdown(large)
    for code in countries:
        mix_small = mixes_small[code]["urls"]
        mix_large = mixes_large[code]["urls"]
        for category, share in mix_large.items():
            assert mix_small[category] == pytest.approx(share, abs=0.22), (
                code, category
            )


def test_global_breakdown_stable_across_seeds(small_config):
    """The Figure 2 shape is a property of the world, not of one seed."""
    mixes = []
    for seed in (11, 12):
        world = SyntheticWorld.generate(
            WorldConfig(seed=seed, scale=0.03, include_topsites=False)
        )
        dataset = Pipeline(world).run()
        mixes.append(global_breakdown(dataset)["urls"])
    for category in mixes[0]:
        assert mixes[0][category] == pytest.approx(
            mixes[1][category], abs=0.08
        )
