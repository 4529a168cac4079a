"""Shared fixtures: session-scoped synthetic worlds and pipeline runs.

Generating a world and running the pipeline dominates test cost, so the
suite shares one small full-sample world (all 61 countries at a small
scale) and one tiny three-country world for focused tests.
"""

from __future__ import annotations

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig


@pytest.fixture(scope="session")
def small_config() -> WorldConfig:
    """Config of the shared full-sample world."""
    return WorldConfig(seed=42, scale=0.04)


@pytest.fixture(scope="session")
def world(small_config) -> SyntheticWorld:
    """A full 61-country world at small scale."""
    return SyntheticWorld.generate(small_config)


@pytest.fixture(scope="session")
def pipeline(world) -> Pipeline:
    """A pipeline bound to the shared world."""
    return Pipeline(world)


@pytest.fixture(scope="session")
def dataset(pipeline):
    """The measured dataset over the shared world."""
    return pipeline.run()


@pytest.fixture
def generated_worlds(monkeypatch) -> list:
    """The config of every world the test generates from here on."""
    generate = SyntheticWorld.generate
    configs = []

    def recording(config):
        configs.append(config)
        return generate(config)

    monkeypatch.setattr(SyntheticWorld, "generate", recording)
    return configs


@pytest.fixture(scope="session")
def tiny_world() -> SyntheticWorld:
    """A three-country world for focused component tests."""
    return SyntheticWorld.generate(
        WorldConfig(seed=7, scale=0.05, countries=("BR", "US", "FR"))
    )


@pytest.fixture(scope="session")
def tiny_dataset(tiny_world):
    """Measured dataset of the tiny world."""
    return Pipeline(tiny_world).run(["BR", "US", "FR"])
