"""Shared sweep fixtures: one small three-axis matrix, swept once.

A sweep at this scale runs in a couple of seconds but exercises every
axis: a DNS-stress fault profile (re-keys all), a provider outage
(re-keys nothing, shares the baseline dataset) and an evolution step
(re-keys the mutated subset).
"""

from __future__ import annotations

import pytest

from repro import WorldConfig
from repro.scenarios import ScenarioMatrix, SweepRunner

CODES = ("US", "DE", "IN", "EE", "UY", "SG")


def make_base(**kwargs) -> WorldConfig:
    kwargs.setdefault("seed", 42)
    kwargs.setdefault("scale", 0.01)
    kwargs.setdefault("countries", CODES)
    return WorldConfig(**kwargs)


def make_matrix(base: WorldConfig) -> ScenarioMatrix:
    matrix = ScenarioMatrix(base)
    matrix.add_faults("dns-stress", rate=0.3, profile="dns")
    matrix.add_outage("cf-down", provider="cloudflare")
    matrix.add_evolution("evolved", steps=1)
    return matrix


@pytest.fixture(scope="session")
def sweep_base() -> WorldConfig:
    return make_base()


@pytest.fixture(scope="session")
def sweep(sweep_base):
    """The three-axis matrix swept serially, no cache."""
    return SweepRunner(make_matrix(sweep_base)).run()
