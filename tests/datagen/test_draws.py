"""The generator's inline draws against ``random.Random``'s own.

Generation inlines the stdlib's arithmetic in its hottest draws: the
object-size sampler (``lognormvariate``) and ``build_site``'s extension
and external-host picks (``choice``).  From the same state, each inline
draw must give the stdlib's value and leave the generator in the stdlib's
state, so a change to CPython's ``random`` fails here instead of moving
the generated bytes.
"""

import math
import random

import pytest

from repro.datagen import generator as generator_module
from repro.datagen.config import CALIBRATION, WorldConfig
from repro.datagen.generator import _EXTERNAL_HOSTS, _Generator
from repro.datagen.sitebuilder import (
    _RESOURCE_EXTENSIONS,
    SiteBuildSpec,
    build_site,
)
from repro.websim.sites import SiteKind

SEEDS = range(256)

#: Size multipliers across the sampler's clamp (0.05 to 20) and beyond.
MULTIPLIERS = (0.01, 0.05, 0.3, 1.0, 4.2, 20.0, 35.0)


@pytest.mark.parametrize("mean_bytes", [CALIBRATION["mean_resource_bytes"],
                                        2.0 ** 70],
                         ids=["config-mean", "exact-floats"])
def test_sizes_match_lognormvariate(mean_bytes, monkeypatch):
    # At a mean of 2**70 every draw is above 2**53, where each float is
    # an integer: int() keeps all of its bits, so equal sizes are equal
    # floats.
    monkeypatch.setattr(generator_module, "CALIBRATION", {
        **CALIBRATION, "mean_resource_bytes": mean_bytes})
    generator = _Generator(WorldConfig())
    for seed in SEEDS:
        for multiplier in MULTIPLIERS:
            inline, stdlib = random.Random(seed), random.Random(seed)
            sample = generator._size_sampler(multiplier, inline)
            clamped = min(max(multiplier, 0.05), 20.0)
            mu = math.log(mean_bytes * clamped) - 0.5
            sizes = [sample() for _ in range(20)]
            assert sizes == [max(200, int(stdlib.lognormvariate(mu, 1.0)))
                             for _ in range(20)]
            assert inline.getstate() == stdlib.getstate()
            if mean_bytes > 2 ** 53:
                assert min(sizes) > 2 ** 53


def _picked(rng, hosts, count):
    """The extensions and external hosts ``build_site`` picks for one
    landing page of ``count`` embedded objects, with a size sampler that
    draws nothing, so the picks are all ``rng`` yields."""
    spec = SiteBuildSpec(
        hostname="www.example.gov.br", country="BR", kind=SiteKind.AGENCY,
        landing_paths=["/"], internal_budget=count,
        size_sampler=lambda: 1_000,
        external_ratio=1.0, external_hosts=hosts,
    )
    site = build_site(spec, (1.0,), rng)
    embedded = site.pages[site.landing_url].entries[1:]
    assert len(embedded) == 2 * count
    return ([entry.url.rsplit(".", 1)[1] for entry in embedded[:count]],
            [entry.hostname for entry in embedded[count:]])


@pytest.mark.parametrize("n_hosts", [8, 5, 1])
def test_picks_match_choice(n_hosts):
    assert len(_RESOURCE_EXTENSIONS) == 7 and len(_EXTERNAL_HOSTS) == 8
    hosts = _EXTERNAL_HOSTS[:n_hosts]
    for seed in SEEDS:
        inline, stdlib = random.Random(seed), random.Random(seed)
        extensions, picked_hosts = _picked(inline, hosts, 24)
        assert extensions == [stdlib.choice(_RESOURCE_EXTENSIONS)
                              for _ in range(24)]
        assert picked_hosts == [stdlib.choice(hosts) for _ in range(24)]
        assert inline.getstate() == stdlib.getstate()
