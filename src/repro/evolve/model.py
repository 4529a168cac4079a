"""The evolution model: snapshot T+1's configuration from snapshot T's.

:meth:`EvolutionModel.evolve` is a pure function of ``(config, step)``
given the model's seed: every per-country decision draws from
``derive_rng(seed, "evolve", step, country)``, a stream that depends on
nothing but those components — not on the country selection, not on
other countries' draws, not on how many snapshots came before.  Two
consequences the series runner relies on:

* determinism — re-deriving any snapshot's configuration from the base
  yields the identical object, so a series can be replayed or extended
  without storing intermediate configs;
* slice stability — a country the step does not touch keeps its
  existing :class:`~repro.datagen.config.CountryOverride` object (or
  absence thereof) byte-for-byte, so its per-country cache key is
  unchanged and its scan is served from cache.

Mutations compose across steps: a country that gains a provider in step
1 and migrates to hyperscalers in step 3 carries both in its override
from step 3 on.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.datagen.config import CountryOverride, WorldConfig
from repro.datagen.seeds import derive_rng
from repro.evolve.mutations import Mutation
from repro.netsim.providers import provider_keys

#: ``hyperscaler_shift`` never exceeds what the drift model accepts.
_MAX_SHIFT = 0.5

#: ``prefix_epoch`` is bounded by the numbering plan's epoch space.
_MAX_EPOCH = 31


@dataclasses.dataclass(frozen=True)
class EvolutionRates:
    """Per-country, per-step probabilities of each mutation kind.

    The defaults model gradual change: with ~26% of countries touched
    per step, a snapshot's incremental run still hits the cache for
    roughly three quarters of the sample.
    """

    provider_gain: float = 0.08
    provider_loss: float = 0.05
    hyperscaler_migration: float = 0.08
    soe_formation: float = 0.04
    prefix_reregistration: float = 0.03

    def __post_init__(self) -> None:
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"rate {field.name} must be in [0, 1], got {value!r}"
                )


@dataclasses.dataclass(frozen=True)
class EvolutionStep:
    """One derived snapshot configuration plus its provenance."""

    #: The evolution step number that produced this config (1-based:
    #: step N derives snapshot N from snapshot N-1).
    step: int
    #: The derived configuration (snapshot T+1's world).
    config: WorldConfig
    #: Every mutation the step applied, country order.
    mutations: tuple[Mutation, ...]

    @property
    def changed_countries(self) -> tuple[str, ...]:
        """Countries whose config slice this step rewrote (sorted)."""
        return tuple(sorted({m.country for m in self.mutations}))


class EvolutionModel:
    """Seeded generator of year-over-year configuration change."""

    def __init__(self, seed: int,
                 rates: Optional[EvolutionRates] = None) -> None:
        self.seed = seed
        self.rates = rates if rates is not None else EvolutionRates()

    def evolve(self, config: WorldConfig, step: int) -> EvolutionStep:
        """Derive the next snapshot's configuration from ``config``.

        Pure and replayable: the same ``(config, step)`` always yields
        the same result under the same model seed.
        """
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        overrides = {
            override.country: override
            for override in config.country_overrides
        }
        mutations: list[Mutation] = []
        for code in config.country_codes():
            mutated, country_mutations = self._evolve_country(
                code, overrides.get(code), step
            )
            if not country_mutations:
                continue
            mutations.extend(country_mutations)
            if mutated.is_default():
                overrides.pop(code, None)
            else:
                overrides[code] = mutated
        new_config = dataclasses.replace(
            config,
            country_overrides=tuple(
                overrides[code] for code in sorted(overrides)
            ),
        )
        return EvolutionStep(
            step=step, config=new_config, mutations=tuple(mutations)
        )

    # ------------------------------------------------------- per country

    def _evolve_country(
        self, code: str, override: Optional[CountryOverride], step: int
    ) -> tuple[CountryOverride, list[Mutation]]:
        rng = derive_rng(self.seed, "evolve", step, code)
        current = override if override is not None else \
            CountryOverride(country=code)
        tilts = dict(current.provider_tilt)
        shift = current.hyperscaler_shift
        soes = current.extra_soes
        epoch = current.prefix_epoch
        mutations: list[Mutation] = []
        rates = self.rates

        if rng.random() < rates.provider_gain:
            key = rng.choice(provider_keys())
            factor = round(1.15 + 0.35 * rng.random(), 4)
            tilts[key] = round(tilts.get(key, 1.0) * factor, 4)
            mutations.append(Mutation(
                country=code, kind="provider-gain",
                detail=(("provider", key), ("factor", factor)),
            ))
        if rng.random() < rates.provider_loss:
            # Losses prefer a provider the country already tilted
            # toward; otherwise any provider's base adoption shrinks.
            boosted = sorted(key for key, value in tilts.items() if value > 1)
            key = rng.choice(boosted) if boosted else \
                rng.choice(provider_keys())
            factor = round(1.15 + 0.35 * rng.random(), 4)
            tilts[key] = round(tilts.get(key, 1.0) / factor, 4)
            mutations.append(Mutation(
                country=code, kind="provider-loss",
                detail=(("provider", key), ("factor", factor)),
            ))
        if rng.random() < rates.hyperscaler_migration and shift < _MAX_SHIFT:
            delta = round(0.01 + 0.04 * rng.random(), 4)
            shift = round(min(_MAX_SHIFT, shift + delta), 4)
            mutations.append(Mutation(
                country=code, kind="hyperscaler-migration",
                detail=(("delta", delta), ("shift", shift)),
            ))
        if rng.random() < rates.soe_formation:
            soes += 1
            mutations.append(Mutation(
                country=code, kind="new-soe",
                detail=(("extra_soes", soes),),
            ))
        if rng.random() < rates.prefix_reregistration and epoch < _MAX_EPOCH:
            epoch += 1
            mutations.append(Mutation(
                country=code, kind="prefix-reregistration",
                detail=(("epoch", epoch),),
            ))

        if not mutations:
            return current, []
        mutated = CountryOverride(
            country=code,
            provider_tilt=tuple(sorted(tilts.items())),
            hyperscaler_shift=shift,
            extra_soes=soes,
            prefix_epoch=epoch,
        )
        return mutated, mutations


__all__ = ["EvolutionModel", "EvolutionRates", "EvolutionStep"]
