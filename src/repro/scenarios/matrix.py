"""Declarative scenario matrices.

A :class:`ScenarioMatrix` starts from one baseline
:class:`~repro.datagen.config.WorldConfig` and adds perturbation axes:

* **faults** — run the same world over an unreliable measurement plane
  (a :mod:`repro.faults` profile at some rate, e.g. the ``dns`` profile
  for authoritative-DNS stress);
* **outage** — a provider-outage what-if: the *measured* world is the
  baseline's (same config, so the sweep shares its scans and dataset
  outright) and :mod:`repro.analysis.resilience` quantifies the blast
  radius of the named provider's ASNs going dark;
* **evolution** — an evolved snapshot (``EvolutionModel`` steps applied
  to the baseline), where only mutated countries re-key.

There is no vantage axis: every scan connects at the country's capital
VPN exit (:mod:`repro.measure.vpn` says why).

:meth:`ScenarioMatrix.compile` freezes the matrix into a baseline-first
tuple of :class:`Scenario` objects — pure configs plus outage metadata
— which is all the :class:`~repro.scenarios.runner.SweepRunner` needs:
every deduplication decision falls out of the configs' cache
fingerprints, never out of scenario *kinds*.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Optional

from repro.datagen.config import WorldConfig
from repro.evolve import EvolutionModel, EvolutionRates
from repro.faults.plan import FAULT_PROFILE_NAMES
from repro.netsim.providers import PROVIDERS_BY_KEY, provider_keys

#: The reserved name of the implicit first scenario.
BASELINE_NAME = "baseline"

#: Every scenario kind a matrix can hold.
SCENARIO_KINDS = ("baseline", "faults", "outage", "evolution")


class MatrixError(ValueError):
    """A scenario matrix is malformed (bad kind, name, or parameter)."""


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One compiled cell of the matrix: a name bound to a full config.

    ``config`` alone decides what gets scanned (and deduplicated);
    ``outage_asns`` only parameterize the post-hoc resilience analysis
    of an outage what-if, whose measured world is the baseline's.
    """

    name: str
    kind: str
    config: WorldConfig
    description: str = ""
    #: ASNs taken offline in an ``outage`` scenario's analysis.
    outage_asns: tuple[int, ...] = ()
    #: Display names matching ``outage_asns``.
    outage_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SCENARIO_KINDS:
            raise MatrixError(
                f"unknown scenario kind {self.kind!r}; expected one of "
                f"{', '.join(SCENARIO_KINDS)}"
            )
        if not self.name or "\n" in self.name:
            raise MatrixError(f"invalid scenario name {self.name!r}")


class ScenarioMatrix:
    """Baseline config + perturbation axes, compiled to scenarios."""

    def __init__(self, base: WorldConfig) -> None:
        self.base = base
        self._scenarios: list[Scenario] = []
        self._names: set[str] = {BASELINE_NAME}

    # ------------------------------------------------------------- axes

    def _add(self, scenario: Scenario) -> Scenario:
        if scenario.name in self._names:
            raise MatrixError(f"duplicate scenario name {scenario.name!r}")
        self._names.add(scenario.name)
        self._scenarios.append(scenario)
        return scenario

    def add_faults(
        self,
        name: str,
        rate: float,
        profile: str = "mixed",
        fault_seed: Optional[int] = None,
    ) -> Scenario:
        """Run the baseline world over an unreliable measurement plane."""
        if profile not in FAULT_PROFILE_NAMES:
            raise MatrixError(
                f"unknown fault profile {profile!r}; expected one of "
                f"{', '.join(FAULT_PROFILE_NAMES)}"
            )
        if not 0.0 < rate <= 1.0:
            raise MatrixError(
                f"fault scenarios need a rate in (0, 1], got {rate}"
            )
        config = dataclasses.replace(
            self.base, fault_rate=rate, fault_profile=profile,
            fault_seed=fault_seed,
        )
        return self._add(Scenario(
            name=name, kind="faults", config=config,
            description=f"{profile} faults at rate {rate:g}",
        ))

    def add_outage(
        self,
        name: str,
        provider: Optional[str] = None,
        asn: Optional[int] = None,
    ) -> Scenario:
        """A provider-outage what-if over the *baseline* measurement.

        Costs no extra scans: the measured world is byte-identical to
        the baseline's, and the comparison layer computes the blast
        radius of the provider's ASNs from the shared dataset.
        """
        if (provider is None) == (asn is None):
            raise MatrixError(
                "outage scenarios take exactly one of provider= or asn="
            )
        if provider is not None:
            spec = PROVIDERS_BY_KEY.get(provider)
            if spec is None:
                raise MatrixError(
                    f"unknown provider {provider!r}; expected one of "
                    f"{', '.join(provider_keys())}"
                )
            asns, names = (spec.asn,), (spec.name,)
            label = spec.name
        else:
            asns, names = (int(asn),), (f"AS{asn}",)
            label = f"AS{asn}"
        return self._add(Scenario(
            name=name, kind="outage", config=self.base,
            description=f"outage of {label}",
            outage_asns=asns, outage_names=names,
        ))

    def add_evolution(
        self,
        name: str,
        steps: int = 1,
        seed: Optional[int] = None,
        rates: Optional[EvolutionRates] = None,
    ) -> Scenario:
        """An evolved snapshot ``steps`` mutations ahead of the baseline."""
        if steps < 1:
            raise MatrixError(f"evolution needs steps >= 1, got {steps}")
        model = EvolutionModel(
            seed if seed is not None else self.base.seed, rates
        )
        config = self.base
        for step in range(1, steps + 1):
            config = model.evolve(config, step).config
        return self._add(Scenario(
            name=name, kind="evolution", config=config,
            description=f"evolved {steps} step{'s' if steps != 1 else ''}",
        ))

    # ---------------------------------------------------------- compile

    def compile(self) -> tuple[Scenario, ...]:
        """Freeze the matrix: the baseline scenario first, then the
        perturbations in the order they were added."""
        baseline = Scenario(
            name=BASELINE_NAME, kind="baseline", config=self.base,
            description="unperturbed base configuration",
        )
        return (baseline, *self._scenarios)

    def __len__(self) -> int:
        """Scenario count including the implicit baseline."""
        return 1 + len(self._scenarios)

    # ------------------------------------------------------ declarative

    @classmethod
    def from_dict(
        cls, data: dict, base: Optional[WorldConfig] = None
    ) -> "ScenarioMatrix":
        """Build a matrix from its JSON form.

        Schema::

            {"base": {...WorldConfig field overrides...},
             "scenarios": [
               {"name": "...", "kind": "faults",
                "rate": 0.05, "profile": "dns", "fault_seed": null},
               {"name": "...", "kind": "outage",
                "provider": "amazon"}            # or {"asn": 16509}
               {"name": "...", "kind": "evolution",
                "steps": 1, "seed": null, "rates": {...}},
             ]}

        ``base`` field overrides apply on top of the given ``base``
        config (or a default :class:`WorldConfig` when None).
        """
        if not isinstance(data, dict):
            raise MatrixError("matrix document must be a JSON object")
        base_fields = data.get("base", {})
        if not isinstance(base_fields, dict):
            raise MatrixError("matrix 'base' must be an object")
        try:
            if base_fields:
                base = dataclasses.replace(
                    base if base is not None else WorldConfig(),
                    **base_fields,
                )
            elif base is None:
                base = WorldConfig()
        except (TypeError, ValueError) as error:
            raise MatrixError(f"bad matrix base config: {error}") from error
        matrix = cls(base)
        entries = data.get("scenarios", [])
        if not isinstance(entries, list):
            raise MatrixError("matrix 'scenarios' must be a list")
        for position, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise MatrixError(f"scenario #{position} must be an object")
            kind = entry.get("kind")
            name = entry.get("name")
            if not isinstance(name, str) or not name:
                raise MatrixError(f"scenario #{position} needs a name")
            try:
                if kind == "faults":
                    seed = entry.get("fault_seed")
                    matrix.add_faults(
                        name,
                        rate=float(entry["rate"]),
                        profile=entry.get("profile", "mixed"),
                        fault_seed=None if seed is None else int(seed),
                    )
                elif kind == "outage":
                    asn = entry.get("asn")
                    matrix.add_outage(
                        name,
                        provider=entry.get("provider"),
                        asn=None if asn is None else int(asn),
                    )
                elif kind == "evolution":
                    rates = entry.get("rates")
                    seed = entry.get("seed")
                    matrix.add_evolution(
                        name,
                        steps=int(entry.get("steps", 1)),
                        seed=None if seed is None else int(seed),
                        rates=(
                            EvolutionRates(**rates)
                            if isinstance(rates, dict) else None
                        ),
                    )
                else:
                    raise MatrixError(
                        f"scenario {name!r} has unknown kind {kind!r}; "
                        f"expected one of "
                        f"{', '.join(k for k in SCENARIO_KINDS if k != 'baseline')}"
                    )
            except MatrixError:
                raise
            except KeyError as error:
                raise MatrixError(
                    f"scenario {name!r} is missing field {error}"
                ) from error
            except (TypeError, ValueError) as error:
                raise MatrixError(
                    f"scenario {name!r} is malformed: {error}"
                ) from error
        return matrix

    @classmethod
    def from_json(
        cls, text: str, base: Optional[WorldConfig] = None
    ) -> "ScenarioMatrix":
        """Parse :meth:`from_dict`'s schema from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise MatrixError(f"matrix is not valid JSON: {error}") from error
        return cls.from_dict(data, base=base)


__all__ = [
    "BASELINE_NAME",
    "SCENARIO_KINDS",
    "MatrixError",
    "Scenario",
    "ScenarioMatrix",
]
