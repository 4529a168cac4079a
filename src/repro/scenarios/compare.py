"""Comparative analysis of a swept scenario matrix against its baseline.

Per scenario, quantifies how the perturbation moved the paper's core
findings:

* **geolocation-verdict flips** — hostnames whose measured server
  country changed (computed only over the countries the scenario
  actually re-keyed; unchanged countries share the baseline's partial
  objects, so they cannot diverge);
* **category-mix deltas** — global URL-share change per hosting
  category plus the aggregate third-party share delta;
* **HHI shifts** — mean per-country serving-network concentration
  change and the biggest per-country movers;
* **outage blast radius** — for outage what-ifs, the countries losing
  more than 10% of their government URLs when the provider's ASNs go
  dark, via :mod:`repro.analysis.resilience` over the shared dataset.

Scenarios that share the baseline's run fingerprint share its dataset
object, so ``ensure_index`` builds one index for the whole group — a
sweep's comparison cost scales with *distinct* datasets, not scenarios.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.analysis.engine.index import CATEGORIES, ensure_index
from repro.analysis.diversification import country_network_hhi
from repro.analysis.resilience import outage_impact
from repro.core.dataset import GovernmentHostingDataset
from repro.scenarios.runner import ScenarioResult, SweepResult

#: A country must lose more than this URL share to count as affected
#: by an outage (the resilience analysis' threshold).
OUTAGE_THRESHOLD = 0.10

#: Per-country HHI movers a divergence lists.
TOP_MOVERS = 5


@dataclasses.dataclass(frozen=True)
class OutageBlastRadius:
    """Impact summary of one outage what-if."""

    asns: tuple[int, ...]
    names: tuple[str, ...]
    #: Countries losing > 10% of URLs, worst first.
    affected: tuple[tuple[str, float], ...]
    #: Mean URL share lost among affected countries.
    mean_share_lost: float

    @property
    def affected_count(self) -> int:
        return len(self.affected)

    @property
    def worst(self) -> Optional[tuple[str, float]]:
        return self.affected[0] if self.affected else None

    def to_dict(self) -> dict:
        return {
            "asns": list(self.asns),
            "names": list(self.names),
            "affected": [[code, round(share, 6)] for code, share in self.affected],
            "affected_count": self.affected_count,
            "mean_share_lost": round(self.mean_share_lost, 6),
        }


@dataclasses.dataclass(frozen=True)
class ScenarioDivergence:
    """How one scenario's measurement diverges from the baseline."""

    name: str
    kind: str
    description: str
    #: Countries the scenario re-keyed (empty = byte-identical world).
    changed_countries: tuple[str, ...]
    #: The scenario's dataset is the baseline's object (no divergence
    #: possible; outage what-ifs by construction).
    identical_dataset: bool
    #: Hostnames whose measured server country flipped.
    verdict_flips: int
    #: Per-country flip counts, sorted by count descending then code.
    flips_by_country: tuple[tuple[str, int], ...]
    #: Global URL-share delta per hosting category (scenario - baseline).
    category_deltas: tuple[tuple[str, float], ...]
    #: Aggregate third-party (3P Local + Regional + Global) share delta.
    third_party_delta: float
    #: Mean per-country serving-network HHI delta.
    hhi_mean_delta: float
    #: The :data:`TOP_MOVERS` largest absolute per-country HHI movers,
    #: biggest first.
    hhi_top_movers: tuple[tuple[str, float], ...]
    #: Blast radius, for outage scenarios only.
    outage: Optional[OutageBlastRadius] = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "changed_countries": list(self.changed_countries),
            "identical_dataset": self.identical_dataset,
            "verdict_flips": self.verdict_flips,
            "flips_by_country": [
                [code, count] for code, count in self.flips_by_country
            ],
            "category_deltas": [
                [label, round(delta, 6)] for label, delta in self.category_deltas
            ],
            "third_party_delta": round(self.third_party_delta, 6),
            "hhi_mean_delta": round(self.hhi_mean_delta, 6),
            "hhi_top_movers": [
                [code, round(delta, 6)] for code, delta in self.hhi_top_movers
            ],
            "outage": self.outage.to_dict() if self.outage else None,
        }


def _server_countries(
    dataset: GovernmentHostingDataset, code: str
) -> dict[str, str]:
    """Measured server country per hostname of one country's slice.

    Read from the host rows in URL order: a hostname whose URLs
    disagree has several rows, and the row of its last URL wins.
    """
    country = dataset.countries.get(code)
    if country is None:
        return {}
    table = country.host_table
    rows = map(table.hosts.__getitem__, table.host_index)
    return {row.hostname: row.server_country for row in rows}


def _category_shares(dataset: GovernmentHostingDataset) -> dict[str, float]:
    """Global URL share per category label (0.0 for empty datasets)."""
    index = ensure_index(dataset)
    url_totals, _ = index.global_category_counts()
    total = sum(url_totals)
    return {
        category.value: (url_totals[i] / total if total else 0.0)
        for i, category in enumerate(CATEGORIES)
    }


def compare_scenario(
    result: ScenarioResult,
    baseline: ScenarioResult,
) -> ScenarioDivergence:
    """Divergence of one swept scenario from the sweep's baseline."""
    scenario = result.scenario
    identical = result.dataset is baseline.dataset

    flips_by_country: list[tuple[str, int]] = []
    verdict_flips = 0
    if not identical:
        # Only re-keyed countries can diverge: unchanged ones were fanned
        # out from the very same partial objects.
        for code in result.changed_countries:
            base_verdicts = _server_countries(baseline.dataset, code)
            new_verdicts = _server_countries(result.dataset, code)
            flips = sum(
                1 for hostname, server in new_verdicts.items()
                if hostname in base_verdicts
                and base_verdicts[hostname] != server
            )
            if flips:
                flips_by_country.append((code, flips))
                verdict_flips += flips
        flips_by_country.sort(key=lambda item: (-item[1], item[0]))

    if identical:
        category_deltas = tuple(
            (category.value, 0.0) for category in CATEGORIES
        )
        third_party_delta = 0.0
        hhi_mean_delta = 0.0
        hhi_movers: tuple[tuple[str, float], ...] = ()
    else:
        base_shares = _category_shares(baseline.dataset)
        new_shares = _category_shares(result.dataset)
        category_deltas = tuple(
            (category.value,
             new_shares[category.value] - base_shares[category.value])
            for category in CATEGORIES
        )
        third_party_delta = sum(
            delta for label, delta in category_deltas
            if label != "Govt&SOE"
        )
        base_hhi = country_network_hhi(baseline.dataset)
        new_hhi = country_network_hhi(result.dataset)
        shared = sorted(set(base_hhi) & set(new_hhi))
        deltas = {code: new_hhi[code] - base_hhi[code] for code in shared}
        hhi_mean_delta = (
            sum(deltas.values()) / len(deltas) if deltas else 0.0
        )
        hhi_movers = tuple(sorted(
            ((code, delta) for code, delta in deltas.items() if delta),
            key=lambda item: (-abs(item[1]), item[0]),
        )[:TOP_MOVERS])

    outage = None
    if scenario.outage_asns:
        # Blast radius is computed over the scenario's (shared) dataset;
        # multiple ASNs compound by taking each country's worst loss.
        worst_loss: dict[str, float] = {}
        for asn in scenario.outage_asns:
            for code, impact in outage_impact(result.dataset, asn).items():
                if impact.url_share_lost > worst_loss.get(code, 0.0):
                    worst_loss[code] = impact.url_share_lost
        affected = tuple(sorted(
            ((code, share) for code, share in worst_loss.items()
             if share > OUTAGE_THRESHOLD),
            key=lambda item: (-item[1], item[0]),
        ))
        mean_lost = (
            sum(share for _, share in affected) / len(affected)
            if affected else 0.0
        )
        outage = OutageBlastRadius(
            asns=scenario.outage_asns,
            names=scenario.outage_names,
            affected=affected,
            mean_share_lost=mean_lost,
        )

    return ScenarioDivergence(
        name=scenario.name,
        kind=scenario.kind,
        description=scenario.description,
        changed_countries=result.changed_countries,
        identical_dataset=identical,
        verdict_flips=verdict_flips,
        flips_by_country=tuple(flips_by_country),
        category_deltas=category_deltas,
        third_party_delta=third_party_delta,
        hhi_mean_delta=hhi_mean_delta,
        hhi_top_movers=hhi_movers,
        outage=outage,
    )


def compare_sweep(sweep: SweepResult) -> tuple[ScenarioDivergence, ...]:
    """Divergence of every non-baseline scenario, in sweep order."""
    baseline = sweep.baseline
    return tuple(
        compare_scenario(result, baseline) for result in sweep.results[1:]
    )


__all__ = [
    "OUTAGE_THRESHOLD",
    "TOP_MOVERS",
    "OutageBlastRadius",
    "ScenarioDivergence",
    "compare_scenario",
    "compare_sweep",
]
