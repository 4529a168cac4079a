"""Longitudinal trend analysis over N measurement snapshots (extension).

The paper's predecessor (Kumar et al., "Each at Its Own Pace") measured
third-party dependency twice a year apart and found it *increasing*
across countries.  This module generalizes that two-snapshot delta into
a trend engine over any number of snapshots — e.g. a
:class:`~repro.evolve.SnapshotSeries` run — computing:

* **centralization drift** — per-country serving-network HHI series and
  the sample-mean HHI curve (is hosting concentrating?);
* **category migration flows** — countries whose dominant byte source
  moved between Govt&SOE / third-party local / third-party global
  between adjacent snapshots (who left self-hosting for the cloud?);
* **provider consolidation** — the Global-provider census per snapshot:
  how many providers, how many country relationships, and how large a
  share the biggest provider holds.

The original two-snapshot API (:func:`compare_snapshots`,
:func:`trend_summary`) remains; a country present in only one snapshot
has no delta and is skipped.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence

from repro.analysis.diversification import country_network_hhi
from repro.analysis.engine.index import DatasetOrIndex, ensure_index
from repro.analysis.hosting import fractions_of_counts
from repro.analysis.providers import global_provider_footprints
from repro.categories import HostingCategory

@dataclasses.dataclass(frozen=True)
class CountryDelta:
    """Change in one country's third-party reliance between snapshots."""

    country: str
    third_party_before: float
    third_party_after: float

    @property
    def delta(self) -> float:
        return self.third_party_after - self.third_party_before


def _third_party_share_of_counts(url_counts: Sequence[int]) -> float:
    mix = fractions_of_counts(url_counts)
    return sum(share for cat, share in mix.items() if cat.is_third_party)


def _third_party_shares(snapshot: DatasetOrIndex) -> dict[str, float]:
    """Per-country third-party URL share (countries with records only)."""
    index = ensure_index(snapshot)
    return {
        code: _third_party_share_of_counts(url_counts)
        for code, (url_counts, _) in index.category_counts().items()
        if sum(url_counts)
    }


def compare_snapshots(
    before: DatasetOrIndex,
    after: DatasetOrIndex,
) -> dict[str, CountryDelta]:
    """Per-country third-party URL-share deltas between two snapshots.

    A country measured in only one snapshot — absent from the other, or
    present with zero records (fully faulted) — never raises: it is
    omitted, as it has no delta.
    """
    before_shares = _third_party_shares(before)
    after_shares = _third_party_shares(after)
    return {
        code: CountryDelta(
            country=code,
            third_party_before=before_shares[code],
            third_party_after=after_shares[code],
        )
        for code in sorted(set(before_shares) & set(after_shares))
    }


def trend_summary(deltas: dict[str, CountryDelta]) -> dict[str, float]:
    """Aggregate trend: mean delta and the share of countries increasing.

    Snapshots with no overlapping measured countries yield the
    well-defined empty trend (all zeros) rather than an exception.
    """
    if not deltas:
        return {"mean_delta": 0.0, "share_increasing": 0.0, "countries": 0.0}
    values = [d.delta for d in deltas.values()]
    increasing = sum(1 for v in values if v > 0)
    return {
        "mean_delta": sum(values) / len(values),
        "share_increasing": increasing / len(values),
        "countries": float(len(values)),
    }


# ===================================================== N-snapshot trends

@dataclasses.dataclass(frozen=True)
class TrendPoint:
    """One snapshot's position on the aggregate trend curves."""

    label: str
    #: Countries with records in this snapshot.
    countries: int
    #: Sample-mean third-party URL share.
    mean_third_party_share: float
    #: Sample-mean serving-network HHI (centralization).
    mean_hhi: float
    #: Global providers measured in this snapshot.
    provider_count: int
    #: (provider, country) reliance relationships in this snapshot.
    provider_relationships: int
    #: Share of those relationships the single largest provider holds —
    #: the consolidation curve's y-axis.
    top_provider_share: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class CategoryMigration:
    """One country's dominant byte source moving between snapshots."""

    country: str
    from_label: str
    to_label: str
    from_category: str
    to_category: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass(frozen=True)
class TrendReport:
    """The full longitudinal rendering of an N-snapshot series."""

    labels: tuple[str, ...]
    points: tuple[TrendPoint, ...]
    #: Per-country HHI per snapshot; None where the country had no
    #: records in that snapshot.
    hhi_series: dict[str, tuple[Optional[float], ...]]
    #: Per-country third-party URL share per snapshot (None as above).
    third_party_series: dict[str, tuple[Optional[float], ...]]
    #: Dominant-category changes between adjacent snapshots.
    migrations: tuple[CategoryMigration, ...]

    @property
    def snapshot_count(self) -> int:
        return len(self.labels)

    @property
    def hhi_drift(self) -> float:
        """Mean-HHI change from the first snapshot to the last."""
        if len(self.points) < 2:
            return 0.0
        return self.points[-1].mean_hhi - self.points[0].mean_hhi

    @property
    def third_party_drift(self) -> float:
        """Mean third-party-share change from first to last snapshot."""
        if len(self.points) < 2:
            return 0.0
        return (self.points[-1].mean_third_party_share
                - self.points[0].mean_third_party_share)

    def to_dict(self) -> dict:
        """JSON-ready rendering (the ``trends`` endpoint's payload)."""
        return {
            "labels": list(self.labels),
            "points": [point.to_dict() for point in self.points],
            "hhi_drift": self.hhi_drift,
            "third_party_drift": self.third_party_drift,
            "hhi_series": {code: list(series)
                           for code, series in self.hhi_series.items()},
            "third_party_series": {
                code: list(series)
                for code, series in self.third_party_series.items()
            },
            "migrations": [m.to_dict() for m in self.migrations],
        }


def _dominant_categories(snapshot: DatasetOrIndex) -> dict[str, str]:
    """Per-country dominant byte source, measured countries only."""
    index = ensure_index(snapshot)
    result: dict[str, str] = {}
    for code, (_, byte_counts) in index.category_counts().items():
        mix = fractions_of_counts(byte_counts)
        if not any(mix.values()):
            continue
        best = max(mix.values())
        for category in HostingCategory:
            if mix.get(category, 0.0) == best:
                result[code] = str(category)
                break
    return result


def compute_trends(
    snapshots: Sequence[DatasetOrIndex],
    labels: Optional[Sequence[str]] = None,
) -> TrendReport:
    """Build the :class:`TrendReport` of an ordered snapshot series.

    ``labels`` defaults to "T+0", "T+1", ...; a single snapshot yields
    the degenerate but well-formed one-point report (no migrations, no
    drift).
    """
    if not snapshots:
        raise ValueError("compute_trends requires at least one snapshot")
    if labels is None:
        labels = tuple(f"T+{i}" for i in range(len(snapshots)))
    else:
        labels = tuple(labels)
        if len(labels) != len(snapshots):
            raise ValueError(
                f"{len(snapshots)} snapshots but {len(labels)} labels"
            )
    indexes = [ensure_index(snapshot) for snapshot in snapshots]

    per_snapshot_hhi = [country_network_hhi(index) for index in indexes]
    per_snapshot_share = [_third_party_shares(index) for index in indexes]
    per_snapshot_dominant = [_dominant_categories(index) for index in indexes]

    points = []
    for label, index, hhi_map, share_map in zip(
        labels, indexes, per_snapshot_hhi, per_snapshot_share
    ):
        footprints = global_provider_footprints(index)
        relationships = sum(fp.country_count for fp in footprints)
        points.append(TrendPoint(
            label=label,
            countries=len(share_map),
            mean_third_party_share=(
                sum(share_map.values()) / len(share_map) if share_map else 0.0
            ),
            mean_hhi=(
                sum(hhi_map.values()) / len(hhi_map) if hhi_map else 0.0
            ),
            provider_count=len(footprints),
            provider_relationships=relationships,
            top_provider_share=(
                footprints[0].country_count / relationships
                if relationships else 0.0
            ),
        ))

    codes = sorted(set().union(*per_snapshot_share)) \
        if per_snapshot_share else []
    hhi_series = {
        code: tuple(hhi_map.get(code) for hhi_map in per_snapshot_hhi)
        for code in codes
    }
    third_party_series = {
        code: tuple(share_map.get(code) for share_map in per_snapshot_share)
        for code in codes
    }

    migrations = []
    for position in range(1, len(indexes)):
        before = per_snapshot_dominant[position - 1]
        after = per_snapshot_dominant[position]
        for code in sorted(set(before) & set(after)):
            if before[code] != after[code]:
                migrations.append(CategoryMigration(
                    country=code,
                    from_label=labels[position - 1],
                    to_label=labels[position],
                    from_category=before[code],
                    to_category=after[code],
                ))

    return TrendReport(
        labels=labels,
        points=tuple(points),
        hhi_series=hhi_series,
        third_party_series=third_party_series,
        migrations=tuple(migrations),
    )


__all__ = [
    "CategoryMigration",
    "CountryDelta",
    "TrendPoint",
    "TrendReport",
    "compare_snapshots",
    "compute_trends",
    "trend_summary",
]
