"""Text renderings of the paper's figures (stacked bars as rows)."""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.categories import CATEGORY_ORDER, HostingCategory
from repro.reporting.tables import format_fraction, render_table


def render_mix_bars(
    mixes: Mapping[str, Mapping[HostingCategory, float]],
    title: str = "",
) -> str:
    """Rows of category fractions (the Figure 2/4 stacked bars)."""
    headers = ["series"] + [str(category) for category in CATEGORY_ORDER]
    rows = [
        [name] + [format_fraction(mix[category]) for category in CATEGORY_ORDER]
        for name, mix in mixes.items()
    ]
    return render_table(headers, rows, title=title)


def render_split_bars(
    splits: Mapping[str, object],
    title: str = "",
) -> str:
    """Rows of Domestic/International splits (Figures 6/7/8)."""
    headers = ["series", "Domestic", "International"]
    rows = []
    for name, split in splits.items():
        rows.append([
            name,
            format_fraction(split.domestic),
            format_fraction(split.international),
        ])
    return render_table(headers, rows, title=title)


def render_region_table(
    values: Mapping[object, float],
    value_name: str,
    title: str = "",
) -> str:
    """One value per region in percent, descending (e.g. Table 5)."""
    headers = ["Region", value_name]
    items = sorted(values.items(), key=lambda item: -item[1])
    rows = [[str(region), f"{value * 100:.2f}"] for region, value in items]
    return render_table(headers, rows, title=title)


def render_histogram(
    labels: Sequence[str],
    counts: Sequence[int],
    title: str = "",
) -> str:
    """An ASCII histogram of ``#`` bars, the longest 50 wide (the
    Figure 10 provider counts)."""
    if len(labels) != len(counts):
        raise ValueError("labels and counts must align")
    peak = max(counts) if counts else 1
    lines = [title] if title else []
    width = max((len(label) for label in labels), default=0)
    for label, count in zip(labels, counts):
        bar = "#" * max(1, round(count / peak * 50)) if count else ""
        lines.append(f"{label.ljust(width)}  {str(count).rjust(4)}  {bar}")
    return "\n".join(lines)


__all__ = [
    "render_mix_bars",
    "render_split_bars",
    "render_region_table",
    "render_histogram",
]
