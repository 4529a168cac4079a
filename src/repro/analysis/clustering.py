"""Country-similarity clustering (Section 5.3, Figure 5).

Each country's serving strategy is summarized as a 4-dimensional
signature (its URL or byte fractions over the hosting categories);
Hierarchical Agglomerative Clustering with Ward linkage groups the
signatures, yielding the three-branch dendrograms of Figure 5 whose
main branches correspond to the dominant hosting source.

``scipy.cluster`` is imported inside the functions that call it, so
importing this module (every ``repro-gov`` command does, through
``repro.analysis``) does not load scipy.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.engine.index import DatasetOrIndex, ensure_index
from repro.analysis.hosting import fractions_of_counts
from repro.categories import CATEGORY_ORDER, HostingCategory


def country_signatures(
    dataset: DatasetOrIndex, by_bytes: bool = False
) -> tuple[list[str], np.ndarray]:
    """Country codes (sorted; countries with URLs only) plus the
    signature matrix (rows sum to 1).

    Column order follows :data:`~repro.categories.CATEGORY_ORDER`.
    """
    counts = ensure_index(dataset).category_counts()
    codes = sorted(counts)
    rows = []
    for code in codes:
        url_counts, byte_sums = counts[code]
        mix = fractions_of_counts(byte_sums if by_bytes else url_counts)
        rows.append([mix[category] for category in CATEGORY_ORDER])
    return codes, np.array(rows, dtype=float)


def ward_linkage(signatures: np.ndarray) -> np.ndarray:
    """Ward-distance HCA linkage matrix over signature rows."""
    if len(signatures) < 2:
        raise ValueError("clustering needs at least two countries")
    from scipy.cluster import hierarchy

    return hierarchy.linkage(signatures, method="ward")


def cluster_assignments(
    codes: list[str], linkage: np.ndarray, n_clusters: int = 3
) -> dict[str, int]:
    """Flat cluster labels (1-based) after cutting the dendrogram."""
    from scipy.cluster import hierarchy

    labels = hierarchy.fcluster(linkage, t=n_clusters, criterion="maxclust")
    return dict(zip(codes, (int(label) for label in labels)))


def dominant_category_of_cluster(
    codes: list[str],
    signatures: np.ndarray,
    assignments: dict[str, int],
    cluster: int,
) -> HostingCategory:
    """The category dominating a cluster's mean signature.

    The paper observes each dendrogram branch corresponds to a principal
    hosting source; this makes that correspondence explicit.
    """
    member_rows = [
        signatures[index]
        for index, code in enumerate(codes)
        if assignments[code] == cluster
    ]
    if not member_rows:
        raise ValueError(f"cluster {cluster} has no members")
    mean = np.mean(member_rows, axis=0)
    return CATEGORY_ORDER[int(np.argmax(mean))]


def dendrogram_order(linkage: np.ndarray, codes: list[str]) -> list[str]:
    """Leaf ordering of the dendrogram (the x-axis of Figure 5)."""
    from scipy.cluster import hierarchy

    order = hierarchy.leaves_list(linkage)
    return [codes[index] for index in order]


__all__ = [
    "country_signatures",
    "ward_linkage",
    "cluster_assignments",
    "dominant_category_of_cluster",
    "dendrogram_order",
]
