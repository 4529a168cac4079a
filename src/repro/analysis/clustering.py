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

from repro.categories import CATEGORY_ORDER, HostingCategory
from repro.core.dataset import GovernmentHostingDataset


def country_signatures(
    dataset: GovernmentHostingDataset, by_bytes: bool = False
) -> tuple[list[str], np.ndarray]:
    """Country codes plus the signature matrix (rows sum to 1).

    Column order follows :data:`~repro.categories.CATEGORY_ORDER`.
    """
    codes: list[str] = []
    rows: list[list[float]] = []
    for code, country_dataset in sorted(dataset.countries.items()):
        if not country_dataset.records:
            continue
        mix = (
            country_dataset.category_byte_fractions()
            if by_bytes
            else country_dataset.category_url_fractions()
        )
        codes.append(code)
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
