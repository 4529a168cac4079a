"""Construction of synthetic government site trees.

Builds :class:`~repro.websim.sites.GovernmentSite` objects whose URL
mass follows the depth distribution the paper reports (84% of unique
URLs on landing pages, 95% within one level, trees up to seven levels
deep), sprinkled with static-asset hostnames, external contractor
resources and cross-site links.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Optional, Sequence

from repro.har import HarEntry
from repro.websim.sites import GovernmentSite, Page, SiteKind

#: File extensions used for leaf resources.
_RESOURCE_EXTENSIONS = ("js", "css", "png", "jpg", "pdf", "woff2", "json")
_N_EXTENSIONS = len(_RESOURCE_EXTENSIONS)


def largest_remainder(total: int, weights: Sequence[float]) -> list[int]:
    """Apportion ``total`` integer units according to ``weights``.

    Uses the largest-remainder (Hamilton) method, so the result always
    sums exactly to ``total`` and is within one unit of proportionality.
    """
    if total < 0:
        raise ValueError("total must be non-negative")
    weight_sum = float(sum(weights))
    if weight_sum <= 0:
        raise ValueError("weights must have positive mass")
    shares = [w / weight_sum * total for w in weights]
    counts = [int(share) for share in shares]
    shortfall = total - sum(counts)
    remainders = sorted(
        range(len(weights)),
        key=lambda i: (shares[i] - counts[i], -i),
        reverse=True,
    )
    for i in remainders[:shortfall]:
        counts[i] += 1
    return counts


@dataclasses.dataclass
class SiteBuildSpec:
    """Everything needed to materialize one site's page tree."""

    hostname: str
    country: str
    kind: SiteKind
    #: URL paths of the landing pages ('/' first).
    landing_paths: list[str]
    #: Total internal-URL budget across all landing trees.
    internal_budget: int
    #: Draws one object size in bytes.
    size_sampler: Callable[[], int]
    static_hostname: Optional[str] = None
    #: External (non-government) resources per landing resource.
    external_ratio: float = 0.0
    external_hosts: Sequence[str] = ()
    geo_restricted: bool = False
    #: Extra landing-page links pointing at other sites (e.g. SAN sites).
    extra_links: Sequence[str] = ()


def _chain_depth_counts(budget: int, depth_fracs: Sequence[float]) -> list[int]:
    """Depth counts for one landing tree; deeper levels need a parent."""
    counts = largest_remainder(budget, depth_fracs)
    if counts[0] == 0 and budget > 0:
        # The landing page itself always exists.
        donor = max(range(len(counts)), key=lambda i: counts[i])
        counts[donor] -= 1
        counts[0] += 1
    for depth in range(1, len(counts)):
        if counts[depth] > 0 and counts[depth - 1] == 0:
            counts[depth - 1] = counts[depth]
            counts[depth] = 0
    return counts


def build_site(
    spec: SiteBuildSpec,
    depth_fracs: Sequence[float],
    rng: random.Random,
) -> GovernmentSite:
    """Materialize a site from its spec.

    The total number of unique government URLs contributed by the site
    equals ``spec.internal_budget`` plus one page URL per landing path.
    """
    if not spec.landing_paths:
        raise ValueError("a site needs at least one landing path")
    getrandbits, uniform = rng.getrandbits, rng.random
    draw_size, static_hostname = spec.size_sampler, spec.static_hostname
    # The picks inline ``rng.choice(options)``: draw
    # ``getrandbits(len(options).bit_length())`` until it is below
    # ``len(options)``.  tests/datagen/test_draws.py holds them to the
    # stdlib's own choices.
    extension_bits = _N_EXTENSIONS.bit_length()
    external_hosts = spec.external_hosts
    n_hosts = len(external_hosts)
    host_bits = n_hosts.bit_length()
    base = f"https://{spec.hostname}"
    pages: dict[str, Page] = {}
    path_weights = [1.0 / (index + 1) for index in range(len(spec.landing_paths))]
    budgets = largest_remainder(spec.internal_budget, path_weights)

    for path, budget in zip(spec.landing_paths, budgets):
        prefix = path if path.endswith("/") else path + "/"
        landing_url = base + path
        counts = _chain_depth_counts(budget, depth_fracs)

        # Depth-0 objects embedded in the landing page.
        embedded: list[HarEntry] = []
        for index in range(counts[0]):
            pick = getrandbits(extension_bits)
            while pick >= _N_EXTENSIONS:
                pick = getrandbits(extension_bits)
            extension = _RESOURCE_EXTENSIONS[pick]
            if static_hostname is not None and uniform() < 0.30:
                host = static_hostname
                url = f"https://{host}{prefix}assets/r{index}.{extension}"
            else:
                host = spec.hostname
                url = f"{base}{prefix}assets/r{index}.{extension}"
            embedded.append(HarEntry(url, host, draw_size()))
        # External contractor objects (discarded later by the URL filter).
        if n_hosts and spec.external_ratio > 0:
            external_count = round(spec.external_ratio * max(counts[0], 1))
            for index in range(external_count):
                pick = getrandbits(host_bits)
                while pick >= n_hosts:
                    pick = getrandbits(host_bits)
                host = external_hosts[pick]
                embedded.append(HarEntry(
                    f"https://{host}/embed/{spec.hostname}/w{index}.js",
                    host, draw_size(),
                ))

        # Internal pages, level by level.
        level_urls: dict[int, list[str]] = {0: [landing_url]}
        page_specs: list[tuple[str, int]] = []  # (url, depth)
        for depth in range(1, len(counts)):
            level_urls[depth] = [
                f"{base}{prefix}l{depth}/p{index}" for index in range(counts[depth])
            ]
            page_specs.extend((url, depth) for url in level_urls[depth])

        # Children are distributed round-robin among the previous level.
        links_of: dict[str, list[str]] = {url: [] for url, _ in page_specs}
        links_of[landing_url] = []
        for depth in range(1, len(counts)):
            parents = level_urls[depth - 1]
            if not parents:
                break
            for index, child in enumerate(level_urls[depth]):
                links_of[parents[index % len(parents)]].append(child)

        landing_links = tuple(links_of[landing_url]) + tuple(spec.extra_links)
        # A document's size is drawn after its embedded objects' sizes,
        # and internal pages' in page order: the draw order fixes the
        # bytes of every generated world.
        document = HarEntry(landing_url, spec.hostname, draw_size())
        pages[landing_url] = Page(
            url=landing_url,
            hostname=spec.hostname,
            depth=0,
            entries=(document, *embedded),
            links=landing_links,
        )
        for url, depth in page_specs:
            pages[url] = Page(
                url=url,
                hostname=spec.hostname,
                depth=depth,
                entries=(HarEntry(url, spec.hostname, draw_size()),),
                links=tuple(links_of[url]),
            )

    return GovernmentSite(
        country=spec.country,
        hostname=spec.hostname,
        landing_url=base + spec.landing_paths[0],
        kind=spec.kind,
        pages=pages,
        geo_restricted=spec.geo_restricted,
    )


__all__ = ["largest_remainder", "SiteBuildSpec", "build_site"]
