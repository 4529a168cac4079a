"""Gathering government websites (Section 3.1).

The paper compiles per-country lists of federal-level landing pages
from official digital directories (ministries, decentralized agencies,
and SOEs with >50% federal ownership).  In the simulator those
directories are the ones the synthetic governments publish
(``truth.directories``); this module wraps them behind the interface
the rest of the pipeline uses and derives the hostname whitelist used
by the domain-matching filter step.
"""

from __future__ import annotations

import dataclasses
import functools

from repro.urltools import hostname_of


@dataclasses.dataclass(frozen=True)
class GovernmentDirectory:
    """The curated list of landing URLs for one country."""

    country: str
    landing_urls: tuple[str, ...]

    @functools.cached_property
    def hostnames(self) -> frozenset[str]:
        """Hostnames appearing in the directory (for domain matching).

        Computed once per directory; the URL filter consults it for
        every crawled hostname, so re-parsing the landing URLs on each
        access was a measurable hot path.
        """
        return frozenset(hostname_of(url) for url in self.landing_urls)

    @property
    def landing_count(self) -> int:
        """Number of landing URLs (the Table 8 'Landing URLs' column)."""
        return len(self.landing_urls)

    def __len__(self) -> int:
        return len(self.landing_urls)


def compile_directory(world, country_code: str) -> GovernmentDirectory:
    """Compile the directory for one country from its published sources.

    ``world`` is a :class:`~repro.datagen.generator.SyntheticWorld`; the
    directory corresponds to the self-reported government listings the
    paper collects (and shares their main limitation: inclusion criteria
    vary by country).  A country the world did not generate raises
    :class:`ValueError` rather than scanning as an empty partial.
    """
    code = country_code.upper()
    urls = world.truth.directories.get(code)
    if urls is None:
        raise ValueError(f"this world did not generate country {code}")
    return GovernmentDirectory(country=code, landing_urls=tuple(urls))


__all__ = ["GovernmentDirectory", "compile_directory"]
