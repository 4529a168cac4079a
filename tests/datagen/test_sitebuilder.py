"""Tests for site-tree construction and the largest-remainder helper."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from repro.datagen.sitebuilder import SiteBuildSpec, build_site, largest_remainder
from repro.websim.sites import SiteKind

_DEPTHS = (0.84, 0.11, 0.025, 0.012, 0.006, 0.004, 0.002, 0.001)


def test_largest_remainder_exact_total():
    counts = largest_remainder(10, [1, 1, 1])
    assert sum(counts) == 10
    assert sorted(counts) == [3, 3, 4]


def test_largest_remainder_zero_total():
    assert largest_remainder(0, [1, 2]) == [0, 0]


def test_largest_remainder_rejects_bad_input():
    with pytest.raises(ValueError):
        largest_remainder(-1, [1])
    with pytest.raises(ValueError):
        largest_remainder(5, [0, 0])


@given(
    st.integers(min_value=0, max_value=5000),
    st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=20),
)
def test_largest_remainder_properties(total, weights):
    counts = largest_remainder(total, weights)
    assert sum(counts) == total
    assert all(c >= 0 for c in counts)
    # Within one unit of exact proportionality.
    weight_sum = sum(weights)
    for count, weight in zip(counts, weights):
        assert abs(count - total * weight / weight_sum) <= 1.0 + 1e-9


def _build(budget=200, paths=None, **kwargs):
    spec = SiteBuildSpec(
        hostname="www.health.gov.br",
        country="BR",
        kind=SiteKind.MINISTRY,
        landing_paths=paths or ["/"],
        internal_budget=budget,
        size_sampler=lambda: 1000,
        **kwargs,
    )
    return build_site(spec, _DEPTHS, random.Random(5))


def test_site_url_budget_is_exact():
    site = _build(budget=200)
    # budget + one page URL per landing path
    assert len(site.unique_urls()) == 201


def test_landing_page_first_entry_is_its_document():
    site = _build(budget=50, static_hostname="static.health.gov.br")
    landing = site.landing_page()
    assert landing.entries[0] == (landing.url, "www.health.gov.br", 1000)
    assert all(page.entries[0].url == page.url for page in site.iter_pages())


def test_document_sizes_are_drawn_after_embedded_objects():
    """The draw order fixes every generated world's bytes: a landing
    document's size comes after its embedded objects', and internal
    pages' after it, in page order."""
    draws = itertools.count()
    spec = SiteBuildSpec(
        hostname="www.health.gov.br", country="BR", kind=SiteKind.MINISTRY,
        landing_paths=["/"], internal_budget=200,
        size_sampler=lambda: next(draws), external_ratio=0.1,
        external_hosts=("cdn1.contractor.com",),
    )
    site = build_site(spec, _DEPTHS, random.Random(5))
    landing = site.landing_page()
    embedded = [entry.size_bytes for entry in landing.entries[1:]]
    assert embedded == list(range(len(embedded)))
    assert landing.entries[0].size_bytes == len(embedded)
    internal = [page.entries[0].size_bytes for page in site.iter_pages()
                if page.depth > 0]
    assert internal == list(range(len(embedded) + 1,
                                  len(embedded) + 1 + len(internal)))


def test_site_depth_distribution_shape():
    site = _build(budget=1000)
    landing = site.landing_page()
    depth0 = len(landing.entries)
    assert depth0 / 1001 == pytest.approx(0.84, abs=0.03)
    assert site.max_depth <= 7


def test_multi_landing_paths():
    site = _build(budget=300, paths=["/", "/portal1/", "/portal2/"])
    depth0_pages = [p for p in site.pages.values() if p.depth == 0]
    assert len(depth0_pages) == 3
    assert len(site.unique_urls()) == 303


def test_every_deep_page_is_linked_from_previous_level():
    site = _build(budget=2000)
    linked = set()
    for page in site.pages.values():
        linked.update(page.links)
    for page in site.pages.values():
        if page.depth > 0:
            assert page.url in linked


def test_static_hostname_receives_resources():
    site = _build(budget=500, static_hostname="static.health.gov.br")
    hosts = {e.hostname for p in site.pages.values() for e in p.entries}
    assert "static.health.gov.br" in hosts


def test_external_resources_added_on_top_of_budget():
    site = _build(budget=500, external_ratio=0.1,
                  external_hosts=("cdn1.contractor.com",))
    external = [
        e for p in site.pages.values() for e in p.entries
        if e.hostname == "cdn1.contractor.com"
    ]
    assert external
    own = site.unique_urls() - {e.url for e in external}
    assert len(own) == 501


def test_extra_links_attached_to_landing():
    site = _build(budget=50, extra_links=("https://other.example/",))
    assert "https://other.example/" in site.landing_page().links


def test_empty_landing_paths_rejected():
    spec = SiteBuildSpec(
        hostname="h", country="BR", kind=SiteKind.AGENCY,
        landing_paths=[], internal_budget=1, size_sampler=lambda: 1,
    )
    with pytest.raises(ValueError):
        build_site(spec, _DEPTHS, random.Random(1))


def test_tiny_budget_site():
    site = _build(budget=1)
    assert len(site.unique_urls()) == 2
