"""Tests for the full evaluation report renderer."""

import pytest

from repro.reporting.paper_report import render_paper_report


def test_report_contains_every_section(dataset, world):
    text = render_paper_report(dataset, world)
    for marker in (
        "reproduction report",
        "Trends in government hosting (Section 5)",
        "Registration and server locations (Section 6)",
        "Global providers and diversification (Section 7)",
        "Explanatory factors (Appendix E)",
        "Extensions",
        "Figure 2", "Figure 4b", "Figure 6", "Figure 8b", "Table 5",
        "Figure 10", "Figure 11", "Figure 12",
        "GDPR compliance",
        "third-party DNS",
    ):
        assert marker in text, marker


def test_report_without_world_skips_extensions(dataset):
    text = render_paper_report(dataset)
    assert "Extensions" not in text
    assert "Figure 2" in text


def test_report_is_deterministic(dataset, world):
    assert render_paper_report(dataset, world) == render_paper_report(dataset, world)


def test_package_resolves_the_report_on_first_access():
    import repro.reporting

    assert repro.reporting.render_paper_report is render_paper_report
    namespace: dict = {}
    exec("from repro.reporting import *", namespace)
    assert set(repro.reporting.__all__) <= set(namespace)
    assert namespace["render_paper_report"] is render_paper_report
    with pytest.raises(AttributeError, match="no_such_renderer"):
        repro.reporting.no_such_renderer
