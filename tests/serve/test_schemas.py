"""Request-schema validation: structurally bad input never reaches the
service, and every rejection carries a stable code + offending field."""

from __future__ import annotations

import pytest

from repro.serve import RequestError
from repro.serve.schemas import (
    QUERY_ENDPOINTS,
    CategoryMixRequest,
    CrossborderRequest,
    ProvidersRequest,
    ReportRequest,
    SummaryRequest,
)


def _error(schema, payload) -> RequestError:
    with pytest.raises(RequestError) as excinfo:
        schema.from_mapping(payload)
    return excinfo.value


def test_summary_accepts_empty_only():
    assert SummaryRequest.from_mapping({}) == SummaryRequest()
    error = _error(SummaryRequest, {"extra": 1})
    assert error.code == "unknown-field"
    assert error.field == "extra"
    assert error.status == 400


def test_category_mix_requires_country():
    error = _error(CategoryMixRequest, {})
    assert (error.code, error.field) == ("missing-field", "country")


def test_category_mix_rejects_bad_weighting():
    error = _error(CategoryMixRequest, {"country": "BR", "weighting": "mass"})
    assert (error.code, error.field) == ("bad-choice", "weighting")
    assert "urls" in error.message and "bytes" in error.message


def test_category_mix_rejects_non_string_country():
    error = _error(CategoryMixRequest, {"country": 7})
    assert (error.code, error.field) == ("bad-type", "country")


def test_crossborder_sources_accepts_list_and_csv():
    from_list = CrossborderRequest.from_mapping({"sources": ["BR", "US"]})
    from_csv = CrossborderRequest.from_mapping({"sources": "BR,US"})
    assert from_list == from_csv
    assert from_list.sources == ("BR", "US")
    assert CrossborderRequest.from_mapping({}).sources == ()


def test_crossborder_keeps_each_source_once_as_first_spelled():
    request = CrossborderRequest.from_mapping(
        {"sources": ["br", "US", "BR", "us", "Fr", "br"]})
    assert request.sources == ("br", "US", "Fr")
    assert request == CrossborderRequest.from_mapping(
        {"sources": "br,US,Fr,fR"})


def test_crossborder_rejects_bad_basis_and_types():
    error = _error(CrossborderRequest, {"basis": "astral"})
    assert (error.code, error.field) == ("bad-choice", "basis")
    error = _error(CrossborderRequest, {"sources": [1, 2]})
    assert (error.code, error.field) == ("bad-type", "sources")


def test_providers_top_coerces_and_bounds():
    assert ProvidersRequest.from_mapping({"top": "5"}).top == 5
    assert ProvidersRequest.from_mapping({}).top == 10
    assert _error(ProvidersRequest, {"top": 0}).code == "out-of-range"
    assert _error(ProvidersRequest, {"top": -3}).code == "out-of-range"
    assert _error(ProvidersRequest, {"top": 10**6}).code == "out-of-range"
    assert _error(ProvidersRequest, {"top": 1.5}).code == "bad-type"
    assert _error(ProvidersRequest, {"top": True}).code == "bad-type"


def test_report_section_is_validated():
    assert ReportRequest.from_mapping({"section": "full"}).section == "full"
    error = _error(ReportRequest, {"section": "appendix"})
    assert (error.code, error.field) == ("bad-choice", "section")
    assert "summary" in error.message


def test_every_endpoint_round_trips_a_valid_request():
    valid = {
        "summary": {},
        "categories": {"country": "BR"},
        "crossborder": {"sources": "BR"},
        "providers": {"top": 3},
        "report": {"section": "summary"},
        "trends": {"country": "BR"},
    }
    assert set(valid) == set(QUERY_ENDPOINTS)
    for endpoint, payload in valid.items():
        QUERY_ENDPOINTS[endpoint].from_mapping(payload)


def test_request_error_to_dict_shape():
    error = _error(ReportRequest, {"section": "nope"})
    payload = error.to_dict()
    assert payload == {
        "code": "bad-choice",
        "message": error.message,
        "field": "section",
    }
