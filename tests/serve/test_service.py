"""Service/batch equivalence: every answer must equal the analysis
function or renderer the batch path would have used -- for in-memory,
jsonl-loaded and store-backed datasets, faulted runs included."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis import flows, global_provider_footprints
from repro.analysis.engine import ensure_index
from repro.analysis.hosting import fractions_of_counts
from repro.reporting import render_paper_report, render_report_section
from repro.reporting.sections import SECTION_NAMES
from repro.serve import DatasetService, RequestError


def test_summary_equals_index_summary(service, tiny_dataset):
    result = service.query("summary", {})
    expected = dataclasses.asdict(ensure_index(tiny_dataset).summary())
    assert result == {"summary": expected}


@pytest.mark.parametrize("weighting", ["urls", "bytes"])
def test_category_mix_equals_analysis(service, tiny_dataset, weighting):
    index = ensure_index(tiny_dataset)
    url_counts, byte_sums = index.category_counts()["BR"]
    tallies = byte_sums if weighting == "bytes" else url_counts
    expected = {str(category): fraction
                for category, fraction in fractions_of_counts(tallies).items()}
    result = service.query("categories",
                           {"country": "br", "weighting": weighting})
    assert result["country"] == "BR"
    assert result["mix"] == expected
    assert result["url_count"] == sum(url_counts)
    assert result["byte_count"] == sum(byte_sums)


@pytest.mark.parametrize("basis", ["server", "registration"])
def test_crossborder_equals_flows(service, tiny_dataset, basis):
    result = service.query("crossborder", {"sources": "BR,FR",
                                           "basis": basis})
    expected = [
        {"source": flow.source, "destination": flow.destination,
         "url_count": flow.url_count, "byte_count": flow.byte_count}
        for flow in flows(tiny_dataset, basis)
        if flow.source in {"BR", "FR"}
    ]
    assert result["flows"] == expected


def test_crossborder_empty_sources_means_all(service, tiny_dataset):
    result = service.query("crossborder", {})
    assert len(result["flows"]) == len(flows(tiny_dataset, "server"))


def test_providers_equals_footprints(service, tiny_dataset):
    result = service.query("providers", {"top": 4})
    expected = [
        {"asn": fp.asn, "name": fp.name,
         "country_count": fp.country_count,
         "countries": list(fp.countries)}
        for fp in global_provider_footprints(tiny_dataset)[:4]
    ]
    assert result["providers"] == expected


@pytest.mark.parametrize("section", SECTION_NAMES)
def test_report_fragments_equal_batch_renderer(service, tiny_dataset,
                                               section):
    result = service.query("report", {"section": section})
    assert result["text"] == render_report_section(tiny_dataset, section)


def test_full_report_equals_render_paper_report(service, tiny_dataset):
    result = service.query("report", {"section": "full"})
    assert result["text"] == render_paper_report(tiny_dataset)


def test_unknown_country_is_structured_404(service):
    with pytest.raises(RequestError) as excinfo:
        service.query("categories", {"country": "XX"})
    error = excinfo.value
    assert (error.code, error.field, error.status) == \
        ("unknown-country", "country", 404)
    with pytest.raises(RequestError) as excinfo:
        service.query("crossborder", {"sources": "BR,XX"})
    assert excinfo.value.field == "sources"
    # A repeated unknown code is named as first sent.
    with pytest.raises(RequestError) as excinfo:
        service.query("crossborder", {"sources": ["br", "xX", "XX"]})
    assert "'xX'" in excinfo.value.message


def test_crossborder_echoes_each_source_once(service):
    answer = service.query("crossborder",
                           {"sources": ["fr", "BR", "FR", "br"] * 500})
    assert answer["sources"] == ["FR", "BR"]
    assert answer == service.query("crossborder", {"sources": "FR,BR"})


def test_unknown_endpoint_is_structured_404(service):
    with pytest.raises(RequestError) as excinfo:
        service.query("everything", {})
    assert excinfo.value.code == "unknown-endpoint"
    assert excinfo.value.status == 404


def _canonical_answers(service: DatasetService) -> str:
    queries = [
        ("summary", {}),
        ("categories", {"country": "BR"}),
        ("crossborder", {"sources": "BR,US"}),
        ("providers", {"top": 5}),
        ("report", {"section": "full"}),
    ]
    return json.dumps([service.query(e, p) for e, p in queries],
                      sort_keys=True)


def test_jsonl_and_store_services_answer_identically(tiny_dataset,
                                                     tiny_jsonl,
                                                     serve_store_dir):
    """Same dataset, three load paths, byte-identical responses."""
    in_memory = _canonical_answers(DatasetService(tiny_dataset))
    with DatasetService.open(tiny_jsonl) as from_jsonl:
        assert _canonical_answers(from_jsonl) == in_memory
    with DatasetService.open(serve_store_dir) as from_store:
        assert _canonical_answers(from_store) == in_memory


def test_faulted_dataset_serves_consistently(faulted_dataset):
    assert faulted_dataset.faults.countries  # the run really faulted
    service = DatasetService(faulted_dataset)
    result = service.query("report", {"section": "full"})
    assert result["text"] == render_paper_report(faulted_dataset)
    summary = service.query("summary", {})["summary"]
    assert summary == dataclasses.asdict(
        ensure_index(faulted_dataset).summary()
    )


def test_service_tracks_metrics(tiny_dataset):
    service = DatasetService(tiny_dataset)
    service.query("summary", {})
    with pytest.raises(RequestError):
        service.query("categories", {"country": "XX"})
    snapshot = service.metrics_snapshot()
    assert snapshot["counters"]["serve.requests"] == 2
    assert snapshot["counters"]["serve.requests.summary"] == 1
    assert snapshot["counters"]["serve.errors.unknown-country"] == 1
    assert snapshot["gauges"]["serve.inflight.peak"] >= 1
    assert any(name.startswith("serve.latency_ms.")
               for name in snapshot["histograms"])
