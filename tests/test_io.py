"""Tests for dataset serialization."""

import csv
import json
import logging

import pytest

from repro.core.dataset import GovernmentHostingDataset
from repro.io import (
    FORMAT_VERSION,
    export_csv,
    load_dataset,
    record_from_dict,
    record_to_dict,
    save_dataset,
)


def test_record_roundtrip(dataset):
    record = next(dataset.iter_records())
    assert record_from_dict(record_to_dict(record)) == record


def test_save_and_load_roundtrip(tmp_path, dataset):
    path = tmp_path / "dataset.jsonl"
    written = save_dataset(dataset, path)
    assert written == sum(cd.url_count for cd in dataset.countries.values())

    loaded = load_dataset(path)
    assert set(loaded.countries) == set(dataset.countries)
    for code, original in dataset.countries.items():
        restored = loaded.countries[code]
        assert restored.landing_count == original.landing_count
        assert restored.discarded_url_count == original.discarded_url_count
        assert restored.depth_histogram == original.depth_histogram
        assert len(restored.records) == len(original.records)
    assert loaded.summarize() == dataset.summarize()
    assert loaded.validation.table4() == dataset.validation.table4()


def test_loaded_dataset_supports_analyses(tmp_path, dataset):
    from repro.analysis import global_breakdown

    path = tmp_path / "dataset.jsonl"
    save_dataset(dataset, path)
    loaded = load_dataset(path)
    assert global_breakdown(loaded) == global_breakdown(dataset)


def test_header_format_checked(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps({"format": 999, "countries": {}}) + "\n")
    with pytest.raises(ValueError):
        load_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        load_dataset(path)


def test_format_version_is_stable():
    assert FORMAT_VERSION == 1


def test_corrupt_record_reports_line_number(tmp_path, dataset):
    path = tmp_path / "corrupt.jsonl"
    save_dataset(dataset, path)
    lines = path.read_text().splitlines()
    lines[3] = "{not json"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":4:"):
        load_dataset(path)


def test_record_with_missing_field_rejected(tmp_path, dataset):
    path = tmp_path / "missing.jsonl"
    save_dataset(dataset, path)
    lines = path.read_text().splitlines()
    lines[1] = json.dumps({"url": "https://x/"})
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":2:"):
        load_dataset(path)


def test_export_csv(tmp_path, dataset):
    path = tmp_path / "dataset.csv"
    written = export_csv(dataset, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == written + 1  # header
    assert lines[0].startswith("url,hostname,country")


def test_record_with_unknown_country_reports_line(tmp_path, dataset):
    # A record whose country is absent from the header's countries map
    # must fail loudly (it used to be dropped silently), naming the line.
    path = tmp_path / "stray.jsonl"
    save_dataset(dataset, path)
    lines = path.read_text().splitlines()
    stray = json.loads(lines[2])
    stray["country"] = "ZZ"
    lines[2] = json.dumps(stray)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r":3: .*'ZZ'.*countries map"):
        load_dataset(path)


def test_faulted_run_header_roundtrip(tmp_path):
    # A faulted run at real scale must round-trip its fault report
    # through the header (the "faults" key only exists for such runs).
    from repro import Pipeline, SyntheticWorld, WorldConfig

    config = WorldConfig(seed=13, scale=0.02, countries=("BR", "US"),
                         include_topsites=False, fault_rate=0.1)
    faulted = Pipeline(SyntheticWorld.generate(config)).run(["BR", "US"])
    assert faulted.faults.countries
    path = tmp_path / "faulted.jsonl"
    save_dataset(faulted, path)
    header = json.loads(path.read_text().splitlines()[0])
    assert "faults" in header
    loaded = load_dataset(path)
    assert loaded.faults.to_dict() == faulted.faults.to_dict()


def test_duplicate_country_key_in_header_rejected(tmp_path, tiny_dataset):
    # json.loads silently keeps the last duplicate, dropping records;
    # the loader must fail loudly instead.
    path = tmp_path / "dupe.jsonl"
    save_dataset(tiny_dataset, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    code, meta = next(iter(header["countries"].items()))
    countries_json = json.dumps(header["countries"])
    duplicated = countries_json[:-1] + ", " + json.dumps(code) + ": " + \
        json.dumps(meta) + "}"
    lines[0] = lines[0].replace(countries_json, duplicated)
    assert json.dumps(code) in duplicated
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf":1: .*duplicate key '{code}'"):
        load_dataset(path)


@pytest.mark.parametrize("edit,key", [
    (lambda h: h.pop("countries"), "'countries'"),
    (lambda h: h.pop("validation"), "'validation'"),
    (lambda h: next(iter(h["countries"].values())).pop("landing_count"),
     "'landing_count'"),
    (lambda h: h["validation"].update(bogus=1), "'validation'"),
], ids=["no-countries", "no-validation", "no-landing_count",
        "extra-validation-key"])
def test_damaged_header_raises_value_error(tmp_path, tiny_dataset, edit, key):
    path = tmp_path / "damaged.jsonl"
    save_dataset(tiny_dataset, path)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    edit(header)
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as caught:
        load_dataset(path)
    assert f"{path}:1:" in str(caught.value)
    assert key in str(caught.value)


def test_non_object_header_rejected(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text(json.dumps([{"format": FORMAT_VERSION}]) + "\n")
    with pytest.raises(ValueError, match=":1: header is not a JSON object"):
        load_dataset(path)


@pytest.mark.parametrize("field,bogus", [
    ("category", "no-such-category"),
    ("via", "carrier-pigeon"),
    ("validation", "vibes"),
])
def test_out_of_enum_value_reports_line(tmp_path, tiny_dataset, field, bogus):
    path = tmp_path / "enum.jsonl"
    save_dataset(tiny_dataset, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record[field] = bogus
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":3:"):
        load_dataset(path)


def test_large_file_warning(tmp_path, tiny_dataset, monkeypatch, caplog):
    import repro.io as io_module

    path = tmp_path / "large.jsonl"
    total = save_dataset(tiny_dataset, path)
    assert total > 3
    monkeypatch.setattr(io_module, "LARGE_FILE_RECORDS", 3)
    with caplog.at_level(logging.WARNING, logger="repro.io"):
        load_dataset(path)
    messages = [r.message for r in caplog.records
                if r.name == "repro.io" and "convert" in r.message]
    assert len(messages) == 1  # warned once, not per record
    # Under the real threshold nothing warns.
    monkeypatch.setattr(io_module, "LARGE_FILE_RECORDS", 1_000_000)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="repro.io"):
        load_dataset(path)
    assert not [r for r in caplog.records if r.name == "repro.io"]


def test_export_csv_column_order_roundtrip(tmp_path, tiny_dataset):
    # The csv.writer rows must line up with record_to_dict's header --
    # parse the file back and rebuild the records through the dict path.
    path = tmp_path / "ordered.csv"
    written = export_csv(tiny_dataset, path)
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == written
    originals = list(tiny_dataset.iter_records())
    for row, original in zip(rows, originals):
        expected = record_to_dict(original)
        assert list(row) == list(expected)  # same column order
        parsed = {
            key: json.loads(value.lower()) if key in (
                "size_bytes", "depth", "address", "asn",
                "gov_operated", "anycast",
            ) else value
            for key, value in row.items()
        }
        if parsed["server_country"] == "":
            parsed["server_country"] = None
        assert record_from_dict(parsed) == original


def test_export_csv_empty_dataset_keeps_header(tmp_path, dataset):
    # The CSV column set comes from the record shape, not from the first
    # record, so an empty dataset still exports a well-formed header.
    empty = GovernmentHostingDataset(
        countries={}, validation=dataset.validation
    )
    path = tmp_path / "empty.csv"
    assert export_csv(empty, path) == 0
    full_path = tmp_path / "full.csv"
    export_csv(dataset, full_path)
    assert (
        path.read_text().strip()
        == full_path.read_text().splitlines()[0].strip()
    )
