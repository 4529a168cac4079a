"""Tests for dataset serialization."""

import csv
import json
import logging

import pytest

from repro.core.dataset import GovernmentHostingDataset
from repro.io import (
    FORMAT_VERSION,
    RECORD_FIELDS,
    _record_rows,
    export_csv,
    load_dataset,
    save_dataset,
)
from tests.records import Record, iter_records, record_dict, records_of


def test_record_roundtrip(dataset):
    # A record's JSON object, keyed in RECORD_FIELDS order, parses back
    # to its country, its URL row and its host row.
    assert Record._fields == tuple(name for name, _ in RECORD_FIELDS)
    country = next(cd for cd in dataset.countries.values() if cd.url_count)
    table = country.host_table
    record = records_of(country)[0]
    assert _record_rows(record_dict(record)) == (
        country.country, table.urls[0], table.hosts[table.host_index[0]])


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
        assert restored.url_count == original.url_count
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


def _first_country(header) -> dict:
    return next(iter(header["countries"].values()))


def _faults(**fields) -> dict:
    """A ``faults`` object of one BR congestion tally, with ``fields``
    replacing (or, set to ``None``, dropping) its members."""
    tally = {"injected": 2, "retried": 0, "recovered": 0, "degraded": 2,
             "backoff_ms": 0.0}
    tally.update(fields)
    return {"BR": {"congestion": {name: value for name, value
                                  in tally.items() if value is not None}}}


@pytest.mark.parametrize("edit,key", [
    (lambda h: h.pop("countries"), "'countries'"),
    (lambda h: h.pop("validation"), "'validation'"),
    (lambda h: _first_country(h).pop("landing_count"), "'landing_count'"),
    (lambda h: h["validation"].update(bogus=1), "'validation'"),
    (lambda h: _first_country(h).update(landing_count=True),
     "'landing_count'"),
    (lambda h: _first_country(h).update(landing_count=-3),
     "'landing_count'"),
    (lambda h: _first_country(h).update(discarded_url_count=1.5),
     "'discarded_url_count'"),
    (lambda h: _first_country(h).update(unresolved_hostnames=[1]),
     "'unresolved_hostnames'"),
    (lambda h: _first_country(h).update(depth_histogram={"0": "many"}),
     "'depth_histogram'"),
    (lambda h: _first_country(h).update(depth_histogram={"top": 1}),
     "'depth_histogram'"),
    (lambda h: h["validation"].update(unicast_ap="many"), "'unicast_ap'"),
    (lambda h: h.update(faults=[1]), "'faults'"),
    (lambda h: h.update(faults={"BR": [1]}), "'faults'"),
    (lambda h: h.update(faults={"BR": {"congestion": 2}}), "'faults'"),
    (lambda h: h.update(faults=_faults(degraded=None)), "'faults'"),
    (lambda h: h.update(faults=_faults(extra=1)), "'faults'"),
    (lambda h: h.update(faults=_faults(injected="lots")), "'injected'"),
    (lambda h: h.update(faults=_faults(retried=-1)), "'retried'"),
    (lambda h: h.update(faults=_faults(recovered=True)), "'recovered'"),
    (lambda h: h.update(faults=_faults(degraded=1.5)), "'degraded'"),
    (lambda h: h.update(faults=_faults(backoff_ms=True)), "'backoff_ms'"),
    (lambda h: h.update(faults=_faults(backoff_ms=-0.5)), "'backoff_ms'"),
    (lambda h: h.update(faults=_faults(backoff_ms="1")), "'backoff_ms'"),
], ids=["no-countries", "no-validation", "no-landing_count",
        "extra-validation-key", "bool-landing_count",
        "negative-landing_count", "float-discarded_url_count",
        "non-string-unresolved-hostname", "string-depth-count",
        "non-depth-histogram-key", "string-validation-count",
        "list-faults", "list-country-faults", "number-tally",
        "tally-missing-key", "tally-extra-key", "string-injected",
        "negative-retried", "bool-recovered", "float-degraded",
        "bool-backoff_ms", "negative-backoff_ms", "string-backoff_ms"])
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


def test_header_faults_load_as_written(tmp_path, tiny_dataset):
    """A well-formed ``faults`` object loads (an integral backoff
    included), so the damaged cases above fail on their damage."""
    path = tmp_path / "faulted.jsonl"
    save_dataset(tiny_dataset, path)
    header, rest = path.read_text().split("\n", 1)
    header = json.loads(header)
    header["faults"] = _faults(backoff_ms=100)
    path.write_text(json.dumps(header) + "\n" + rest)
    tally = load_dataset(path).faults.countries["BR"]["congestion"]
    assert (tally.injected, tally.degraded, tally.backoff_ms) == (2, 2, 100)


def test_non_object_header_rejected(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text(json.dumps([{"format": FORMAT_VERSION}]) + "\n")
    with pytest.raises(ValueError, match=":1: header is not a JSON object"):
        load_dataset(path)


@pytest.mark.parametrize("field,bogus", [
    ("category", "no-such-category"),
    ("via", "carrier-pigeon"),
    ("validation", "vibes"),
    # Every field must hold its JSON type (repro.io.RECORD_FIELDS).
    ("size_bytes", -5),
    ("size_bytes", 1.5),
    ("size_bytes", "34142"),
    ("depth", "0"),
    ("depth", -1),
    ("organization", 7),
    ("address", "1.2.3.4"),
    ("address", True),
    ("gov_operated", "yes"),
    ("anycast", "no"),
    ("asn", None),
    ("country", ["BR"]),
    ("url", 5),
    ("hostname", None),
    ("server_country", 12),
])
def test_out_of_enum_value_reports_line(tmp_path, tiny_dataset, field, bogus):
    path = tmp_path / "enum.jsonl"
    save_dataset(tiny_dataset, path)
    lines = path.read_text().splitlines()
    record = json.loads(lines[2])
    record[field] = bogus
    lines[2] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=":3:") as caught:
        load_dataset(path)
    assert f"field {field!r}" in str(caught.value)


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
    # The csv.writer rows must line up with RECORD_FIELDS, the jsonl
    # object's key order -- parse the file back into record dicts.
    path = tmp_path / "ordered.csv"
    written = export_csv(tiny_dataset, path)
    with path.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == written
    originals = list(iter_records(tiny_dataset))
    for row, original in zip(rows, originals):
        expected = record_dict(original)
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
        assert parsed == expected


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


class _FailingHandle:
    """A text handle whose writes fail once ``budget`` of them are spent,
    like a disk filling up mid-file."""

    def __init__(self, handle, budget: int) -> None:
        self._handle = handle
        self._budget = budget

    def write(self, text):
        if self._budget == 0:
            raise OSError(28, "No space left on device")
        self._budget -= 1
        return self._handle.write(text)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        self._handle.__enter__()
        return self

    def __exit__(self, *exc_info):
        return self._handle.__exit__(*exc_info)


def _write_manifest(tiny_world, dataset, path):
    from repro.obs.manifest import RunManifest

    return RunManifest.collect(tiny_world.config, dataset).write(path)


def _write_store_jsonl(tiny_world, dataset, path):
    from repro.store import store_to_jsonl, write_store

    store_dir = path.with_name("source.store")
    if not store_dir.exists():
        write_store(dataset, store_dir)
    return store_to_jsonl(store_dir, path)


@pytest.mark.parametrize("write, budget", [
    (lambda world, dataset, path: save_dataset(dataset, path), 3),
    (lambda world, dataset, path: export_csv(dataset, path), 3),
    (_write_store_jsonl, 3),
    (_write_manifest, 0),  # one write call holds the whole document
], ids=["save_dataset", "export_csv", "store_to_jsonl", "manifest"])
def test_a_failed_write_keeps_the_old_file(tmp_path, tiny_world,
                                           tiny_dataset, monkeypatch,
                                           write, budget):
    """Every dataset writer replaces its file: one that fails after
    ``budget`` writes leaves the old bytes and no temp file behind."""
    import pathlib

    path = tmp_path / "out"
    write(tiny_world, tiny_dataset, path)
    old = path.read_bytes()
    before = sorted(tmp_path.iterdir())
    real_open = pathlib.Path.open

    def failing_open(self, mode="r", *args, **kwargs):
        handle = real_open(self, mode, *args, **kwargs)
        return _FailingHandle(handle, budget) if "w" in mode else handle

    monkeypatch.setattr(pathlib.Path, "open", failing_open)
    with pytest.raises(OSError, match="No space left"):
        write(tiny_world, tiny_dataset, path)
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == before
