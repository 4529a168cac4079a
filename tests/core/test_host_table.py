"""Per-host rows: the one form of a country's URLs.

Every reader -- the Table 3 summary, the jsonl and CSV writers, the
analysis index and the store writer -- reads a country's ``HostTable``.
These tests pin those readers on a hand-built dataset whose hostname
disagrees with itself (two ASNs, two categories) against what a pass
over its per-URL records gives, hold JSON escaping byte-identical, and
check that a run builds no per-URL rows of its own.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro import Pipeline, WorldConfig
from repro.analysis.engine import AnalysisIndex
from repro.cache import ScanCache
from repro.categories import HostingCategory
from repro.cli import main
from repro.core.dataset import DatasetSummary, GovernmentHostingDataset
from repro.core.geolocation import ValidationMethod, ValidationStats
from repro.core.urlfilter import FilterVia
from repro.io import dataset_header, load_dataset, save_dataset
from repro.store import ShardReader, store_to_jsonl, write_store
from tests.records import (
    Record,
    build_country,
    iter_records,
    record_dict,
    records_of,
)


def _record(url, hostname, country, size, asn, organization, registered,
            gov, category, server, via=FilterVia.TLD, depth=1,
            address=0x0A000001, anycast=False,
            validation=ValidationMethod.ACTIVE_PROBING) -> Record:
    return Record(
        url=url, hostname=hostname, country=country, size_bytes=size,
        via=via, depth=depth, address=address, asn=asn,
        organization=organization, registered_country=registered,
        gov_operated=gov, category=category, server_country=server,
        anycast=anycast, validation=validation,
    )


def _mixed_dataset() -> GovernmentHostingDataset:
    """Two countries of hand-built records.  ``x.gov.br`` answers from
    two ASNs under two categories, interleaved with ``y.gov.br``, so its
    records intern into two host rows whose first URLs are not the
    first of the country."""
    soe = HostingCategory.GOVT_SOE
    cdn = HostingCategory.P3_GLOBAL
    local = HostingCategory.P3_LOCAL
    br = [
        _record("https://y.gov.br/", "y.gov.br", "BR", 120, 64500,
                "Prov Local", "BR", False, local, "BR", depth=0,
                address=0x0A000002),
        _record("https://x.gov.br/a", "x.gov.br", "BR", 300, 13335,
                "Cloudflare", "US", False, cdn, "US", anycast=True,
                address=0x68100001),
        _record("https://x.gov.br/b", "x.gov.br", "BR", 200, 900,
                "Gov BR", "BR", True, soe, None,
                validation=ValidationMethod.UNRESOLVED),
        _record("https://y.gov.br/c", "y.gov.br", "BR", 80, 64500,
                "Prov Local", "BR", False, local, "BR",
                via=FilterVia.DOMAIN, address=0x0A000002),
        _record("https://x.gov.br/d", "x.gov.br", "BR", 0, 13335,
                "Cloudflare", "US", False, cdn, "US", anycast=True,
                address=0x68100001),
        _record("https://x.gov.br/e", "x.gov.br", "BR", 50, 900,
                "Gov BR", "BR", True, soe, None, depth=3,
                validation=ValidationMethod.UNRESOLVED),
    ]
    de = [
        _record("https://www.bund.de/", "www.bund.de", "DE", 900, 16509,
                "Amazon", "IE", False, cdn, "DE", depth=0,
                address=0x34000001, via=FilterVia.SAN),
        _record("https://www.bund.de/x", "www.bund.de", "DE", 10, 3320,
                "Telekom", "DE", False, local, "DE",
                address=0x50000001, via=FilterVia.SAN),
    ]
    return GovernmentHostingDataset(
        countries={
            "BR": build_country("BR", br, 2, 1, ["gone.gov.br"],
                                {0: 1, 1: 4}),
            "DE": build_country("DE", de, 1, 0, [], {0: 1, 1: 1}),
        },
        validation=ValidationStats(),
    )


def _tree_digest(root) -> str:
    """sha256 over every file's relative path and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _expected_jsonl(dataset) -> str:
    """Header plus one ``json.dumps(record_dict(r))`` line per record."""
    return "".join(
        [json.dumps(dataset_header(dataset)) + "\n"]
        + [json.dumps(record_dict(r)) + "\n"
           for r in iter_records(dataset)]
    )


# The digests below were taken from the record-loop writers, before
# readers moved to host tables; the host-table writers must reproduce
# them.
MIXED_JSONL_SHA256 = (
    "8be6f2a3980dd5fa4ae0b83608ec815c8b633d54612ffcb20b36b5496a8ab48a"
)
MIXED_STORE_SHA256 = (
    "2c6cce88d69eab29adb44745a2545245a8a2dc681ba945c7f155040a8035b2b9"
)


def test_disagreeing_hostname_interns_one_row_per_variant():
    table = _mixed_dataset().country("BR").host_table
    assert [row.hostname for row in table.hosts] == \
        ["y.gov.br", "x.gov.br", "x.gov.br"]
    assert list(table.host_index) == [0, 1, 2, 0, 1, 2]
    assert {row.asn for row in table.hosts[1:]} == {13335, 900}


def test_countries_are_equal_by_url_and_host_rows():
    """Equality compares each URL row and that URL's host row: the same
    records built twice are equal, and one changed annotation is not."""
    br = records_of(_mixed_dataset().country("BR"))
    bookkeeping = (2, 1, ["gone.gov.br"], {0: 1, 1: 4})
    original = build_country("BR", br, *bookkeeping)
    assert build_country("BR", list(br), *bookkeeping) == original
    changed = [br[0]._replace(asn=64501)] + br[1:]
    assert build_country("BR", changed, *bookkeeping) != original


def test_disagreeing_hostname_saves_like_its_records(tmp_path):
    dataset = _mixed_dataset()
    path = tmp_path / "mixed.jsonl"
    assert save_dataset(dataset, path) == 8
    text = path.read_text(encoding="utf-8")
    assert text == _expected_jsonl(_mixed_dataset())
    assert hashlib.sha256(text.encode()).hexdigest() == MIXED_JSONL_SHA256


def test_disagreeing_hostname_summarizes_like_its_records():
    assert _mixed_dataset().summarize() == DatasetSummary(
        landing_urls=3, internal_urls=5, total_unique_urls=8,
        unique_hostnames=3, ases=5, government_ases=1, unique_addresses=5,
        anycast_addresses=1, countries_with_servers=3,
    )


def test_disagreeing_hostname_indexes_like_its_records():
    index = AnalysisIndex.build(_mixed_dataset())
    # First-seen per-URL order: the chunk's own country, then per chunk
    # registration, server and organization values in URL order.
    assert index.country_table == ["BR", "US", "DE", "IE"]
    assert index.organization_table == [
        "Prov Local", "Cloudflare", "Gov BR", "Amazon", "Telekom"]
    br, de = index.chunks
    expected = {
        "sizes": [120, 300, 200, 80, 0, 50],
        "addresses": [0x0A000002, 0x68100001, 0x0A000001, 0x0A000002,
                      0x68100001, 0x0A000001],
        "asns": [64500, 13335, 900, 64500, 13335, 900],
        "categories": [1, 3, 0, 1, 3, 0],
        "gov": [0, 0, 1, 0, 0, 1],
        "anycast": [0, 1, 0, 0, 1, 0],
        "registered": [0, 1, 0, 0, 1, 0],
        "server": [0, 1, -1, 0, 1, -1],
        "organizations": [0, 1, 2, 0, 1, 2],
    }
    for name, values in expected.items():
        assert br.columns[name].tolist() == values, name
    assert de.columns["registered"].tolist() == [3, 2]
    assert de.columns["server"].tolist() == [2, 2]
    assert de.columns["organizations"].tolist() == [3, 4]


@pytest.mark.parametrize("last_url_row", ["last", "first"])
def test_disagreeing_hostname_maps_to_the_server_of_its_last_url(
        last_url_row):
    from repro.scenarios.compare import _server_countries

    dataset = _mixed_dataset()
    if last_url_row == "first":
        # Without x.gov.br/e the hostname's last URL names its first row
        # (Cloudflare, "US"), not its last (Gov BR, no server country).
        records = records_of(dataset.country("BR"))[:-1]
        dataset.countries["BR"] = build_country(
            "BR", records, 2, 1, ["gone.gov.br"], {0: 1, 1: 3})
    expected = {record.hostname: record.server_country
                for record in records_of(dataset.country("BR"))}
    assert expected["x.gov.br"] == ("US" if last_url_row == "first"
                                    else None)
    assert _server_countries(dataset, "BR") == expected
    assert _server_countries(dataset, "DE") == {"www.bund.de": "DE"}
    assert _server_countries(dataset, "FR") == {}


def test_disagreeing_hostname_writes_the_same_store(tmp_path):
    target = tmp_path / "mixed.store"
    write_store(_mixed_dataset(), target)
    assert _tree_digest(target) == MIXED_STORE_SHA256
    back = tmp_path / "back.jsonl"
    assert store_to_jsonl(target, back) == 8
    assert back.read_text(encoding="utf-8") == \
        _expected_jsonl(_mixed_dataset())


def test_json_escapes_round_trip_byte_identically(tmp_path):
    records = [
        _record('https://x.gov.br/a"b\\c/été?q=ü€',
                "x.gov.br", "BR", 10, 900, 'Ministério "da" Fazenda\\\t',
                "BR", True, HostingCategory.GOVT_SOE, "BR"),
        _record("https://x.gov.br/\U0001F600", "x.gov.br", "BR", 20, 900,
                'Ministério "da" Fazenda\\\t', "BR", True,
                HostingCategory.GOVT_SOE, "BR"),
    ]
    dataset = GovernmentHostingDataset(
        countries={"BR": build_country("BR", records, 1, 0, [], {1: 2})},
        validation=ValidationStats(),
    )
    first = tmp_path / "first.jsonl"
    save_dataset(dataset, first)
    assert first.read_text(encoding="utf-8") == _expected_jsonl(dataset)
    loaded = load_dataset(first)
    assert records_of(loaded.country("BR")) == records
    second = tmp_path / "second.jsonl"
    save_dataset(loaded, second)
    assert second.read_bytes() == first.read_bytes()
    store = tmp_path / "escaped.store"
    write_store(loaded, store)
    third = tmp_path / "third.jsonl"
    store_to_jsonl(store, third)
    assert third.read_bytes() == first.read_bytes()


def test_partial_hosts_all_carry_urls(tiny_world):
    """What the host loop of ``summarize`` relies on: the filter accepts
    every archive entry of an accepted hostname, so no host of a
    partial is without URL rows."""
    pipeline = Pipeline(tiny_world)
    for code in ("BR", "US", "FR"):
        partial = pipeline.scan_partial(code)
        assert partial.hosts
        assert set(partial.hosts) == {url[1] for url in partial.urls}


def test_warm_host_table_decodes_only_its_own_partial(tmp_path):
    """A warm run's partials keep their bulk undecoded until a host
    table is read, and the table reuses the partial's URL rows."""
    config = WorldConfig(seed=7, scale=0.01, countries=("BR", "US", "FR"))
    Pipeline(config).run(cache=ScanCache(tmp_path))
    dataset = Pipeline(config).run(cache=ScanCache(tmp_path))
    partials = {code: country._load_table.args[0]
                for code, country in dataset.countries.items()}
    assert all(partial._hosts is None for partial in partials.values())
    table = dataset.country("BR").host_table
    assert table.urls is partials["BR"].urls
    assert len(table.hosts) == len(partials["BR"].hosts)
    assert partials["US"]._hosts is None and partials["FR"]._hosts is None


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("output", ["out", "store-dir", "warm"])
def test_run_builds_no_records(output, workers, tmp_path, monkeypatch,
                               capsys):
    """A run's host tables hold their partials' own URL-row lists: the
    run copies or rebuilds no per-URL row, serial, pooled or warm."""
    import repro.core.pipeline

    base = ["run", "--scale", "0.01", "--seed", "7", "--countries", "BR",
            "US", "FR", "--workers", workers]
    cache = ["--cache-dir", str(tmp_path / "cache")]
    if output == "warm":
        assert main(base + cache) == 0
    host_table = repro.core.pipeline._host_table
    shared = {}

    def recording(partial, footprint):
        table = host_table(partial, footprint)
        shared[partial.country] = table.urls is partial.urls
        return table

    monkeypatch.setattr(repro.core.pipeline, "_host_table", recording)
    target = str(tmp_path / "target")
    extra = {
        "out": ["--out", target],
        "store-dir": ["--store-dir", target],
        "warm": cache + ["--out", target],
    }[output]
    assert main(base + extra) == 0
    assert shared == {"BR": True, "US": True, "FR": True}
    if output == "warm":
        assert "0 misses" in capsys.readouterr().out


def _no_host_table(shard):
    raise AssertionError(f"the report rebuilt {shard.code}'s host table")


def test_jsonl_load_report_and_convert_build_no_records(tmp_path,
                                                       monkeypatch):
    """``load_dataset`` parses each line straight into host rows, the
    conversions stream host tables, and a report over the store rebuilds
    no host table at all."""
    path = tmp_path / "run.jsonl"
    assert main(["run", "--scale", "0.01", "--seed", "7", "--countries",
                 "BR", "US", "FR", "--out", str(path)]) == 0
    store = tmp_path / "run.store"
    back = tmp_path / "back.jsonl"
    assert main(["report", str(path), "--section", "full"]) == 0
    assert main(["convert", str(path), str(store)]) == 0
    with monkeypatch.context() as patched:
        patched.setattr(ShardReader, "host_table", _no_host_table)
        assert main(["report", str(store), "--section", "full"]) == 0
    assert main(["convert", str(store), str(back)]) == 0
    canonical = tmp_path / "canonical.jsonl"
    save_dataset(load_dataset(path), canonical)
    assert back.read_bytes() == canonical.read_bytes()

