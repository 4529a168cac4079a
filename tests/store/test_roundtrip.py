"""Store write/read round-trips, integrity checking and conversions."""

from __future__ import annotations

import hashlib
import json
import shutil

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.io import load_dataset, save_dataset
from repro.store import (
    DatasetStore,
    StoreError,
    is_store_path,
    jsonl_to_store,
    load_store_dataset,
    store_to_jsonl,
    write_store,
)
from repro.store.format import MANIFEST_NAME, SHARD_MANIFEST_NAME
from tests.records import iter_records


def test_write_results_and_layout(store_dir, dataset):
    assert is_store_path(store_dir)
    assert (store_dir / MANIFEST_NAME).is_file()
    codes = sorted(p.name for p in store_dir.iterdir() if p.is_dir())
    assert codes == sorted(dataset.countries)
    for code in codes:
        assert (store_dir / code / SHARD_MANIFEST_NAME).is_file()


def test_refuses_to_clobber(tmp_path, tiny_dataset):
    target = tmp_path / "occupied.store"
    write_store(tiny_dataset, target)
    with pytest.raises(StoreError, match="already exists"):
        write_store(tiny_dataset, target)
    write_store(tiny_dataset, target, overwrite=True)  # explicit is fine


def test_write_is_deterministic(tmp_path, tiny_dataset):
    first = tmp_path / "a.store"
    second = tmp_path / "b.store"
    write_store(tiny_dataset, first)
    write_store(tiny_dataset, second)
    for path in sorted(first.rglob("*")):
        twin = second / path.relative_to(first)
        if path.is_file():
            assert path.read_bytes() == twin.read_bytes(), path.name


def _tree_digest(root) -> str:
    """sha256 over every file's relative path, size and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        payload = path.read_bytes()
        digest.update(f"{path.relative_to(root).as_posix()}\0"
                      f"{len(payload)}\0".encode())
        digest.update(payload)
    return digest.hexdigest()


#: ``_tree_digest`` of the golden store below.  Any change to the store
#: layout, the codecs, the interning order or the measured world moves
#: it; such a change must bump ``STORE_FORMAT_VERSION`` or be explained.
GOLDEN_STORE_SHA256 = (
    "ccef8041c25d5254fd26d8062686d76122017a5f4cf68f54574d1f64d632a97f"
)


def test_golden_store_bytes(tmp_path):
    codes = ("BR", "US", "FR")
    world = SyntheticWorld.generate(
        WorldConfig(seed=7, scale=0.02, countries=codes)
    )
    target = tmp_path / "golden.store"
    write_store(Pipeline(world).run(list(codes)), target)
    assert _tree_digest(target) == GOLDEN_STORE_SHA256


def test_records_roundtrip_exactly(store, dataset):
    # Country equality compares every URL row and that URL's host row.
    loaded = store.dataset()
    for code, country_dataset in dataset.countries.items():
        assert loaded.countries[code] == country_dataset


def test_metadata_roundtrip(store, dataset):
    loaded = store.dataset()
    assert set(loaded.countries) == set(dataset.countries)
    for code, original in dataset.countries.items():
        restored = loaded.countries[code]
        assert restored.landing_count == original.landing_count
        assert restored.discarded_url_count == original.discarded_url_count
        assert restored.unresolved_hostnames == original.unresolved_hostnames
        assert restored.depth_histogram == original.depth_histogram
        assert list(restored.depth_histogram) == \
            list(original.depth_histogram)  # insertion order survives
        assert restored.url_count == original.url_count
        assert restored.hostnames == original.hostnames
        assert restored.total_bytes == original.total_bytes
    assert loaded.validation == dataset.validation


def test_verify_passes_on_intact_store(store):
    store.verify()


def test_store_iter_records_streams_everything(store, dataset):
    # Shards keep the dataset's own country order.
    assert list(iter_records(store.dataset())) == \
        list(iter_records(dataset))


def test_corrupt_column_detected_by_verify(tmp_path, tiny_dataset):
    target = tmp_path / "mangle.store"
    write_store(tiny_dataset, target)
    victim = next(p for p in target.rglob("sizes.i64")
                  if p.stat().st_size > 0)
    payload = bytearray(victim.read_bytes())
    payload[0] ^= 0xFF
    victim.write_bytes(bytes(payload))
    store = DatasetStore(target)  # sizes unchanged: open still succeeds
    with pytest.raises(StoreError, match="digest mismatch"):
        store.verify()


def test_corrupt_column_fails_when_first_read(tmp_path, tiny_dataset):
    """The digest is checked when a column is mapped, so a damaged
    column raises on its first read instead of loading different
    numbers (or a different jsonl)."""
    target = tmp_path / "flip.store"
    write_store(tiny_dataset, target)
    victim = target / "BR" / "sizes.i64"
    payload = bytearray(victim.read_bytes())
    payload[len(payload) // 2] ^= 0x01
    victim.write_bytes(bytes(payload))
    with DatasetStore(target) as store:
        store.shard("US").column("sizes.i64")  # intact shards still read
        with pytest.raises(StoreError, match=f"{victim}: digest mismatch"):
            store.shard("BR").column("sizes.i64")
        with pytest.raises(StoreError, match="digest mismatch"):
            [shard.host_table() for shard in store.shards()]


def test_truncated_column_detected_at_open(tmp_path, tiny_dataset):
    target = tmp_path / "trunc.store"
    write_store(tiny_dataset, target)
    victim = next(p for p in target.rglob("addresses.i64")
                  if p.stat().st_size > 0)
    victim.write_bytes(victim.read_bytes()[:-8])
    with pytest.raises(StoreError, match="size"):
        DatasetStore(target)


def test_tampered_shard_manifest_detected_at_open(tmp_path, tiny_dataset):
    target = tmp_path / "tamper.store"
    write_store(tiny_dataset, target)
    victim = next(target.rglob(SHARD_MANIFEST_NAME))
    manifest = json.loads(victim.read_text())
    manifest["landing_count"] += 1
    victim.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    with pytest.raises(StoreError, match="digest mismatch"):
        DatasetStore(target)


def test_wrong_format_version_rejected(tmp_path, tiny_dataset):
    target = tmp_path / "future.store"
    write_store(tiny_dataset, target)
    manifest_path = target / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["format"] = 999
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError, match="unsupported store format"):
        DatasetStore(target)


def _faults(**fields) -> dict:
    """A ``faults`` object of one BR dns tally, with ``fields`` replacing
    (or, set to ``None``, dropping) its members."""
    tally = {"injected": 1, "retried": 1, "recovered": 1, "degraded": 0,
             "backoff_ms": 100.0}
    tally.update(fields)
    return {"BR": {"dns": {name: value for name, value in tally.items()
                           if value is not None}}}


@pytest.mark.parametrize("edit,key", [
    (lambda m: m.pop("record_count"), "record_count"),
    (lambda m: m.pop("countries"), "countries"),
    (lambda m: m.pop("country_table"), "country_table"),
    (lambda m: m.pop("shards"), "shards"),
    (lambda m: m.pop("validation"), "validation"),
    (lambda m: next(iter(m["shards"].values())).pop("manifest_digest"),
     "manifest_digest"),
    (lambda m: m.update(organization_table=None), "organization_table"),
    (lambda m: m["validation"].update(bogus=1), "validation"),
    (lambda m: m.update(record_count=str(m["record_count"])), "record_count"),
    (lambda m: m["validation"].update(anycast_ap=-1), "anycast_ap"),
    (lambda m: m.update(faults=[1]), "faults"),
    (lambda m: m.update(faults={"BR": "dns"}), "faults"),
    (lambda m: m.update(faults=_faults(retried=None)), "faults"),
    (lambda m: m.update(faults=_faults(injected="lots")), "injected"),
    (lambda m: m.update(faults=_faults(degraded=-2)), "degraded"),
    (lambda m: m.update(faults=_faults(backoff_ms=False)), "backoff_ms"),
], ids=["no-record_count", "no-countries", "no-country_table", "no-shards",
        "no-validation", "no-manifest_digest", "null-organization_table",
        "extra-validation-key", "string-record_count",
        "negative-validation-count", "list-faults", "string-country-faults",
        "tally-missing-key", "string-injected", "negative-degraded",
        "bool-backoff_ms"])
def test_damaged_root_manifest_raises_store_error(tmp_path, tiny_store_dir,
                                                  edit, key):
    target = tmp_path / "damaged.store"
    shutil.copytree(tiny_store_dir, target)
    manifest_path = target / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreError) as caught:
        load_store_dataset(target)
    assert str(manifest_path) in str(caught.value)
    assert repr(key) in str(caught.value)


def test_not_a_store_rejected(tmp_path):
    assert not is_store_path(tmp_path / "absent")
    assert not is_store_path(tmp_path)
    with pytest.raises(StoreError, match="not a dataset store"):
        DatasetStore(tmp_path)


def test_jsonl_conversion_byte_identical_on_canonical_files(
    tmp_path, dataset
):
    # save(load(x)) is the canonical jsonl form (records grouped by
    # sorted country); through the store it must round-trip exactly.
    raw = tmp_path / "raw.jsonl"
    save_dataset(dataset, raw)
    canonical = tmp_path / "canonical.jsonl"
    save_dataset(load_dataset(raw), canonical)
    result = jsonl_to_store(canonical, tmp_path / "via.store")
    assert result.record_count == sum(
        cd.url_count for cd in dataset.countries.values()
    )
    back = tmp_path / "back.jsonl"
    assert store_to_jsonl(tmp_path / "via.store", back) == result.record_count
    assert back.read_bytes() == canonical.read_bytes()


def test_store_backed_dataset_saves_original_bytes(tmp_path, store, dataset):
    # The store preserves the dataset's country order, so saving its
    # store-backed twin reproduces the original export byte for byte.
    raw = tmp_path / "raw.jsonl"
    save_dataset(dataset, raw)
    from_store = tmp_path / "from_store.jsonl"
    save_dataset(store.dataset(), from_store)
    assert from_store.read_bytes() == raw.read_bytes()


def test_faulted_dataset_roundtrips(tmp_path):
    from repro import Pipeline, SyntheticWorld, WorldConfig

    config = WorldConfig(seed=13, scale=0.02, countries=("BR", "US"),
                         include_topsites=False, fault_rate=0.1)
    faulted = Pipeline(SyntheticWorld.generate(config)).run(["BR", "US"])
    assert faulted.faults.countries  # the run actually faulted
    target = tmp_path / "faulted.store"
    write_store(faulted, target)
    loaded = load_store_dataset(target)
    assert loaded.faults.to_dict() == faulted.faults.to_dict()
    assert list(iter_records(loaded)) == list(iter_records(faulted))
