"""ScanCache store semantics: round-trips, recovery, stats, maintenance."""

from __future__ import annotations

import dataclasses
import enum
import errno
import hashlib
import io
import json
import os
import pathlib
import pickle

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache import CACHE_FORMAT_VERSION, ScanCache, scan_keys
from repro.cache.store import META_FIELDS
from repro.core.classification import ProviderFootprint
from repro.core.geolocation import GeoVerdict, ValidationMethod
from repro.core.urlfilter import FilterVia
from repro.exec.partials import CountryPartial, HostAnnotation
from repro.faults.report import DomainTally, FaultReport
from repro.world.regions import Continent


@pytest.fixture(scope="module")
def cache_world() -> SyntheticWorld:
    return SyntheticWorld.generate(
        WorldConfig(seed=11, scale=0.05, countries=("BR", "US"))
    )


def _key(pipeline: Pipeline, country: str) -> str:
    [key] = scan_keys(pipeline.world.config, [country])
    return key


@pytest.fixture()
def populated(cache_world, tmp_path):
    """A cache holding BR's partial, plus the pipeline and key."""
    pipeline = Pipeline(cache_world)
    cache = ScanCache(tmp_path / "cache")
    key = _key(pipeline, "BR")
    partial = pipeline.scan_partial("BR")
    cache.store(key, partial, scan_s=1.5)
    return cache, pipeline, key, partial


def _entry_path(cache: ScanCache, key: str):
    files = list(cache.cache_dir.glob(f"*/{key}.partial"))
    assert len(files) == 1
    return files[0]


def test_round_trip(populated):
    cache, _, key, partial = populated
    loaded = cache.load(key, "BR")
    assert loaded == partial
    assert cache.stats.hits == 1
    assert cache.stats.time_saved_s == pytest.approx(1.5)


def test_bulk_is_deferred_until_touched(populated):
    cache, _, key, partial = populated
    loaded = cache.load(key, "BR")
    assert loaded._hosts is None  # bulk still raw bytes
    assert loaded.hosts == partial.hosts  # materializes on demand
    assert loaded.urls == partial.urls
    assert loaded._load_bulk is None


def test_absent_entry_is_a_miss(populated):
    cache, _, _, _ = populated
    assert cache.load("0" * 32, "BR") is None
    assert cache.stats.misses == 1
    assert cache.stats.evicted == 0


def test_truncated_entry_evicted_and_recovered(populated):
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1
    assert not path.exists()


def test_corrupt_payload_evicted(populated):
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip a payload byte; digest check must catch it
    path.write_bytes(bytes(blob))
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1
    assert not path.exists()


def test_garbage_header_evicted(populated):
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    path.write_bytes(b"not a header\n" + b"\x00" * 16)
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1


def _split_entry(blob: bytes) -> tuple[dict, bytes]:
    newline = blob.find(b"\n")
    return json.loads(blob[:newline]), blob[newline + 1:]


def _join_entry(header: dict, payload: bytes) -> bytes:
    return json.dumps(header, sort_keys=True).encode() + b"\n" + payload


def _redigest(header: dict, payload: bytes) -> dict:
    """``header`` with the digest a format-6 writer would record: over
    every other header member (canonical JSON), a newline, the payload."""
    members = {name: value for name, value in header.items()
               if name != "digest"}
    blob = json.dumps(members, sort_keys=True).encode() + b"\n" + payload
    return dict(members,
                digest=hashlib.blake2b(blob, digest_size=16).hexdigest())


def test_digest_covers_the_header(populated):
    cache, _, key, _ = populated
    header, payload = _split_entry(_entry_path(cache, key).read_bytes())
    assert _redigest(header, payload) == header


@pytest.mark.parametrize("version", [CACHE_FORMAT_VERSION - 1,
                                     CACHE_FORMAT_VERSION + 1],
                         ids=["previous", "next"])
def test_stale_format_version_evicted(populated, version):
    # With a digest that verifies, only the version check evicts.
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    header, payload = _split_entry(path.read_bytes())
    header["format"] = version
    path.write_bytes(_join_entry(_redigest(header, payload), payload))
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1
    assert not path.exists()


@pytest.mark.parametrize("scan_s", ["fast", None, [1.5]],
                         ids=["string", "null", "list"])
def test_hand_edited_scan_s_evicted(populated, scan_s):
    # Even under a digest that verifies, the recorded scan cost is
    # checked like the other header fields, not trusted.
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    header, payload = _split_entry(path.read_bytes())
    header["scan_s"] = scan_s
    path.write_bytes(_join_entry(_redigest(header, payload), payload))
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1


def test_header_country_mismatch_evicted(populated):
    # The meta still decodes to BR, so only the header check evicts an
    # entry whose header names another country.
    cache, _, key, _ = populated
    path = _entry_path(cache, key)
    header, payload = _split_entry(path.read_bytes())
    header["country"] = "US"
    path.write_bytes(_join_entry(_redigest(header, payload), payload))
    assert cache.load(key, "BR") is None
    assert cache.stats.evicted == 1


def test_key_mismatch_evicted(populated):
    # An entry renamed (or hash-colliding) to a key it was not stored
    # under fails the header's key check.
    cache, _, key, _ = populated
    other = "f" * 32
    target = cache.cache_dir / other[:2] / f"{other}.partial"
    target.parent.mkdir(parents=True, exist_ok=True)
    _entry_path(cache, key).rename(target)
    assert cache.load(other, "BR") is None
    assert cache.stats.evicted == 1


def test_country_mismatch_evicted(populated):
    cache, pipeline, _, partial = populated
    us_key = _key(pipeline, "US")
    cache.store(us_key, partial)  # BR's partial filed under US's key
    assert cache.load(us_key, "US") is None
    assert cache.stats.evicted == 1


def test_recompute_after_eviction_round_trips(populated):
    cache, pipeline, key, partial = populated
    _entry_path(cache, key).write_bytes(b"torn")
    assert cache.load(key, "BR") is None
    cache.store(key, pipeline.scan_partial("BR"))
    assert cache.load(key, "BR") == partial


@pytest.mark.parametrize("step", ["write", "replace"])
def test_failed_store_removes_its_temp_file(populated, monkeypatch, step):
    cache, _, key, partial = populated

    def no_space(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    if step == "replace":
        monkeypatch.setattr(os, "replace", no_space)
    else:
        write_bytes = pathlib.Path.write_bytes

        def torn_write(path, data):
            write_bytes(path, data[: len(data) // 2])
            no_space()

        monkeypatch.setattr(pathlib.Path, "write_bytes", torn_write)
    with pytest.raises(OSError, match="No space"):
        cache.store(key, partial, scan_s=9.0)
    monkeypatch.undo()
    assert not list(cache.cache_dir.glob("*/*.tmp.*"))
    assert cache.stats.stores == 1
    # The entry stored earlier under the same key still serves hits.
    assert cache.load(key, "BR") == partial
    assert cache.stats.time_saved_s == pytest.approx(1.5)


def test_entry_count_and_clear(populated):
    cache, pipeline, _, partial = populated
    cache.store(_key(pipeline, "US"), partial)
    assert cache.entry_count() == 2
    assert cache.clear() == 2
    assert cache.entry_count() == 0


def test_stats_summary_renders():
    stats = ScanCache.__new__(ScanCache)  # summary needs only stats
    from repro.cache import CacheStats

    s = CacheStats(hits=3, misses=1, bytes_read=2048, time_saved_s=1.25)
    assert "3 hits, 1 misses (75% hit rate)" in s.summary()
    assert "2.0 KiB read" in s.summary()


def test_partial_pickles_with_bulk_forced(populated):
    # Process executors ship partials across process boundaries; a
    # deferred partial must materialize, not pickle its loader.
    cache, _, key, partial = populated
    lazy = cache.load(key, "BR")
    assert lazy._hosts is None
    clone = pickle.loads(pickle.dumps(lazy))
    assert isinstance(clone, CountryPartial)
    assert clone == partial
    assert clone._hosts is not None


def _small_partial() -> CountryPartial:
    hosts = {
        "www.gov.br": HostAnnotation(
            address=123456, asn=64500, organization="Serpro",
            registered_country="BR", gov_operated=True,
            server_country="BR", anycast=False,
            validation=ValidationMethod.ACTIVE_PROBING,
        ),
        "cdn.example": HostAnnotation(
            address=789, asn=13335, organization="Cloudflare, Inc.",
            registered_country="US", gov_operated=False,
            server_country=None, anycast=True,
            validation=ValidationMethod.MULTISTAGE,
        ),
    }
    urls = [
        ("https://www.gov.br/", "www.gov.br", 1000, FilterVia.TLD, 0),
        ("https://www.gov.br/a", "www.gov.br", 2048, FilterVia.DOMAIN, 1),
        # A hostname absent from hosts must still round-trip.
        ("https://stray.gov.br/", "stray.gov.br", 5, FilterVia.SAN, 2),
    ]
    return CountryPartial(
        country="BR", landing_count=1, discarded_url_count=0,
        unresolved_hostnames=[], depth_histogram={0: 3},
        hosts=hosts, urls=urls,
    )


def test_every_flip_and_truncation_evicts_or_loads_equal(tmp_path):
    """Single-bit flips at every byte, and every truncation length.

    Every damaged entry is evicted: the digest covers the payload and
    every header member but itself, and the digest member must match
    it, so no flip anywhere — ``country`` and ``scan_s`` included — can
    load, nor can any truncation.
    """
    partial = _small_partial()
    cache = ScanCache(tmp_path)
    key = "ab" * 16
    cache.store(key, partial, scan_s=0.5)
    path = _entry_path(cache, key)
    blob = path.read_bytes()
    damaged = [blob[:length] for length in range(len(blob))]
    for position in range(len(blob)):
        for bit in range(8):
            flipped = bytearray(blob)
            flipped[position] ^= 1 << bit
            damaged.append(bytes(flipped))

    for data in damaged:
        path.write_bytes(data)
        evicted = cache.stats.evicted
        assert cache.load(key, "BR") is None, data[:data.find(b"\n")]
        assert cache.stats.evicted == evicted + 1
        assert not path.exists()
    assert cache.stats.hits == 0
    assert cache.stats.time_saved_s == 0.0


#: What an entry's pickles depend on, per format version: the order of
#: the meta tuple, the dataclass field names of every class an entry
#: pickles and the member values of every enum.  ``HostAnnotation`` is
#: a slots dataclass, which pickles its field values by position, so a
#: reordered field would load into the wrong slot without any error.
#: A layout change therefore needs a new entry, and a new version.
LAYOUTS = {
    5: {
        "meta": (
            "country", "landing_count", "discarded_url_count",
            "unresolved_hostnames", "depth_histogram", "verdicts",
            "footprint", "faults",
        ),
        "repro.core.classification.ProviderFootprint": (
            "continents_by_asn",
        ),
        "repro.core.geolocation.GeoVerdict": (
            "address", "country", "method", "anycast", "claimed_country",
            "conflict", "source",
        ),
        "repro.core.geolocation.ValidationMethod": ("AP", "MG", "UR"),
        "repro.core.urlfilter.FilterVia": ("tld", "domain", "san"),
        "repro.exec.partials.HostAnnotation": (
            "address", "asn", "organization", "registered_country",
            "gov_operated", "server_country", "anycast", "validation",
        ),
        "repro.faults.report.DomainTally": (
            "injected", "retried", "recovered", "degraded", "backoff_ms",
        ),
        "repro.faults.report.FaultReport": ("countries",),
        "repro.world.regions.Continent": (
            "North America", "South America", "Europe", "Africa", "Asia",
            "Oceania",
        ),
    },
}
#: v6 changed what the digest covers, not what an entry pickles.
LAYOUTS[6] = LAYOUTS[5]


def _layout_of(cls) -> tuple:
    if issubclass(cls, enum.Enum):
        return tuple(member.value for member in cls)
    return tuple(field.name for field in dataclasses.fields(cls))


class _ClassRecorder(pickle.Unpickler):
    """Unpickles while noting every class the stream refers to."""

    def __init__(self, data: bytes, seen: set) -> None:
        super().__init__(io.BytesIO(data))
        self.seen = seen

    def find_class(self, module, name):
        self.seen.add(f"{module}.{name}")
        return super().find_class(module, name)


def test_entry_layout_is_pinned_to_the_format_version(populated):
    classes = (ProviderFootprint, GeoVerdict, ValidationMethod, FilterVia,
               HostAnnotation, DomainTally, FaultReport, Continent)
    current = {"meta": META_FIELDS}
    current.update({f"{cls.__module__}.{cls.__qualname__}": _layout_of(cls)
                    for cls in classes})
    assert LAYOUTS[CACHE_FORMAT_VERSION] == current

    # The pinned classes are exactly the ones a real entry pickles: a
    # scanned country, with a fault tally added.
    cache, _, key, partial = populated
    faults = FaultReport()
    faults.tally("BR", "dns").injected = 1
    partial.faults = faults
    cache.store(key, partial)
    header, payload = _split_entry(_entry_path(cache, key).read_bytes())
    seen: set = set()
    for segment in (payload[:header["meta_bytes"]],
                    payload[header["meta_bytes"]:]):
        _ClassRecorder(segment, seen).load()
    assert seen == set(current) - {"meta"}
