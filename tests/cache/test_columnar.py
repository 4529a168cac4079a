"""Columnar bulk codec: exact round trips, and the cache's only codec."""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest

from repro.cache.columnar import decode_bulk, encode_bulk
from repro.cache.store import ScanCache
from repro.core.geolocation import ValidationMethod
from repro.core.urlfilter import FilterVia
from repro.exec.partials import HostAnnotation


def _hosts():
    return {
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


def _urls():
    return [
        ("https://www.gov.br/", "www.gov.br", 1000, FilterVia.TLD, 0),
        ("https://www.gov.br/a", "www.gov.br", 2048, FilterVia.DOMAIN, 1),
        # A hostname absent from hosts must still round-trip.
        ("https://stray.gov.br/", "stray.gov.br", 5, FilterVia.SAN, 2),
    ]


def test_roundtrip_exact():
    hosts, urls = _hosts(), _urls()
    decoded_hosts, decoded_urls = decode_bulk(encode_bulk(hosts, urls))
    assert decoded_hosts == hosts
    assert list(decoded_hosts) == list(hosts)  # key order preserved
    assert decoded_urls == urls
    for observed in decoded_urls:
        assert isinstance(observed, tuple)
        assert isinstance(observed[2], int) and isinstance(observed[4], int)


def test_roundtrip_empty():
    assert decode_bulk(encode_bulk({}, [])) == ({}, [])


def test_encode_rejects_foreign_enums():
    urls = [("https://x/", "x", 1, "not-a-via", 0)]
    with pytest.raises(Exception):
        encode_bulk({}, urls)


def test_decode_rejects_truncation():
    blob = encode_bulk(_hosts(), _urls())
    with pytest.raises(ValueError):
        decode_bulk(blob[:-3])


def test_decode_rejects_inconsistent_counts():
    blob = bytearray(encode_bulk(_hosts(), _urls()))
    # Corrupt the meta section's host count.
    meta_start = blob.find(b'{"countries"')
    assert meta_start > 0
    patched = blob.replace(b'"hosts": 2', b'"hosts": 1')
    with pytest.raises(ValueError):
        decode_bulk(bytes(patched))


def _stored_entry(cache, partial):
    cache.store("ab" * 16, partial, scan_s=0.5)
    path = cache._entry_path("ab" * 16)
    blob = path.read_bytes()
    newline = blob.find(b"\n")
    return path, json.loads(blob[:newline]), blob[newline + 1:]


def test_cache_stores_columnar_and_loads_equal(tmp_path, dataset):
    from repro.exec.partials import CountryPartial

    partial = CountryPartial(
        country="BR", landing_count=1, discarded_url_count=0,
        unresolved_hostnames=[], depth_histogram={0: 3},
        hosts=_hosts(), urls=_urls(),
    )
    cache = ScanCache(tmp_path)
    _, header, payload = _stored_entry(cache, partial)
    assert decode_bulk(payload[header["meta_bytes"]:]) == (_hosts(), _urls())
    loaded = cache.load("ab" * 16, "BR")
    assert loaded == partial
    assert loaded.hosts == partial.hosts
    assert loaded.urls == partial.urls


def test_cache_refuses_partials_outside_the_columnar_model(tmp_path):
    from repro.exec.partials import CountryPartial

    # A stringly via is outside the FilterVia code space: encode_bulk
    # raises, and with no second codec nothing may reach the disk.
    partial = CountryPartial(
        country="BR", landing_count=0, discarded_url_count=0,
        unresolved_hostnames=[], depth_histogram={},
        hosts={}, urls=[("https://x/", "x", 1, "not-a-via", 0)],
    )
    cache = ScanCache(tmp_path)
    with pytest.raises(KeyError):
        cache.store("ab" * 16, partial, scan_s=0.5)
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
    assert cache.stats.stores == 0
    assert cache.load("ab" * 16, "BR") is None


def test_unknown_bulk_codec_evicts(tmp_path):
    from repro.exec.partials import CountryPartial

    partial = CountryPartial(
        country="BR", landing_count=0, discarded_url_count=0,
        unresolved_hostnames=[], depth_histogram={},
        hosts=_hosts(), urls=_urls(),
    )
    cache = ScanCache(tmp_path)
    path, header, payload = _stored_entry(cache, partial)
    # Rewrite the entry the way format 3 could: a pickled bulk flagged
    # in the header, with a digest that verifies.  It must miss instead
    # of reaching the columnar decoder.
    meta = payload[:header["meta_bytes"]]
    bulk = pickle.dumps((partial.hosts, partial.urls))
    payload = meta + bulk
    header.update(format=3, bulk="pickle", bulk_bytes=len(bulk),
                  digest=hashlib.blake2b(payload, digest_size=16).hexdigest())
    path.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n"
                     + payload)
    assert cache.load("ab" * 16, "BR") is None
    assert cache.stats.evicted == 1
    assert not path.exists()
