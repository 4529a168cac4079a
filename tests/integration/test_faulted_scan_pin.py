"""A faulted scan of every country, pinned byte for byte.

``GOLDEN_STORE_SHA256`` (``tests/store/test_roundtrip.py``) pins the
store of three countries without faults.  This pins a whole-world run
under fault injection: the jsonl's sha256 and the counters its
``--metrics-out`` records (crawl, filter, resolve, geolocation funnel
and fault accounting).  Serial and ``--workers 2`` runs write the same
bytes and counters.
"""

import hashlib
import json

from repro.cli import main

#: sha256 of ``run --scale 0.01 --seed 7 --fault-rate 0.2 --out``.
FAULTED_JSONL_SHA256 = (
    "a25aa858e5754c456a4cfc161eff77d0f21207aa40344732a3f4fa0120177102"
)

#: The ``counters`` object of that run's ``--metrics-out``.
FAULTED_COUNTERS = {
    "crawl.failed_urls": 0,
    "crawl.fetched_urls": 10813,
    "crawl.page_loads": 1748,
    "directory.landing_urls": 233,
    "faults.backoff_ms": 67700.0,
    "faults.degraded": 120,
    "faults.injected": 699,
    "faults.operations": 3338,
    "faults.recovered": 453,
    "faults.retried": 579,
    "filter.accepted_urls": 9860,
    "filter.discarded_urls": 953,
    "filter.via.domain": 6859,
    "filter.via.san": 8,
    "filter.via.tld": 2993,
    "geo.addresses": 201,
    "geo.funnel.active_probing": 93,
    "geo.funnel.anycast": 12,
    "geo.funnel.anycast_in_country": 12,
    "geo.funnel.conflict": 1,
    "geo.funnel.excluded": 7,
    "geo.funnel.hoiho": 82,
    "geo.funnel.ipinfo_claimed": 201,
    "geo.funnel.ipmap": 7,
    "geo.lookups": 233,
    "resolve.resolved_hosts": 233,
    "resolve.unresolved_hostnames": 8,
}


def test_faulted_whole_world_scan_is_pinned(tmp_path, capsys):
    out = tmp_path / "faulted.jsonl"
    metrics = tmp_path / "metrics.json"
    assert main(["run", "--scale", "0.01", "--seed", "7",
                 "--fault-rate", "0.2", "--out", str(out),
                 "--metrics-out", str(metrics)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        FAULTED_JSONL_SHA256
    assert json.loads(metrics.read_text())["counters"] == FAULTED_COUNTERS
