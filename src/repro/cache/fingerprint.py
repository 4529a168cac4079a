"""Canonical cache-key derivation.

A scan is identified by its :class:`~repro.datagen.config.WorldConfig`
alone: every function here takes the config and derives the rest
itself — the fault plan (:meth:`~repro.faults.FaultPlan.from_config`)
and the crawl depth (the paper's seven levels,
:data:`~repro.core.crawler.DEFAULT_MAX_DEPTH`) — so this module alone
decides what a scan's identity is.  Since the generator is
*per-country hermetic* (one country's world slice is a pure function of
the global knobs plus that country's own override slice), the key
splits the same way:

* :func:`global_fingerprint` digests every country-independent input —
  the config's global fields (via
  :meth:`~repro.datagen.config.WorldConfig.canonical_global_dict`), the
  resolved fault plan (via
  :meth:`~repro.faults.FaultPlan.fingerprint_components`), the crawl
  depth and :data:`CACHE_FORMAT_VERSION`;
* :func:`country_slice_fingerprint` digests one country's slice of the
  config (its :class:`~repro.datagen.config.CountryOverride`, if any);
* :func:`country_key` combines both with the country code;
* :func:`scan_keys` derives a run's keys: one global fingerprint, one
  country key per selected country.  ``Pipeline.run``, the scenario
  sweep and the snapshot series all key through it.

Neither the country *selection* nor any other country's override enters
a key, which is the incremental-snapshot guarantee: evolving one
country re-keys exactly that country, and every other country's entry
still hits.  Changing a global field (a fault rate, the scale, the
seed) still retires every entry, as before.

:func:`run_fingerprint` digests the *whole* config including selection
and overrides, but not the format version — it identifies a run
(manifests, provenance chains), not a cache entry.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Sequence

from repro.core.crawler import DEFAULT_MAX_DEPTH
from repro.faults.plan import FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.config import WorldConfig

#: Version of the on-disk entry format *and* of the fingerprint scheme.
#: Bump whenever :class:`~repro.exec.partials.CountryPartial` or the
#: key derivation changes; every older entry then misses harmlessly.
#: v2: GeoVerdict grew a ``source`` field (geolocation funnel step),
#: changing the pickled layout of the meta segment's verdicts.
#: v3: keys split into global + per-country-slice fingerprints (the
#: incremental snapshot scheme) and the generator's numbering plan
#: became per-country hermetic, changing every generated world.
#: v4: the bulk segment is always columnar and the header lost its
#: ``bulk`` codec field, so a v3 entry (which may hold a pickled bulk)
#: must miss rather than reach the columnar decoder.
#: v5: the bulk segment is a pickle of ``(hosts, urls)``, like the
#: meta segment, so a v4 entry (whose bulk is columnar) must miss
#: rather than reach ``pickle.loads``.
#: v6: the entry digest covers every header member but itself, where
#: a v5 digest covers only the payload and leaves the header's
#: ``country`` and ``scan_s`` unverified.
CACHE_FORMAT_VERSION = 6


def _digest_payload(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def _digest_config(config: "WorldConfig", world: dict, **extra) -> str:
    """Digest ``world`` (a canonical form of ``config``) with the scan
    inputs the config implies: its fault plan and the crawl depth."""
    return _digest_payload({
        **extra,
        "world": world,
        "faults": FaultPlan.from_config(config).fingerprint_components(),
        "max_depth": DEFAULT_MAX_DEPTH,
    })


def run_fingerprint(config: "WorldConfig") -> str:
    """Fingerprint of the complete run (the whole config).

    Identifies a run in manifests and snapshot provenance chains; the
    scan cache keys entries by the global/slice split below instead.
    The format version is left out: a cache layout change re-keys every
    entry, not the runs.
    """
    return _digest_config(config, config.canonical_dict())


def global_fingerprint(config: "WorldConfig") -> str:
    """Fingerprint of everything a scan depends on except the country.

    Canonicalizing the config is the expensive part of key derivation,
    so :func:`scan_keys` derives this once per run and fans per-country
    keys out with :func:`country_key`.
    """
    return _digest_config(config, config.canonical_global_dict(),
                          format=CACHE_FORMAT_VERSION)


def country_slice_fingerprint(config: "WorldConfig", country: str) -> str:
    """Fingerprint of one country's slice of the config."""
    return _digest_payload(config.country_slice_dict(country))


def country_key(global_fp: str, country: str, slice_fp: str) -> str:
    """Entry key of one country's scan under a global fingerprint."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(global_fp.encode("ascii"))
    hasher.update(b"\x1f")
    hasher.update(country.upper().encode("utf-8"))
    hasher.update(b"\x1f")
    hasher.update(slice_fp.encode("ascii"))
    return hasher.hexdigest()


def scan_keys(config: "WorldConfig", countries: Sequence[str]) -> list[str]:
    """Content address of each country's phase-1 scan result.

    One global fingerprint, then one :func:`country_key` per country,
    in the order given.  Needs no generated world, only the config.
    """
    global_fp = global_fingerprint(config)
    return [
        country_key(global_fp, country,
                    country_slice_fingerprint(config, country))
        for country in countries
    ]


__all__ = [
    "CACHE_FORMAT_VERSION",
    "country_key",
    "country_slice_fingerprint",
    "global_fingerprint",
    "run_fingerprint",
    "scan_keys",
]
