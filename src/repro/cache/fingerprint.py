"""Canonical cache-key derivation.

A cache entry is valid only for the exact scan inputs it was computed
from.  Since the generator is *per-country hermetic* (one country's
world slice is a pure function of the global knobs plus that country's
own override slice), the key splits the same way:

* :func:`global_fingerprint` digests every country-independent input —
  the :class:`~repro.datagen.config.WorldConfig` global fields (via
  :meth:`~repro.datagen.config.WorldConfig.canonical_global_dict`), the
  resolved :class:`~repro.faults.FaultPlan` (via
  :meth:`~repro.faults.FaultPlan.fingerprint_components`), the crawl
  ``max_depth`` and :data:`CACHE_FORMAT_VERSION`;
* :func:`country_slice_fingerprint` digests one country's slice of the
  config (its :class:`~repro.datagen.config.CountryOverride`, if any);
* :func:`country_key` combines both with the country code.

Neither the country *selection* nor any other country's override enters
a key, which is the incremental-snapshot guarantee: evolving one
country re-keys exactly that country, and every other country's entry
still hits.  Changing a global field (a fault rate, the scale, the
seed) still retires every entry, as before.

:func:`run_fingerprint` digests the *whole* config including selection
and overrides — it identifies a run (manifests, provenance chains), not
a cache entry.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.datagen.config import WorldConfig
    from repro.faults.plan import FaultPlan

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
CACHE_FORMAT_VERSION = 4


def _digest_payload(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode("utf-8"), digest_size=16).hexdigest()


def run_fingerprint(
    config: "WorldConfig", max_depth: int, plan: "FaultPlan"
) -> str:
    """Fingerprint of the complete run (config, faults, depth).

    Identifies a run in manifests and snapshot provenance chains; the
    scan cache keys entries by the global/slice split below instead.
    """
    return _digest_payload({
        "format": CACHE_FORMAT_VERSION,
        "world": config.canonical_dict(),
        "faults": plan.fingerprint_components(),
        "max_depth": int(max_depth),
    })


def global_fingerprint(
    config: "WorldConfig", max_depth: int, plan: "FaultPlan"
) -> str:
    """Fingerprint of everything a scan depends on except the country.

    Canonicalizing the config is the expensive part of key derivation,
    so callers derive this once per run and fan per-country keys out
    with :func:`country_key`.
    """
    return _digest_payload({
        "format": CACHE_FORMAT_VERSION,
        "world": config.canonical_global_dict(),
        "faults": plan.fingerprint_components(),
        "max_depth": int(max_depth),
    })


def country_slice_fingerprint(config: "WorldConfig", country: str) -> str:
    """Fingerprint of one country's slice of the config."""
    return _digest_payload(config.country_slice_dict(country))


def country_key(global_fp: str, country: str, slice_fp: str = "") -> str:
    """Entry key of one country's scan under a global fingerprint."""
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(global_fp.encode("ascii"))
    hasher.update(b"\x1f")
    hasher.update(country.upper().encode("utf-8"))
    hasher.update(b"\x1f")
    hasher.update(slice_fp.encode("ascii"))
    return hasher.hexdigest()


def scan_key(
    config: "WorldConfig",
    country: str,
    max_depth: int,
    plan: "FaultPlan",
) -> str:
    """Content address of one country's phase-1 scan result."""
    return country_key(
        global_fingerprint(config, max_depth, plan),
        country,
        country_slice_fingerprint(config, country),
    )


__all__ = [
    "CACHE_FORMAT_VERSION",
    "country_key",
    "country_slice_fingerprint",
    "global_fingerprint",
    "run_fingerprint",
    "scan_key",
]
