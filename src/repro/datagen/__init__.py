"""Deterministic synthetic-world generation.

Builds a complete synthetic Internet -- ASes, prefixes, DNS, TLS,
government sites, measurement databases -- calibrated by the
per-country hosting profiles.  Everything derives from a single master
seed, so worlds are fully reproducible.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.datagen.config": ["WorldConfig"],
    "repro.datagen.seeds": ["derive_seed", "derive_rng"],
    "repro.datagen.generator": ["SyntheticWorld", "GroundTruth", "HostTruth"],
})
