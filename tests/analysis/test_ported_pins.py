"""Pinned results of the analyses that read the host table.

``calibrate``, ``country_signatures``, ``affordability_ranking`` and
``affordability_gap`` once walked a per-URL record list.  Each digest
below was recorded from those record loops over the shared session
dataset (seed 42, scale 0.04): as the pipeline built it, loaded back
from its jsonl export, and opened from a store written from it.  Every
form must still reproduce every digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.affordability import (
    affordability_gap,
    affordability_ranking,
)
from repro.analysis.clustering import country_signatures
from repro.datagen.calibration import calibrate
from repro.io import load_dataset, save_dataset
from repro.store import load_store_dataset, write_store

#: sha256 of each quantity's parts; the same for every dataset form.
PINS = {
    "affordability":
        "2d7f273b52b88f6b0b87e6ec8bd85f563a493d61771c44e6ec3f28312511f32f",
    "calibrate":
        "4f269b0999b2ca7477e56ca1e2bbb9ca6db1ec83fad72aa2661f225e874470ce",
    "signatures":
        "67ee7f0837e2bc94c45db0195c5d2e372bb93279ec07619d830137a6baaa4d16",
}

FORMS = ("built", "jsonl", "store")


@pytest.fixture(scope="module")
def forms(dataset, tmp_path_factory) -> dict:
    """The session dataset as built, as loaded from jsonl, and as a store."""
    directory = tmp_path_factory.mktemp("pins")
    save_dataset(dataset, directory / "session.jsonl")
    write_store(dataset, directory / "session.store")
    return {
        "built": dataset,
        "jsonl": load_dataset(directory / "session.jsonl"),
        "store": load_store_dataset(directory / "session.store"),
    }


def _digest(*parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else part.encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _signature_parts(dataset, by_bytes: bool) -> tuple:
    codes, signatures = country_signatures(dataset, by_bytes=by_bytes)
    return (" ".join(codes), signatures.tobytes())


QUANTITIES = {
    "calibrate": lambda d: _digest(repr(calibrate(d)),
                                   repr(calibrate(d, drift=0.1))),
    "signatures": lambda d: _digest(*_signature_parts(d, False),
                                    *_signature_parts(d, True)),
    "affordability": lambda d: _digest(repr(affordability_ranking(d)),
                                       repr(affordability_gap(d))),
}


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("quantity", sorted(QUANTITIES))
def test_ported_analysis_pinned(forms, form, quantity):
    assert QUANTITIES[quantity](forms[form]) == PINS[quantity]
