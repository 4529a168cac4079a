"""The served bytes are pinned: sha256 of each answer's canonical JSON
(``json.dumps(answer, sort_keys=True)``, the bytes the gateway writes)
over the session ``tiny_dataset`` (scale 0.05, seed 7, BR/US/FR).

A change to how answers are built must reproduce every digest; a change
that means to move an answer's bytes updates its digest here and says
why.  Error bodies are hashed as the gateway writes them,
``{"error": exc.to_dict()}``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.serve import RequestError

#: (endpoint, payload, sha256 of the answer's canonical JSON).
PINNED_ANSWERS = [
    ("summary", {},
     "3c8e6590eaaa707c1cf77231326ad5c02ce673f1a8cf9212523b85b80575e8a6"),
    ("categories", {"country": "BR", "weighting": "urls"},
     "dc737cdefa8a2519b73e6b87c84fbb460bc28acd2362b30bd45bc4c9772cb637"),
    ("categories", {"country": "FR", "weighting": "bytes"},
     "e59adc6adc66fa67722db648af88f293bf22ba65bc9a52e01163d2eb42c5da6a"),
    ("crossborder", {"basis": "server"},
     "f133cdeedcb7433a31d8fe5d2dd8466e03f1e1ad5db1b555b668e5ac5ff98630"),
    ("crossborder", {"basis": "registration"},
     "990819481a62b5e638b2ac5c0d3cce9db18a8918903bc35ea61cde8f7c7126b0"),
    ("crossborder", {"sources": "US,FR"},
     "cb370a1667b8ca45b86a8d143c840eab9285025d2f86e0706f4b2813e77b899e"),
    ("providers", {"top": 3},
     "fc7a0091df592950c0c0ac3f253604bf682fa1c06ae1d42d25e391356409add6"),
    ("providers", {"top": 1000},
     "1fd8fabb61ba20bcb7963cad310ace3e851142cbb7be16906e2ec74f02232408"),
    ("report", {"section": "summary"},
     "d5a81c9449e5c735e63f6d1251cdfb6763a6ab682d7f6ef7869420732ceb9800"),
    ("report", {"section": "global"},
     "ec589b37896c53f6ae63d8a1f3aa34f99e88a007e42042343c0def4c649c7271"),
    ("report", {"section": "regional"},
     "0817afe8e008291521a9f4220198dc46321aafce37eaa8040a6265d9663508e0"),
    ("report", {"section": "domestic"},
     "0ea990e974750f892aac2acef7263efd48d638d890bbe67935eb5be27bfa9d29"),
    ("report", {"section": "providers"},
     "dbb0df9a986256d0ef0c10616645390e11c5ef6bd24383dbff8180e39c209b11"),
    ("report", {"section": "diversification"},
     "a833cc92d6d229c62259eff76daf89fee37ebb69818845f868a07854be3293d9"),
    ("report", {"section": "trends"},
     "14ba7c19c6a3817749e22bf972bc3ba742d7b5eaad8ba27deaf0f01758d4eb98"),
    ("report", {"section": "full"},
     "e151c8eb7a01dff79ea4da6337667a33991b1a0fb95e0a579ff666e9b00fae98"),
    ("trends", {},
     "7792f60395abb858580536223d6484fcedfbba2e511ddafb323a5d23e6903432"),
    ("trends", {"country": "BR"},
     "494f8883aae5f65336f59bb84255589143cf026cc3ea042d859b43316f562bd0"),
]

#: (endpoint, payload, error code, sha256 of the gateway's error body).
PINNED_ERRORS = [
    ("categories", {"country": "ZZ"}, "unknown-country",
     "6ffaab14be9054c05333639afec0f27bf9c0309174e2cf2a34277731aac9a8ec"),
    ("report", {"section": "appendix"}, "bad-choice",
     "e29ef8c319d320f65eca5881e8f13e0b3d99901eb0b9e68f578a28f8380fb3eb"),
    ("everything", {}, "unknown-endpoint",
     "68252c0f3446b180113cf2c2715ec976f32edf88bbfd1665e467a91ec3653e9e"),
]


def _sha256(answer: dict) -> str:
    text = json.dumps(answer, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "endpoint, payload, digest", PINNED_ANSWERS,
    ids=[f"{endpoint}-{json.dumps(payload, sort_keys=True)}"
         for endpoint, payload, _ in PINNED_ANSWERS])
def test_answer_bytes_are_pinned(service, endpoint, payload, digest):
    assert _sha256(service.query(endpoint, payload)) == digest


@pytest.mark.parametrize(
    "endpoint, payload, code, digest", PINNED_ERRORS,
    ids=[code for _, _, code, _ in PINNED_ERRORS])
def test_error_bytes_are_pinned(service, endpoint, payload, code, digest):
    with pytest.raises(RequestError) as excinfo:
        service.query(endpoint, payload)
    assert excinfo.value.code == code
    assert _sha256({"error": excinfo.value.to_dict()}) == digest


@pytest.mark.parametrize("endpoint, payload, mutate", [
    ("crossborder", {"basis": "server"},
     lambda answer: answer["flows"].clear()),
    ("crossborder", {"sources": "BR"},
     lambda answer: answer["flows"][0].update(url_count=-1)),
    ("summary", {},
     lambda answer: answer["summary"].__setitem__("ases", -1)),
    ("providers", {"top": 3},
     lambda answer: answer["providers"][0]["countries"].clear()),
    ("categories", {"country": "BR"},
     lambda answer: answer["mix"].clear()),
    ("trends", {},
     lambda answer: answer["report"]["hhi_series"]["BR"].clear()),
], ids=["flows", "flow", "summary", "providers", "mix", "trends"])
def test_mutating_an_answer_leaves_the_next_answer_unchanged(
        service, endpoint, payload, mutate):
    before = _sha256(service.query(endpoint, payload))
    mutate(service.query(endpoint, payload))
    assert _sha256(service.query(endpoint, payload)) == before
