"""ScenarioMatrix: axis validation, compilation and the JSON form."""

from __future__ import annotations

import json

import pytest

from repro import WorldConfig
from repro.scenarios import (
    BASELINE_NAME,
    SCENARIO_KINDS,
    MatrixError,
    Scenario,
    ScenarioMatrix,
)
from tests.scenarios.conftest import make_base


def test_compile_is_baseline_first():
    matrix = ScenarioMatrix(make_base())
    matrix.add_faults("stress", rate=0.2)
    matrix.add_outage("cf", provider="cloudflare")
    scenarios = matrix.compile()
    assert [s.name for s in scenarios] == [BASELINE_NAME, "stress", "cf"]
    assert scenarios[0].kind == "baseline"
    assert scenarios[0].config is matrix.base
    assert len(matrix) == 3


def test_duplicate_and_reserved_names_rejected():
    matrix = ScenarioMatrix(make_base())
    matrix.add_faults("stress", rate=0.2)
    with pytest.raises(MatrixError, match="duplicate"):
        matrix.add_outage("stress", provider="cloudflare")
    with pytest.raises(MatrixError, match="duplicate"):
        matrix.add_faults(BASELINE_NAME, rate=0.1)


def test_unknown_kind_rejected():
    with pytest.raises(MatrixError, match="unknown scenario kind"):
        Scenario(name="x", kind="chaos", config=make_base())


def test_faults_axis_validation():
    matrix = ScenarioMatrix(make_base())
    with pytest.raises(MatrixError, match="unknown fault profile"):
        matrix.add_faults("x", rate=0.2, profile="gremlins")
    with pytest.raises(MatrixError, match="rate in"):
        matrix.add_faults("x", rate=0.0)
    scenario = matrix.add_faults("dns", rate=0.3, profile="dns")
    assert scenario.config.fault_rate == 0.3
    assert scenario.config.fault_profile == "dns"


def test_outage_shares_the_baseline_config_object():
    matrix = ScenarioMatrix(make_base())
    scenario = matrix.add_outage("cf", provider="cloudflare")
    assert scenario.config is matrix.base
    assert scenario.outage_asns == (13335,)
    assert scenario.outage_names == ("Cloudflare",)


def test_outage_validation():
    matrix = ScenarioMatrix(make_base())
    with pytest.raises(MatrixError, match="exactly one"):
        matrix.add_outage("x")
    with pytest.raises(MatrixError, match="exactly one"):
        matrix.add_outage("x", provider="cloudflare", asn=13335)
    with pytest.raises(MatrixError, match="unknown provider"):
        matrix.add_outage("x", provider="clodflare")
    scenario = matrix.add_outage("raw", asn=16509)
    assert scenario.outage_names == ("AS16509",)


def test_evolution_axis_changes_the_config():
    matrix = ScenarioMatrix(make_base())
    scenario = matrix.add_evolution("next", steps=1)
    assert scenario.config != matrix.base
    assert scenario.config.country_codes() == matrix.base.country_codes()
    with pytest.raises(MatrixError, match="steps >= 1"):
        matrix.add_evolution("x", steps=0)


def test_from_json_round_trip():
    document = json.dumps({
        "base": {"scale": 0.01, "countries": ["US", "DE", "SG"]},
        "scenarios": [
            {"name": "dns", "kind": "faults", "rate": 0.2,
             "profile": "dns"},
            {"name": "cf", "kind": "outage", "provider": "cloudflare"},
            {"name": "next", "kind": "evolution", "steps": 2},
        ],
    })
    matrix = ScenarioMatrix.from_json(document, base=WorldConfig(seed=7))
    scenarios = matrix.compile()
    assert [s.name for s in scenarios] == \
        [BASELINE_NAME, "dns", "cf", "next"]
    assert matrix.base.seed == 7
    assert matrix.base.scale == 0.01


def test_from_json_error_mapping():
    with pytest.raises(MatrixError, match="not valid JSON"):
        ScenarioMatrix.from_json("{nope")
    with pytest.raises(MatrixError, match="unknown kind"):
        ScenarioMatrix.from_dict(
            {"scenarios": [{"name": "x", "kind": "chaos"}]}
        )
    with pytest.raises(MatrixError, match="missing field"):
        ScenarioMatrix.from_dict(
            {"scenarios": [{"name": "x", "kind": "faults"}]}
        )
    with pytest.raises(MatrixError, match="bad matrix base"):
        ScenarioMatrix.from_dict({"base": {"no_such_field": 1}})


def test_from_dict_rejects_the_vantage_kind():
    """Every scan connects at the capital exit, so a matrix asking for
    another exit is an unknown kind, named with the kinds that exist."""
    assert SCENARIO_KINDS == ("baseline", "faults", "outage", "evolution")
    with pytest.raises(MatrixError) as excinfo:
        ScenarioMatrix.from_dict({"scenarios": [
            {"name": "alts", "kind": "vantage", "countries": "all",
             "rank": 1},
        ]}, base=make_base())
    assert str(excinfo.value) == (
        "scenario 'alts' has unknown kind 'vantage'; expected one of "
        "faults, outage, evolution"
    )
