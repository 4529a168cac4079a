"""VpnCatalog error quality and the fault layer's alternate exit."""

from __future__ import annotations

import pytest

from repro.measure.vpn import UnknownVantageError, VpnCatalog


@pytest.fixture(scope="module")
def catalog() -> VpnCatalog:
    return VpnCatalog()


def test_unknown_country_error_names_code_and_lists_catalog(catalog):
    with pytest.raises(UnknownVantageError) as excinfo:
        catalog.vantage_for("XX")
    message = str(excinfo.value)
    assert "no VPN vantage for country 'XX'" in message
    assert "US" in message and "DE" in message
    assert f"{len(catalog)} countries available" in message


def test_error_is_still_a_keyerror(catalog):
    # Pre-existing call sites catch KeyError; the richer error must
    # keep satisfying them.
    with pytest.raises(KeyError):
        catalog.vantages_of("ZZ")
    # ...without KeyError's repr()-quoting mangling the message.
    error = UnknownVantageError("plain words")
    assert str(error) == "plain words"
    assert error.message == "plain words"


def test_lookups_normalize_case(catalog):
    assert catalog.vantage_for("us") == catalog.vantage_for("US")
    assert catalog.vantages_of("de") == catalog.vantages_of("DE")


def test_primary_exit_is_rank_zero(catalog):
    exits = catalog.vantages_of("US")
    assert exits[0] == catalog.vantage_for("US")
    assert len({vantage.city for vantage in exits}) == len(exits)
    assert all(vantage.country == "US" for vantage in exits)
    assert all(
        vantage.provider == exits[0].provider for vantage in exits
    )


def test_fallback_moves_to_the_next_exit_when_one_exists(catalog):
    exits = catalog.vantages_of("US")
    assert len(exits) >= 2
    assert catalog.fallback_vantage("US") == exits[1]


def test_fallback_of_single_exit_country_is_the_primary(catalog):
    exits = catalog.vantages_of("SG")
    assert len(exits) == 1
    assert catalog.fallback_vantage("SG") == exits[0]
