"""Typed request schemas of the query service.

Requests are frozen dataclasses built from untrusted JSON via
``from_mapping``: unknown fields, wrong types, out-of-range values and
bad enum choices all raise :class:`~repro.serve.errors.RequestError`
with the offending field named, so the gateway can answer a structured
4xx without ever touching the index.  Semantic checks that need the
dataset (is this country in the sample?) live in the service.

Answers have no schema classes: each service handler returns the
JSON-ready dict itself, built fresh per request from the (immutable,
memoized) index tables, which is what makes concurrent answers
byte-identical to serial ones.

Query-string friendliness: integers accept decimal strings and list
fields accept comma-separated strings, so ``GET /v1/providers?top=5``
and ``POST {"top": 5}`` validate identically.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence

from repro.reporting.sections import SECTION_NAMES
from repro.serve.errors import RequestError

#: Destination bases of the cross-border flow table.
BASIS_CHOICES = ("server", "registration")

#: Weightings of the per-country category mix.
WEIGHTING_CHOICES = ("urls", "bytes")

#: Hard cap on ``providers.top`` -- far above the 28 modeled Global
#: providers; rejects absurd requests, never real ones.
MAX_TOP = 1000


def _reject_unknown_fields(data: Mapping, allowed: Sequence[str]) -> None:
    for key in data:
        if key not in allowed:
            raise RequestError(
                "unknown-field",
                f"unknown request field {key!r}; expected "
                f"{', '.join(allowed) if allowed else 'an empty request'}",
                field=str(key),
            )


def _string(data: Mapping, field: str, *, default: Optional[str] = None,
            required: bool = False,
            choices: Optional[Sequence[str]] = None) -> Optional[str]:
    if field not in data:
        if required:
            raise RequestError("missing-field",
                               f"required field {field!r} is missing",
                               field=field)
        return default
    value = data[field]
    if not isinstance(value, str):
        raise RequestError("bad-type",
                           f"field {field!r} must be a string",
                           field=field)
    if choices is not None and value not in choices:
        raise RequestError(
            "bad-choice",
            f"field {field!r} must be one of {', '.join(choices)} "
            f"(got {value!r})",
            field=field,
        )
    return value


def _integer(data: Mapping, field: str, *, default: int,
             minimum: int, maximum: int) -> int:
    if field not in data:
        return default
    value = data[field]
    if isinstance(value, str) and value.removeprefix("-").isdecimal():
        try:
            value = int(value)  # query-string form
        except ValueError:  # past int()'s digit limit; bad-type below
            pass
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError("bad-type",
                           f"field {field!r} must be an integer",
                           field=field)
    if not minimum <= value <= maximum:
        raise RequestError(
            "out-of-range",
            f"field {field!r} must be between {minimum} and {maximum} "
            f"(got {value})",
            field=field,
        )
    return value


def _string_list(data: Mapping, field: str) -> tuple[str, ...]:
    if field not in data:
        return ()
    value = data[field]
    if isinstance(value, str):
        value = [part for part in value.split(",") if part]  # query-string
    if not isinstance(value, (list, tuple)) or \
            not all(isinstance(item, str) for item in value):
        raise RequestError("bad-type",
                           f"field {field!r} must be a list of strings",
                           field=field)
    return tuple(value)


# ------------------------------------------------------------- requests

@dataclasses.dataclass(frozen=True)
class SummaryRequest:
    """Table 3 headline numbers; takes no parameters."""

    @classmethod
    def from_mapping(cls, data: Mapping) -> "SummaryRequest":
        _reject_unknown_fields(data, ())
        return cls()


@dataclasses.dataclass(frozen=True)
class CategoryMixRequest:
    """Per-country category mix (the country's Figure 2 slice)."""

    country: str
    weighting: str = "urls"

    @classmethod
    def from_mapping(cls, data: Mapping) -> "CategoryMixRequest":
        _reject_unknown_fields(data, ("country", "weighting"))
        return cls(
            country=_string(data, "country", required=True),
            weighting=_string(data, "weighting", default="urls",
                              choices=WEIGHTING_CHOICES),
        )


@dataclasses.dataclass(frozen=True)
class CrossborderRequest:
    """Cross-border flows of a source-country set (Figure 9 slice).

    An empty ``sources`` means every country in the dataset.
    """

    sources: tuple[str, ...] = ()
    basis: str = "server"

    @classmethod
    def from_mapping(cls, data: Mapping) -> "CrossborderRequest":
        _reject_unknown_fields(data, ("sources", "basis"))
        return cls(
            sources=_string_list(data, "sources"),
            basis=_string(data, "basis", default="server",
                          choices=BASIS_CHOICES),
        )


@dataclasses.dataclass(frozen=True)
class ProvidersRequest:
    """Top-N Global provider footprints (Figure 10 slice)."""

    top: int = 10

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ProvidersRequest":
        _reject_unknown_fields(data, ("top",))
        return cls(top=_integer(data, "top", default=10,
                                minimum=1, maximum=MAX_TOP))


@dataclasses.dataclass(frozen=True)
class TrendsRequest:
    """Longitudinal trend curves over the service's snapshot series.

    ``country`` (optional) restricts the per-country series to one
    country; the aggregate curves are always included.
    """

    country: Optional[str] = None

    @classmethod
    def from_mapping(cls, data: Mapping) -> "TrendsRequest":
        _reject_unknown_fields(data, ("country",))
        return cls(country=_string(data, "country"))


@dataclasses.dataclass(frozen=True)
class ReportRequest:
    """One named report fragment, byte-identical to the batch path."""

    section: str

    @classmethod
    def from_mapping(cls, data: Mapping) -> "ReportRequest":
        _reject_unknown_fields(data, ("section",))
        return cls(section=_string(data, "section", required=True,
                                   choices=SECTION_NAMES))


#: Endpoint name -> request schema; the service maps the same names
#: to its handlers.
QUERY_ENDPOINTS: dict[str, type] = {
    "summary": SummaryRequest,
    "categories": CategoryMixRequest,
    "crossborder": CrossborderRequest,
    "providers": ProvidersRequest,
    "report": ReportRequest,
    "trends": TrendsRequest,
}


__all__ = [
    "BASIS_CHOICES",
    "CategoryMixRequest",
    "CrossborderRequest",
    "MAX_TOP",
    "ProvidersRequest",
    "QUERY_ENDPOINTS",
    "ReportRequest",
    "SummaryRequest",
    "TrendsRequest",
    "WEIGHTING_CHOICES",
]
