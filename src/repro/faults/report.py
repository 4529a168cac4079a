"""Fault accounting: per-country, per-domain tallies.

Every injected fault, retry and degradation in a faulted pipeline run is
counted here.  Like :class:`~repro.core.classification.ProviderFootprint`
and :class:`~repro.core.geolocation.ValidationStats`, the report forms a
commutative monoid under :meth:`FaultReport.merge` (identity: the empty
report), so per-shard reports from parallel executions can be reduced in
any grouping without changing the result.

The bookkeeping invariant, per tally::

    injected == retried + degraded

holds because a recovered episode retried once per injected fault, while
a degraded episode exhausted its retries with one final unretried
failure (non-retryable domains count every fault as degraded directly).
"""

from __future__ import annotations

import dataclasses
import json
import math
from typing import Iterator


@dataclasses.dataclass
class DomainTally:
    """Counts for one fault domain (probe timeouts, VPN exits, ...)."""

    #: Individual faults injected (failed attempts).
    injected: int = 0
    #: Retry attempts issued after a failed attempt.
    retried: int = 0
    #: Episodes that succeeded on a retry.
    recovered: int = 0
    #: Episodes (or unretryable faults) that exhausted recovery and fell
    #: back to a degraded path (unresolved address, fallback vantage, ...).
    degraded: int = 0
    #: Simulated backoff time spent on retries (no wall-clock sleeps).
    backoff_ms: float = 0.0

    def merge(self, other: "DomainTally") -> "DomainTally":
        """Component-wise sum of two disjoint tallies."""
        return DomainTally(
            injected=self.injected + other.injected,
            retried=self.retried + other.retried,
            recovered=self.recovered + other.recovered,
            degraded=self.degraded + other.degraded,
            backoff_ms=self.backoff_ms + other.backoff_ms,
        )

    def __add__(self, other: "DomainTally") -> "DomainTally":
        if not isinstance(other, DomainTally):
            return NotImplemented
        return self.merge(other)

    @property
    def consistent(self) -> bool:
        """The accounting invariant every tally must satisfy."""
        return (
            min(self.injected, self.retried, self.recovered,
                self.degraded) >= 0
            and self.injected == self.retried + self.degraded
            and self.backoff_ms >= 0.0
        )


@dataclasses.dataclass
class FaultReport:
    """Fault tallies per country and fault domain.

    ``FaultReport()`` is the merge identity; a rate-0 (or fault-free)
    run produces exactly that.
    """

    countries: dict[str, dict[str, DomainTally]] = dataclasses.field(
        default_factory=dict
    )

    def __bool__(self) -> bool:
        return bool(self.countries)

    def tally(self, country: str, domain: str) -> DomainTally:
        """The (auto-created) tally for one country and fault domain."""
        return self.countries.setdefault(country, {}).setdefault(
            domain, DomainTally()
        )

    def merge(self, other: "FaultReport") -> "FaultReport":
        """Component-wise sum; commutative and associative."""
        merged = FaultReport()
        for report in (self, other):
            for country, domains in report.countries.items():
                for domain, tally in domains.items():
                    target = merged.countries.setdefault(country, {})
                    existing = target.get(domain)
                    target[domain] = (
                        tally if existing is None else existing.merge(tally)
                    )
        return merged

    def __add__(self, other: "FaultReport") -> "FaultReport":
        if not isinstance(other, FaultReport):
            return NotImplemented
        return self.merge(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultReport):
            return NotImplemented
        return self._canonical() == other._canonical()

    def _canonical(self) -> dict:
        """Comparable form: empty tallies dropped, keys sorted."""
        return {
            country: {
                domain: dataclasses.astuple(tally)
                for domain, tally in sorted(domains.items())
                if tally != DomainTally()
            }
            for country, domains in sorted(self.countries.items())
            if any(tally != DomainTally() for tally in domains.values())
        }

    def iter_tallies(self) -> Iterator[tuple[str, str, DomainTally]]:
        """(country, domain, tally) triples in canonical order."""
        for country, domains in sorted(self.countries.items()):
            for domain, tally in sorted(domains.items()):
                yield country, domain, tally

    def total(self) -> DomainTally:
        """All tallies collapsed into one."""
        collapsed = DomainTally()
        for _, _, tally in self.iter_tallies():
            collapsed = collapsed.merge(tally)
        return collapsed

    def domain_totals(self) -> dict[str, DomainTally]:
        """Tallies collapsed over countries, per fault domain."""
        totals: dict[str, DomainTally] = {}
        for _, domain, tally in self.iter_tallies():
            existing = totals.get(domain)
            totals[domain] = tally if existing is None else existing.merge(tally)
        return totals

    @property
    def consistent(self) -> bool:
        """Whether every tally satisfies the accounting invariant."""
        return all(tally.consistent for _, _, tally in self.iter_tallies())

    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return {
            country: {
                domain: dataclasses.asdict(tally)
                for domain, tally in sorted(domains.items())
            }
            for country, domains in sorted(self.countries.items())
        }

    @classmethod
    def from_dict(cls, data, where: str, error=ValueError) -> "FaultReport":
        """Rebuild a report from :meth:`to_dict` output, checked.

        ``data`` is the ``faults`` object of a jsonl header or a store
        manifest: country -> fault domain -> tally.  Each tally holds
        exactly the :class:`DomainTally` fields, the counts as
        non-negative integers and ``backoff_ms`` as a finite
        non-negative number (a bool is neither).  Anything else raises
        ``error`` naming ``where`` and the member.
        """
        if not isinstance(data, dict):
            raise error(f"{where}: 'faults' must be an object")
        names = sorted(field.name for field in dataclasses.fields(DomainTally))
        report = cls()
        for country, domains in data.items():
            if not isinstance(domains, dict):
                raise error(f"{where}: 'faults' of country {country!r} "
                            f"must be an object")
            tallies = report.countries[country] = {}
            for domain, fields in domains.items():
                what = f"'faults' tally {country}/{domain}"
                if not isinstance(fields, dict) or sorted(fields) != names:
                    raise error(f"{where}: {what} must hold exactly the "
                                f"keys {names}")
                for name, value in fields.items():
                    if name == "backoff_ms":
                        valid = (type(value) in (int, float)
                                 and 0 <= value < math.inf)
                        kind = "finite non-negative number"
                    else:
                        valid = type(value) is int and value >= 0
                        kind = "non-negative integer"
                    if not valid:
                        raise error(f"{where}: {what} {name!r} must be a "
                                    f"{kind}, not {json.dumps(value)}")
                tallies[domain] = DomainTally(**fields)
        return report


def merge_fault_reports(reports) -> FaultReport:
    """Reduce any iterable of reports with the monoid merge."""
    merged = FaultReport()
    for report in reports:
        merged = merged.merge(report)
    return merged


__all__ = ["DomainTally", "FaultReport", "merge_fault_reports"]
