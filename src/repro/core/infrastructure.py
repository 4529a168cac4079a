"""Identifying the serving infrastructure (Section 3.4).

For every confirmed government hostname, resolve it to an IP address
from the in-country VPN vantage, then query WHOIS for the AS number,
organization and country of registration -- the Table 2 record.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, Optional

from repro.measure.vpn import VantagePoint
from repro.netsim.dns import DnsError, Resolver
from repro.netsim.whois import WhoisService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.session import FaultSession


@dataclasses.dataclass(frozen=True)
class HostInfrastructure:
    """The Table 2 information for one government hostname."""

    hostname: str
    address: int
    asn: int
    organization: str
    registered_country: str
    #: CNAME chain observed during resolution (informational).
    cname_chain: tuple[str, ...]


class InfrastructureMapper:
    """Resolves hostnames and annotates them with WHOIS registration data."""

    def __init__(self, resolver: Resolver, whois: WhoisService) -> None:
        self._resolver = resolver
        self._whois = whois

    def map_host(
        self,
        hostname: str,
        vantage: VantagePoint,
        faults: Optional["FaultSession"] = None,
    ) -> Optional[HostInfrastructure]:
        """Infrastructure record for one hostname (None if unresolvable).

        Injected DNS or WHOIS failures that exhaust their retries return
        None like a genuine resolution failure, so the hostname degrades
        into the country's unresolved tally instead of crashing the scan.
        """
        if faults is not None and faults.operation_fails("dns", hostname):
            return None
        try:
            resolution = self._resolver.resolve(hostname, vantage.lat, vantage.lon)
        except DnsError:
            return None
        if faults is not None and faults.operation_fails(
            "whois", resolution.address
        ):
            return None
        try:
            whois_record = self._whois.query_ip(resolution.address)
        except KeyError:
            return None
        return HostInfrastructure(
            hostname=hostname,
            address=resolution.address,
            asn=whois_record.asn,
            organization=whois_record.organization,
            registered_country=whois_record.registration_country,
            cname_chain=resolution.cname_chain,
        )

    def map_hosts(
        self,
        hostnames: Iterable[str],
        vantage: VantagePoint,
        faults: Optional["FaultSession"] = None,
    ) -> dict[str, HostInfrastructure]:
        """Infrastructure records for a set of hostnames, skipping failures."""
        result: dict[str, HostInfrastructure] = {}
        for hostname in sorted(hostnames):
            record = self.map_host(hostname, vantage, faults=faults)
            if record is not None:
                result[hostname] = record
        return result


__all__ = ["HostInfrastructure", "InfrastructureMapper"]
