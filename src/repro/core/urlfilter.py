"""Identifying internal government URLs (Section 3.3, Table 1).

Crawling seven levels deep inevitably leaves the government domain
(e.g. into an external contractor's site), so collected URLs are
filtered through three cascaded heuristics:

1. **Government TLDs** -- any DNS label of the hostname matches one of
   the government tokens (``gov``, ``gouv``, ``gob``, ``go``, ...)
   following the pattern rules of Singanamalla et al.
2. **Domain matching** -- the hostname appears in the curated directory
   of government landing pages (Section 3.1).
3. **SAN matching** -- the hostname is listed among the Subject
   Alternative Names of a landing page's TLS certificate, followed by a
   manual verification step (simulated here by a pluggable verifier
   that rejects provider-infrastructure names, mirroring the paper's
   human check that discards unverifiable hostnames).
"""

from __future__ import annotations

import enum
from typing import Callable, Iterable, Optional

from repro.core.gathering import GovernmentDirectory
from repro.netsim.tls import CertificateStore
from repro.urltools import labels_of

#: Government TLD tokens from Table 1 of the paper.
GOV_TLD_TOKENS = frozenset({
    "gov", "govern", "government", "govt", "mil", "fed", "admin",
    "gouv", "gob", "go", "gub", "guv",
})

#: Patterns a human verifier recognizes as provider infrastructure rather
#: than government resources (used by :func:`default_san_verifier`).
_INFRA_MARKERS = ("cdn", "cloud", "ssl", "edge", "analytics", "widgets",
                  "static-hosting", "fastly", "akamai", "sni")


class FilterVia(enum.Enum):
    """Which heuristic accepted a hostname."""

    TLD = "tld"
    DOMAIN = "domain"
    SAN = "san"


def matches_gov_tld(hostname: str) -> bool:
    """Whether any DNS label of ``hostname`` is a government token."""
    return any(label in GOV_TLD_TOKENS for label in labels_of(hostname))


def default_san_verifier(hostname: str) -> bool:
    """Manual-verification stand-in for SAN-matched hostnames.

    The paper manually verifies that SAN-matched hostnames correspond to
    government resources and discards the rest; this heuristic rejects
    hostnames that look like shared provider infrastructure.
    """
    lowered = hostname.lower()
    return not any(marker in lowered for marker in _INFRA_MARKERS)


class GovernmentUrlFilter:
    """Applies the Table 1 cascade to the hostnames of a crawl.

    Every heuristic depends on the hostname alone, so a URL's verdict
    is its hostname's.
    """

    def __init__(
        self,
        directory: GovernmentDirectory,
        certificates: CertificateStore,
        san_verifier: Optional[Callable[[str], bool]] = None,
    ) -> None:
        self._directory = directory
        self._certificates = certificates
        self._verify = san_verifier or default_san_verifier

    def _san_candidates(self) -> set[str]:
        """SANs of all landing-page certificates."""
        sans: set[str] = set()
        for hostname in self._directory.hostnames:
            sans.update(name.lower() for name in self._certificates.sans_of(hostname))
        return sans

    def verdicts(self, hostnames: Iterable[str]) -> dict[str, FilterVia]:
        """The heuristic accepting each government hostname, in sorted
        order; a hostname no heuristic accepts is left out, and its URLs
        are discarded."""
        directory_hosts = self._directory.hostnames
        san_set = self._san_candidates()
        via_by_hostname: dict[str, FilterVia] = {}
        for hostname in sorted(hostnames):
            if matches_gov_tld(hostname):
                via_by_hostname[hostname] = FilterVia.TLD
            elif hostname in directory_hosts:
                via_by_hostname[hostname] = FilterVia.DOMAIN
            elif hostname in san_set and self._verify(hostname):
                via_by_hostname[hostname] = FilterVia.SAN
        return via_by_hostname


__all__ = [
    "GOV_TLD_TOKENS",
    "FilterVia",
    "matches_gov_tld",
    "default_san_verifier",
    "GovernmentUrlFilter",
]
