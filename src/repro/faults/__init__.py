"""Deterministic fault injection for the measurement plane.

The paper's pipeline runs against an unreliable substrate: VPN exits
drop, RIPE Atlas probes time out, IPInfo/WHOIS/PeeringDB lookups fail.
This package models that unreliability first-class:

* :class:`FaultPlan` — frozen, seed-derived description of what fails
  and how often (``--fault-rate`` / ``--fault-profile`` /
  ``--fault-seed``), with a retry-with-backoff recovery policy on a
  simulated clock;
* :class:`FaultSession` — per-country injector threaded through the
  measurement clients during a scan;
* :class:`FaultReport` — commutative-monoid accounting of every
  injected fault, retry and degradation, merged deterministically on
  the pipeline driver.

Unrecoverable failures degrade into the methodology's existing
fallbacks (``ValidationMethod.UNRESOLVED``, unresolved hostnames,
fallback vantages) rather than crashing, so a faulted run quantifies
how the Table 2/Table 4 numbers shift under measurement loss.  A run
at rate 0 is byte-identical to an unfaulted run.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "repro.faults.plan": [
        "FAULT_DOMAINS", "FAULT_PROFILE_NAMES", "FAULT_PROFILES", "FaultPlan"],
    "repro.faults.report": [
        "DomainTally", "FaultReport", "merge_fault_reports"],
    "repro.faults.session": ["Episode", "FaultSession", "SimClock"],
})
