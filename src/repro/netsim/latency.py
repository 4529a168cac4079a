"""Great-circle latency model.

Round-trip times are derived from great-circle distance at roughly
two-thirds of the speed of light in fiber (~200 km/ms one-way), with a
path-inflation factor and stochastic jitter.  The same constants feed
the per-country latency thresholds of Section 3.5, so a ping within a
country reliably lands below its road-distance threshold while
intercontinental pings do not.
"""

from __future__ import annotations

import random
from typing import Optional

#: One-way propagation speed in fiber, km per millisecond.
FIBER_KM_PER_MS = 200.0

#: Multiplier capturing the fact that cables do not follow great circles.
PATH_INFLATION = 1.45

#: Fixed per-hop processing overhead in milliseconds.
BASE_OVERHEAD_MS = 1.0

#: Queueing-jitter allowance added to every country threshold (ms).
THRESHOLD_SLACK_MS = 10.0


def propagation_rtt_ms(distance_km: float) -> float:
    """Deterministic component of the RTT over ``distance_km``."""
    one_way_ms = distance_km * PATH_INFLATION / FIBER_KM_PER_MS
    return BASE_OVERHEAD_MS + 2.0 * one_way_ms


class LatencyModel:
    """Produces RTT samples between two coordinates.

    The model is intentionally simple but preserves the property the
    geolocation methodology depends on: latency lower-bounds distance.
    Jitter is strictly additive, so a measured RTT can never be *faster*
    than the propagation time -- exactly the invariant that makes
    latency-based country verification sound.
    """

    def __init__(self, rng: random.Random, jitter_ms: float = 2.0) -> None:
        self._rng = rng
        self._jitter_ms = jitter_ms

    def rtt_ms(self, lat1: float, lon1: float, lat2: float, lon2: float) -> float:
        """One RTT sample between two coordinates."""
        from repro.world.geography import haversine_km

        distance = haversine_km(lat1, lon1, lat2, lon2)
        return self.rtt_for_distance(distance)

    def rtt_for_distance(
        self,
        distance_km: float,
        rng: Optional[random.Random] = None,
        extra_ms: float = 0.0,
    ) -> float:
        """One RTT sample for a known distance.

        ``rng`` overrides the model's own jitter stream; callers that
        need order-independent samples (e.g. the Atlas client keying
        jitter per probe/target pair) pass a derived generator so the
        sample does not depend on how many draws happened before it.
        ``extra_ms`` adds a deterministic penalty on top of the sample —
        the fault injector's congestion spikes — which preserves the
        latency-lower-bounds-distance invariant (penalties only inflate).
        """
        base = propagation_rtt_ms(distance_km) + extra_ms
        if self._jitter_ms <= 0:
            return base
        jitter = (rng or self._rng).expovariate(1.0 / self._jitter_ms)
        return base + jitter


def country_threshold_ms(road_span_km: float) -> float:
    """Latency threshold for 'is this server within the country?'.

    Converts the intercity road distance between the two furthest cities
    of a country into an RTT bound (Section 3.5), plus
    :data:`THRESHOLD_SLACK_MS` for queueing jitter.
    """
    return propagation_rtt_ms(road_span_km) + THRESHOLD_SLACK_MS


__all__ = [
    "FIBER_KM_PER_MS",
    "PATH_INFLATION",
    "BASE_OVERHEAD_MS",
    "THRESHOLD_SLACK_MS",
    "propagation_rtt_ms",
    "LatencyModel",
    "country_threshold_ms",
]
