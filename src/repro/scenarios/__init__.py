"""Scenario sweeps: one measurement matrix, one deduplicated scan wave.

DNS-resilience work motivates stress and outage what-ifs, and a
longitudinal study asks what one more year of drift changes.  This
package turns those questions into a batch instrument:

* :class:`ScenarioMatrix` declares a baseline world plus perturbation
  axes — fault/DNS-stress profiles, provider-outage what-ifs,
  evolution steps;
* :class:`SweepRunner` compiles the matrix into flat (scenario,
  country) scan tasks, groups them by ``(global fingerprint, country
  slice fingerprint)`` so each unique key is scanned *exactly once*
  (enforced at runtime via :class:`SweepIntegrityError`), shares the
  persistent scan cache, and dispatches the unique set through the
  serial or process executor in one pool-filling wave;
* :func:`compare_sweep` renders per-scenario divergence from the
  baseline — geolocation-verdict flips, category-mix deltas, HHI
  shifts, outage blast radius.

Because deduplication happens on cache *keys*, not scenario kinds, any
scenario pair that happens to agree on a country's world slice shares
that scan — an S-scenario sweep costs about as much as the few slices
that actually differ.
"""

from repro.scenarios.compare import (
    OutageBlastRadius,
    ScenarioDivergence,
    compare_scenario,
    compare_sweep,
)
from repro.scenarios.matrix import (
    BASELINE_NAME,
    SCENARIO_KINDS,
    MatrixError,
    Scenario,
    ScenarioMatrix,
)
from repro.scenarios.runner import (
    ScenarioResult,
    SweepAccounting,
    SweepIntegrityError,
    SweepResult,
    SweepRunner,
)

__all__ = [
    "BASELINE_NAME",
    "SCENARIO_KINDS",
    "MatrixError",
    "OutageBlastRadius",
    "Scenario",
    "ScenarioDivergence",
    "ScenarioMatrix",
    "ScenarioResult",
    "SweepAccounting",
    "SweepIntegrityError",
    "SweepResult",
    "SweepRunner",
    "compare_scenario",
    "compare_sweep",
]
