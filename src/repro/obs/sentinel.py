"""The bench-regression sentinel: declarative gates over BENCH_*.json.

CI used to guard each benchmark with its own inline python heredoc —
six copies of ``json.load`` + ``assert`` drifting independently.  The
sentinel replaces them with one declarative gate table
(:data:`GATES`) evaluated by one command::

    repro-gov obs bench --check BENCH_pipeline.json BENCH_serve.json ...

Each gate names the metric it watches (a dotted path into the bench
document), so a failure is actionable: the sentinel exits non-zero and
prints *which* metric regressed, its value, and the threshold it
crossed — never a bare ``AssertionError``.

Gate kinds:

* ``min`` / ``max`` — numeric threshold;
* ``positive`` — strictly greater than zero;
* ``truthy`` — byte-identity flags and friends;
* ``all_truthy`` — a mapping whose every value must be truthy
  (``byte_identical: {serial, processes}``);
* ``equals`` — two metrics in the same document must agree
  (``hit_rate == expected_hit_rate``);
* ``at_least`` — one metric must be >= another
  (``speedup_x >= threshold_x``);
* ``ordered`` — a metric list must be non-decreasing
  (``p50 <= p95 <= p99``).

The gate table mirrors the assertions the CI heredocs used to make —
byte-identity, hit-rate exactness, speedup floors — so replacing the
heredocs with ``obs bench --check`` keeps the bar where it was.

:func:`trajectory` extends the same idea across *time*: given a
:class:`~repro.obs.registry.RunRegistry`, it compares the latest run of
each fingerprint against the median of its predecessors and flags wall
time inflations and cache hit-rate drops beyond
:data:`TRAJECTORY_TOLERANCE`.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re
import statistics
from typing import Any, Mapping, Optional, Sequence, Union

from repro.obs.registry import RegisteredRun, RunRegistry

PathLike = Union[str, pathlib.Path]

_BENCH_NAME = re.compile(r"BENCH_([a-z0-9_]+)\.json$")

#: How far a fingerprint's latest run may drift from the median of its
#: history: wall time up to ``1 + TRAJECTORY_TOLERANCE`` times it, hit
#: rate down to ``median - TRAJECTORY_TOLERANCE``.
TRAJECTORY_TOLERANCE = 0.25

#: Earlier runs a fingerprint needs before its latest run is judged.
TRAJECTORY_MIN_HISTORY = 2


class SentinelError(ValueError):
    """A bench document or gate reference that cannot be evaluated."""


def _lookup(document: Mapping, path: str) -> Any:
    """Resolve a dotted path; raises KeyError naming the missing step."""
    value: Any = document
    for step in path.split("."):
        if not isinstance(value, Mapping) or step not in value:
            raise KeyError(path)
        value = value[step]
    return value


@dataclasses.dataclass(frozen=True)
class Gate:
    """One named expectation over a bench document."""

    #: Dotted path of the watched metric (``"latency.p50_ms"``).
    metric: str
    #: One of min/max/positive/truthy/all_truthy/equals/at_least/ordered.
    kind: str
    #: Numeric threshold for min/max.
    threshold: Optional[float] = None
    #: Second dotted path for equals/at_least; extra paths for ordered.
    reference: Optional[str] = None
    others: tuple[str, ...] = ()
    #: Human explanation shown on failure.
    why: str = ""

    def evaluate(self, bench: Mapping) -> "GateResult":
        try:
            actual = _lookup(bench, self.metric)
        except KeyError:
            return GateResult(self, ok=False, actual=None,
                              message=f"{self.metric}: metric missing")
        if self.kind == "min":
            ok = actual >= self.threshold
            message = (f"{self.metric} = {actual} "
                       f"(minimum {float(self.threshold)})")
        elif self.kind == "max":
            ok = actual <= self.threshold
            message = (f"{self.metric} = {actual} "
                       f"(maximum {float(self.threshold)})")
        elif self.kind == "positive":
            ok = isinstance(actual, (int, float)) and actual > 0
            message = f"{self.metric} = {actual} (must be > 0)"
        elif self.kind == "truthy":
            ok = bool(actual)
            message = f"{self.metric} = {actual!r} (must be truthy)"
        elif self.kind == "all_truthy":
            if not isinstance(actual, Mapping) or not actual:
                ok, message = False, \
                    f"{self.metric} = {actual!r} (expected non-empty map)"
            else:
                failing = sorted(k for k, v in actual.items() if not v)
                ok = not failing
                message = (f"{self.metric}: all true" if ok else
                           f"{self.metric}: false for {', '.join(failing)}")
        elif self.kind in ("equals", "at_least"):
            try:
                expected = _lookup(bench, self.reference)
            except KeyError:
                return GateResult(self, ok=False, actual=actual,
                                  message=f"{self.reference}: "
                                          f"metric missing")
            if self.kind == "equals":
                ok = actual == expected
                relation = "=="
            else:
                ok = actual >= expected
                relation = ">="
            message = (f"{self.metric} = {actual} {relation} "
                       f"{self.reference} = {expected}")
        elif self.kind == "ordered":
            paths = (self.metric,) + self.others
            try:
                values = [_lookup(bench, path) for path in paths]
            except KeyError as exc:
                return GateResult(self, ok=False, actual=None,
                                  message=f"{exc.args[0]}: metric missing")
            ok = all(a <= b for a, b in zip(values, values[1:]))
            message = " <= ".join(f"{p}={v}" for p, v in zip(paths, values))
        else:  # pragma: no cover - table is static
            raise SentinelError(f"unknown gate kind {self.kind!r}")
        return GateResult(self, ok=ok, actual=actual, message=message)


@dataclasses.dataclass(frozen=True)
class GateResult:
    gate: Gate
    ok: bool
    actual: Any
    message: str

    @property
    def metric(self) -> str:
        return self.gate.metric

    def to_dict(self) -> dict:
        return {
            "metric": self.gate.metric,
            "kind": self.gate.kind,
            "ok": self.ok,
            "actual": self.actual,
            "message": self.message,
            "why": self.gate.why,
        }


#: Gate table, by bench kind (the ``<kind>`` of ``BENCH_<kind>.json``).
#: These mirror the assertions CI used to inline per benchmark.
GATES: dict[str, tuple[Gate, ...]] = {
    "pipeline": (
        Gate("speedup", "min", threshold=2.0,
             why="warm cache must beat the cold run"),
        Gate("misses", "max", threshold=0,
             why="a warm identical-config run must not miss"),
        Gate("hits", "min", threshold=1,
             why="the warm run must actually exercise the cache"),
    ),
    "analysis": (
        Gate("identical_output", "truthy",
             why="indexed analysis must match record loops byte for byte"),
        Gate("speedup", "min", threshold=1.0,
             why="the index must not be slower than record loops"),
    ),
    "store": (
        Gate("identical_report", "truthy",
             why="store-backed report must match jsonl bytes"),
        Gate("load_speedup", "min", threshold=1.0,
             why="store open must beat jsonl parsing"),
        Gate("rss_ratio", "max", threshold=1.0,
             why="store analysis must not use more memory than jsonl"),
    ),
    "serve": (
        Gate("identical_to_serial", "truthy",
             why="concurrent responses must match serial byte for byte"),
        Gate("rps", "positive",
             why="throughput was measured at all"),
        Gate("latency.p50_ms", "ordered",
             others=("latency.p95_ms", "latency.p99_ms"),
             why="percentiles must be self-consistent"),
        Gate("requests", "equals", reference="latency.count",
             why="every request must be latency-accounted"),
        Gate("http.identical_to_serial", "truthy",
             why="every HTTP body must match the serial pass byte for byte"),
        Gate("http.sequential.p50_ms", "max", threshold=10.0,
             why="a keep-alive request must not wait for a delayed ACK "
                 "(~40 ms when a response leaves in two writes)"),
        Gate("http.latency.p50_ms", "ordered",
             others=("http.latency.p95_ms", "http.latency.p99_ms"),
             why="percentiles must be self-consistent"),
        Gate("http.requests", "equals", reference="http.latency.count",
             why="every HTTP request must be latency-accounted"),
    ),
    "longitudinal": (
        Gate("hit_rate", "equals", reference="expected_hit_rate",
             why="incremental reuse must be exact, not approximate"),
        Gate("speedup", "min", threshold=5.0,
             why="a one-step delta must be far cheaper than a cold run"),
        Gate("byte_identical", "all_truthy",
             why="incremental snapshots must equal cold runs everywhere"),
    ),
    "scenarios": (
        Gate("gates.unique_scan_exactness.pass", "truthy",
             why="sweep dedup accounting must balance"),
        Gate("gates.unique_scan_exactness.executed", "equals",
             reference="gates.unique_scan_exactness.unique_keys",
             why="a cold sweep executes each unique key exactly once"),
        Gate("gates.speedup.speedup_x", "at_least",
             reference="gates.speedup.threshold_x",
             why="the sweep must clear its own declared bar"),
        Gate("gates.speedup.threshold_x", "min", threshold=4.0,
             why="the declared bar itself must not quietly drop"),
        Gate("gates.executor_identity.pass", "truthy",
             why="every executor must produce identical scenario bytes"),
    ),
}


def bench_kind(path: PathLike) -> str:
    """Infer the gate-table kind from a ``BENCH_<kind>.json`` filename."""
    match = _BENCH_NAME.search(pathlib.Path(path).name)
    if match is None:
        raise SentinelError(
            f"{path}: not a BENCH_<kind>.json file; cannot pick gates"
        )
    kind = match.group(1)
    if kind not in GATES:
        raise SentinelError(
            f"{path}: no gate table for bench kind {kind!r} "
            f"(known: {', '.join(sorted(GATES))})"
        )
    return kind


def evaluate(kind: str, bench: Mapping) -> tuple[GateResult, ...]:
    """Run every gate of one kind over one bench document."""
    if kind not in GATES:
        raise SentinelError(f"no gate table for bench kind {kind!r}")
    return tuple(gate.evaluate(bench) for gate in GATES[kind])


@dataclasses.dataclass(frozen=True)
class BenchCheck:
    """Gate results for one bench file."""

    path: str
    kind: str
    results: tuple[GateResult, ...]

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failures(self) -> tuple[GateResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "ok": self.ok,
            "results": [result.to_dict() for result in self.results],
        }


def check(paths: Sequence[PathLike]) -> tuple[BenchCheck, ...]:
    """Evaluate the gate table over a set of bench files.

    Unreadable JSON and unknown kinds raise :class:`SentinelError`;
    failed gates come back as ``ok=False`` results for the caller to
    report (the CLI names each culprit metric and exits non-zero).
    """
    checks = []
    for path in paths:
        kind = bench_kind(path)
        try:
            bench = json.loads(
                pathlib.Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise SentinelError(f"{path}: unreadable bench JSON ({exc})") \
                from exc
        checks.append(BenchCheck(
            path=str(path), kind=kind,
            results=evaluate(kind, bench),
        ))
    return tuple(checks)


# ------------------------------------------------------- run trajectory


@dataclasses.dataclass(frozen=True)
class TrajectoryFinding:
    """A cross-run regression: the latest run fell off its own history."""

    fingerprint: str
    metric: str  # "wall_s" or "hit_rate"
    latest: float
    baseline: float  # median of the predecessors
    ratio: float
    run_id: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def trajectory(registry: RunRegistry) -> tuple[TrajectoryFinding, ...]:
    """Compare each fingerprint's latest run against its own history.

    For every fingerprint with at least :data:`TRAJECTORY_MIN_HISTORY`
    earlier runs, the latest run's total wall time must stay within
    ``1 + TRAJECTORY_TOLERANCE`` of the median of its predecessors, and
    its cache hit rate must not drop below ``median -
    TRAJECTORY_TOLERANCE``.  Runs without the measurement (untraced,
    uncached) are skipped — absence of telemetry is not a regression.
    """
    findings: list[TrajectoryFinding] = []
    for fingerprint, runs in registry.by_fingerprint().items():
        if len(runs) < TRAJECTORY_MIN_HISTORY + 1:
            continue
        *history, latest = runs
        findings.extend(_judge(fingerprint, history, latest))
    return tuple(findings)


def _judge(fingerprint: str, history: Sequence[RegisteredRun],
           latest: RegisteredRun) -> list[TrajectoryFinding]:
    findings = []
    walls = [run.wall_s for run in history if run.wall_s is not None]
    if walls and latest.wall_s is not None:
        baseline = statistics.median(walls)
        if baseline > 0 and \
                latest.wall_s > baseline * (1.0 + TRAJECTORY_TOLERANCE):
            findings.append(TrajectoryFinding(
                fingerprint=fingerprint, metric="wall_s",
                latest=round(latest.wall_s, 6),
                baseline=round(baseline, 6),
                ratio=round(latest.wall_s / baseline, 3),
                run_id=latest.id,
            ))
    rates = [run.hit_rate for run in history if run.hit_rate is not None]
    if rates and latest.hit_rate is not None:
        baseline = statistics.median(rates)
        if latest.hit_rate < baseline - TRAJECTORY_TOLERANCE:
            findings.append(TrajectoryFinding(
                fingerprint=fingerprint, metric="hit_rate",
                latest=round(latest.hit_rate, 6),
                baseline=round(baseline, 6),
                ratio=round(latest.hit_rate / baseline, 3) if baseline
                else 0.0,
                run_id=latest.id,
            ))
    return findings


__all__ = [
    "GATES",
    "BenchCheck",
    "Gate",
    "GateResult",
    "SentinelError",
    "TrajectoryFinding",
    "bench_kind",
    "check",
    "evaluate",
    "trajectory",
]
