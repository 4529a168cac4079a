"""The bench-regression sentinel: gates and trajectories."""

import json
import pathlib

import pytest

from repro.obs.sentinel import (
    GATES,
    SentinelError,
    bench_kind,
    check,
    evaluate,
    trajectory,
)
from repro.obs.registry import RunRegistry

from tests.obs.test_registry import make_manifest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
CHECKED_IN = sorted(REPO_ROOT.glob("BENCH_*.json"))


# -------------------------------------------------- the checked-in set


def test_checked_in_benchmarks_exist():
    # The sentinel replaces CI's per-bench heredocs; the checked-in
    # documents are its primary input and must stay present.
    kinds = {bench_kind(path) for path in CHECKED_IN}
    assert kinds == set(GATES)


def test_checked_in_benchmarks_pass_all_gates():
    checks = check(CHECKED_IN)
    assert len(checks) == len(CHECKED_IN)
    for bench in checks:
        assert bench.ok, [r.message for r in bench.failures]
        assert bench.failures == ()


def test_regressed_copy_fails_naming_the_culprit(tmp_path):
    source = REPO_ROOT / "BENCH_longitudinal.json"
    bench = json.loads(source.read_text())
    bench["speedup"] = 1.1  # below the 5.0 floor
    bad = tmp_path / "BENCH_longitudinal.json"
    bad.write_text(json.dumps(bench))

    (result,) = check([bad])
    assert not result.ok
    (failure,) = result.failures
    assert failure.metric == "speedup"
    assert "minimum 5.0" in failure.message


def test_serve_gates_catch_the_delayed_ack_floor(tmp_path):
    bench = json.loads((REPO_ROOT / "BENCH_serve.json").read_text())
    # What a response split over two writes measures: ~44 ms per
    # sequential keep-alive request.
    bench["http"]["sequential"]["p50_ms"] = 44.0
    bad = tmp_path / "BENCH_serve.json"
    bad.write_text(json.dumps(bench))

    (result,) = check([bad])
    (failure,) = result.failures
    assert failure.metric == "http.sequential.p50_ms"
    assert "maximum 10.0" in failure.message


# ------------------------------------------------------------ gate kinds


def test_ordered_gate_flags_inverted_percentiles():
    bench = {"identical_to_serial": True, "rps": 100.0,
             "requests": 10,
             "latency": {"p50_ms": 5.0, "p95_ms": 2.0, "p99_ms": 9.0,
                         "count": 10}}
    by_metric = {r.metric: r for r in evaluate("serve", bench)}
    assert not by_metric["latency.p50_ms"].ok
    assert "p50_ms=5.0" in by_metric["latency.p50_ms"].message


def test_all_truthy_names_the_false_keys():
    bench = {"hit_rate": 0.8, "expected_hit_rate": 0.9, "speedup": 10,
             "byte_identical": {"serial": True, "threads": False,
                                "processes": False}}
    (equals, _, flags) = evaluate("longitudinal", bench)
    assert not flags.ok
    assert "threads" in flags.message and "processes" in flags.message
    assert not equals.ok
    assert "0.8" in equals.message and "0.9" in equals.message


def test_missing_metric_is_a_failure_not_a_crash():
    (speedup, misses, hits) = evaluate("pipeline", {"speedup": 3.0})
    assert speedup.ok
    assert not misses.ok and "metric missing" in misses.message
    assert not hits.ok


def test_positive_gate_rejects_non_numbers():
    bench = {"identical_to_serial": True, "rps": "fast",
             "requests": 1,
             "latency": {"p50_ms": 1, "p95_ms": 1, "p99_ms": 1, "count": 1}}
    by_metric = {r.metric: r for r in evaluate("serve", bench)}
    assert not by_metric["rps"].ok


# ------------------------------------------------------------ file intake


def test_bench_kind_rejects_foreign_names(tmp_path):
    with pytest.raises(SentinelError, match="not a BENCH"):
        bench_kind(tmp_path / "results.json")
    with pytest.raises(SentinelError, match="no gate table"):
        bench_kind(tmp_path / "BENCH_mystery.json")


def test_check_rejects_unreadable_json(tmp_path):
    bad = tmp_path / "BENCH_pipeline.json"
    bad.write_text("{truncated")
    with pytest.raises(SentinelError, match="unreadable bench JSON"):
        check([bad])


# ------------------------------------------------------------- trajectory


def _wall(seconds, *, seed_jitter):
    """A manifest differing only in its measured wall time."""
    return make_manifest(
        stage_seconds={"total": seconds},
        # recorded_unix is not part of the content address, so vary a
        # version string to keep each manifest's id distinct.
        versions={"repro": f"1.0.{seed_jitter}", "python": "3.11.0",
                  "numpy": "1.26.0", "implementation": "cpython"},
    )


def test_trajectory_flags_wall_time_inflation(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(_wall(1.0, seed_jitter=0))
    registry.record(_wall(1.1, seed_jitter=1))
    registry.record(_wall(2.0, seed_jitter=2))  # ~2x the 1.05 median

    (finding,) = [f for f in trajectory(registry) if f.metric == "wall_s"]
    assert finding.latest == 2.0
    assert finding.baseline == 1.05
    assert finding.ratio > 1.25


def test_trajectory_flags_hit_rate_drop(tmp_path):
    registry = RunRegistry(tmp_path)
    for jitter, rate in enumerate([0.9, 0.95, 0.2]):
        registry.record(make_manifest(
            cache={"hits": 1, "misses": 1, "hit_rate": rate},
            stage_seconds={},
            versions={"repro": f"1.0.{jitter}", "python": "3.11.0",
                      "numpy": "1.26.0", "implementation": "cpython"},
        ))
    (finding,) = trajectory(registry)
    assert finding.metric == "hit_rate"
    assert finding.latest == 0.2


def test_trajectory_needs_history(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(_wall(1.0, seed_jitter=0))
    registry.record(_wall(50.0, seed_jitter=1))  # only 1 predecessor
    assert trajectory(registry) == ()


def test_trajectory_skips_missing_telemetry(tmp_path):
    registry = RunRegistry(tmp_path)
    for jitter in range(3):
        registry.record(make_manifest(
            stage_seconds={}, cache=None,
            versions={"repro": f"1.0.{jitter}", "python": "3.11.0",
                      "numpy": "1.26.0", "implementation": "cpython"},
        ))
    assert trajectory(registry) == ()


def test_trajectory_within_tolerance_is_quiet(tmp_path):
    registry = RunRegistry(tmp_path)
    registry.record(_wall(1.0, seed_jitter=0))
    registry.record(_wall(1.0, seed_jitter=1))
    registry.record(_wall(1.2, seed_jitter=2))  # +20% < default 25%
    assert trajectory(registry) == ()
