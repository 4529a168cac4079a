"""Report-layer timing: columnar index vs legacy record loops.

Renders the full paper report twice over the same measured dataset --
once with the verbatim pre-index record-loop implementations
(the test oracle :mod:`tests.analysis.oracle`, ~15 record scans) and once
through the one-pass :class:`~repro.analysis.engine.AnalysisIndex` --
checks the outputs are byte-identical, and archives the timings as
``benchmarks/out/BENCH_analysis.json``.

The >=3x speedup gate applies at ``REPRO_BENCH_SCALE`` >= 0.2 (the
acceptance scale); smaller smoke runs only assert the index does not
lose.  The oracle lives under ``tests/``, so the repository root must
be importable: run from ``benchmarks/`` with ``PYTHONPATH=../src:..``.
"""

import time

from conftest import BENCH_SCALE, BENCH_SEED, write_bench_json

from repro.analysis.engine import AnalysisIndex
from repro.analysis.engine.index import _CACHE_ATTRIBUTE
from repro.reporting.paper_report import render_paper_report
from tests.analysis.oracle import baseline_render_paper_report
from tests.records import records_of

#: Timed runs per variant; the minimum is reported (steady-state cost).
ROUNDS = 3


def _materialize(dataset) -> None:
    """Build the oracle's record lists (memoized per country) before
    timing, so both variants time pure analysis."""
    for country_dataset in dataset.countries.values():
        records_of(country_dataset)


def _drop_cached_index(dataset) -> None:
    if hasattr(dataset, _CACHE_ATTRIBUTE):
        delattr(dataset, _CACHE_ATTRIBUTE)


def _best_of(fn, rounds: int = ROUNDS) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_index_build(benchmark, bench_dataset):
    """Cost of the single record scan the index replaces 15 with."""
    _materialize(bench_dataset)
    index = benchmark(AnalysisIndex.build, bench_dataset)
    assert index.record_count == sum(
        cd.url_count for cd in bench_dataset.countries.values()
    )


def test_report_via_index(benchmark, bench_dataset):
    """Full report through a fresh index (build cost included)."""
    _materialize(bench_dataset)

    def render():
        _drop_cached_index(bench_dataset)
        return render_paper_report(bench_dataset)

    text = benchmark.pedantic(render, rounds=1, iterations=1)
    assert "reproduction report" in text


def test_report_analysis_speedup(report, bench_dataset):
    """Index-backed vs record-loop report; archives BENCH_analysis.json.

    Byte-identical output is asserted before any timing claim; the
    index time includes the index build (cleared between rounds).
    """
    _materialize(bench_dataset)

    baseline_s, baseline_text = _best_of(
        lambda: baseline_render_paper_report(bench_dataset)
    )

    def render_indexed():
        _drop_cached_index(bench_dataset)
        return render_paper_report(bench_dataset)

    index_s, index_text = _best_of(render_indexed)

    assert index_text == baseline_text

    speedup = baseline_s / index_s if index_s else float("inf")
    records = sum(cd.url_count for cd in bench_dataset.countries.values())
    report(
        "report_analysis_speedup",
        f"records={records}\n"
        f"record loops: {baseline_s:.3f} s (~15 scans)\n"
        f"index:        {index_s:.3f} s (1 scan, build included)\n"
        f"speedup:      {speedup:.2f}x",
    )
    write_bench_json("analysis", {
        "scale": BENCH_SCALE,
        "seed": BENCH_SEED,
        "records": records,
        "baseline_s": round(baseline_s, 6),
        "index_s": round(index_s, 6),
        "speedup": round(speedup, 2),
        "identical_output": True,
    })
    floor = 3.0 if BENCH_SCALE >= 0.2 else 1.0
    assert speedup >= floor, \
        f"expected >={floor}x at scale {BENCH_SCALE}, got {speedup:.2f}x"
