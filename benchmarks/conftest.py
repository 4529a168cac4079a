"""Benchmark harness fixtures.

Every benchmark regenerates one of the paper's tables or figures from a
shared synthetic world, times the analysis with pytest-benchmark, and
prints (and archives under ``benchmarks/out/``) a paper-vs-measured
report.  Control the dataset size with ``REPRO_BENCH_SCALE`` (fraction
of the paper's dataset; default 0.05) and the seed with
``REPRO_BENCH_SEED``.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.05"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "42"))

_OUT_DIR = pathlib.Path(__file__).parent / "out"


def write_bench_json(name: str, payload: dict) -> None:
    """Archive one benchmark's JSON as ``benchmarks/out/BENCH_<name>.json``.

    The committed ``BENCH_<name>.json`` at the repo root is left alone,
    so a gate check of both files checks two runs; a committed number
    is refreshed by copying the fresh file over it.
    """
    _OUT_DIR.mkdir(exist_ok=True)
    text = json.dumps(payload, indent=2) + "\n"
    (_OUT_DIR / f"BENCH_{name}.json").write_text(text)


@pytest.fixture(scope="session")
def bench_world() -> SyntheticWorld:
    """The shared benchmark world."""
    return SyntheticWorld.generate(
        WorldConfig(seed=BENCH_SEED, scale=BENCH_SCALE)
    )


@pytest.fixture(scope="session")
def bench_pipeline(bench_world) -> Pipeline:
    return Pipeline(bench_world)


@pytest.fixture(scope="session")
def bench_dataset(bench_pipeline):
    return bench_pipeline.run()


@pytest.fixture(scope="session")
def report():
    """Print a regeneration report and archive it under benchmarks/out/."""
    _OUT_DIR.mkdir(exist_ok=True)

    def emit(name: str, text: str) -> None:
        banner = f"\n===== {name} (scale={BENCH_SCALE}, seed={BENCH_SEED}) ====="
        print(banner)
        print(text)
        (_OUT_DIR / f"{name}.txt").write_text(text + "\n")

    return emit
