"""Command-line interface.

``repro-gov`` drives the whole reproduction from a shell::

    repro-gov run --scale 0.05 --out dataset.jsonl   # generate + measure + save
    repro-gov run --scale 0.05 --cache-dir .scan     # warm-start on re-runs
    repro-gov run --scale 0.05 --out d.jsonl --manifest --trace-out trace.json
    repro-gov run --scale 0.05 --store-dir world.store  # columnar store
    repro-gov evolve --snapshots 4 --cache-dir .scan  # longitudinal series
    repro-gov sweep --demo --cache-dir .scan         # deduplicated scenarios
    repro-gov cache stats --cache-dir .scan          # what the cache holds
    repro-gov cache prune --cache-dir .scan --older-than 7d --max-bytes 500M
    repro-gov report dataset.jsonl                   # analyses over a saved run
    repro-gov report world.store --section full      # same, zero-copy store
    repro-gov convert dataset.jsonl world.store      # jsonl <-> store
    repro-gov serve --store-dir world.store --port 8321  # HTTP query service
    repro-gov serve --store-dir world.store --trace-dir traces  # + request traces
    repro-gov inspect --hostname www.gub.uy          # one hostname end to end
    repro-gov run --scale 0.05 --registry .runs      # record into run registry
    repro-gov obs runs --registry .runs              # list registered runs
    repro-gov obs diff 0 1 --registry .runs          # what changed between runs
    repro-gov obs bench --check BENCH_*.json         # bench-regression sentinel

Every command is deterministic given ``--seed``; the observability
flags (``--trace-out``/``--metrics-out``/``--manifest``/``--progress``/
``--registry``) never change what a run computes, only what it reports.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import logging
import math
import os
import sys
from typing import Optional, Sequence

from repro.datagen.config import WorldConfig
from repro.faults.plan import FAULT_PROFILE_NAMES
from repro.reporting.sections import SECTION_NAMES
from repro.reporting.tables import render_table


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gov",
        description="Reproduction of 'Of Choices and Control' (IMC 2024)",
    )
    verbosity = parser.add_mutually_exclusive_group()
    verbosity.add_argument("-v", "--verbose", action="count", default=0,
                           help="log pipeline progress to stderr "
                                "(-v: info, -vv: debug)")
    verbosity.add_argument("-q", "--quiet", action="store_true",
                           help="suppress warnings (errors only)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser(
        "run", help="generate a synthetic world, measure it, save the dataset"
    )
    run.add_argument("--seed", type=int, default=42)
    run.add_argument("--scale", type=float, default=0.05,
                     help="fraction of the paper's dataset size")
    run.add_argument("--countries", nargs="*", metavar="CC",
                     help="restrict to these country codes")
    run.add_argument("--out", metavar="PATH",
                     help="write the dataset as JSON lines")
    run.add_argument("--csv", metavar="PATH",
                     help="also export a flat CSV")
    run.add_argument("--store-dir", metavar="PATH",
                     help="write the dataset as a sharded columnar store "
                          "(mmap-backed analyses; see `repro-gov convert`)")
    run.add_argument("--workers", type=int, default=None, metavar="N",
                     help="worker processes for the per-country scans "
                          "(default: 1, serial; N >= 2 runs a pool of N)")
    run.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                     help="probability in [0, 1] that a measurement "
                          "operation fails and must be retried or degraded "
                          "(default: 0, no fault injection)")
    run.add_argument("--fault-profile", choices=FAULT_PROFILE_NAMES,
                     default="mixed",
                     help="which fault domains the rate applies to "
                          "(default: mixed)")
    run.add_argument("--fault-seed", type=int, default=None, metavar="SEED",
                     help="seed for fault decisions (default: derived "
                          "from --seed, so faulted runs stay reproducible)")
    run.add_argument("--cache-dir", metavar="PATH", default=None,
                     help="persistent scan cache: per-country phase-1 "
                          "results are stored here and re-served on "
                          "matching re-runs (default: no caching)")
    run.add_argument("--cache-clear", action="store_true",
                     help="empty the cache under --cache-dir before "
                          "running")
    run.add_argument("--trace-out", metavar="PATH", default=None,
                     help="write the run's span tree as JSON; a .chrome.json "
                          "sibling in Chrome trace_event format is written "
                          "too (load it in about://tracing or Perfetto)")
    run.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="write the run's merged metrics registry as JSON")
    run.add_argument("--manifest", action="store_true",
                     help="write a provenance manifest next to --out "
                          "(<out>.manifest.json; requires --out)")
    run.add_argument("--progress", action="store_true",
                     help="print a per-country heartbeat to stderr as "
                          "scans complete")
    run.add_argument("--registry", metavar="DIR", default=None,
                     help="append this run's provenance manifest to the "
                          "cross-run registry journal under DIR (query it "
                          "with `repro-gov obs runs`/`obs diff`)")

    evolve = subparsers.add_parser(
        "evolve", help="run a longitudinal snapshot series: evolve the "
                       "world per snapshot and re-scan only what changed"
    )
    evolve.add_argument("--seed", type=int, default=42)
    evolve.add_argument("--scale", type=float, default=0.05,
                        help="fraction of the paper's dataset size")
    evolve.add_argument("--countries", nargs="*", metavar="CC",
                        help="restrict to these country codes")
    evolve.add_argument("--snapshots", type=int, default=3, metavar="N",
                        help="series length including the base snapshot "
                             "(default: 3)")
    evolve.add_argument("--evolve-seed", type=int, default=1, metavar="SEED",
                        help="seed of the mutation model (default: 1)")
    evolve.add_argument("--cache-dir", metavar="PATH", default=None,
                        help="shared scan cache; unchanged countries of "
                             "each snapshot are served from it instead of "
                             "re-scanned (default: no caching, every "
                             "snapshot runs cold)")
    evolve.add_argument("--out-dir", metavar="PATH", default=None,
                        help="write each snapshot as "
                             "<out-dir>/snapshot-N.jsonl")
    evolve.add_argument("--manifest", action="store_true",
                        help="write a provenance manifest per snapshot, "
                             "chained to its parent (requires --out-dir)")
    evolve.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes for the per-country scans "
                             "(default: 1, serial; N >= 2 runs a pool "
                             "of N)")
    evolve.add_argument("--registry", metavar="DIR", default=None,
                        help="append every snapshot's manifest to the "
                             "cross-run registry journal under DIR")

    sweep = subparsers.add_parser(
        "sweep", help="run a scenario matrix as one deduplicated scan "
                      "wave and compare every scenario to the baseline"
    )
    sweep.add_argument("--seed", type=int, default=42)
    sweep.add_argument("--scale", type=float, default=0.05,
                       help="fraction of the paper's dataset size")
    sweep.add_argument("--countries", nargs="*", metavar="CC",
                       help="restrict to these country codes")
    matrix_source = sweep.add_mutually_exclusive_group(required=True)
    matrix_source.add_argument("--matrix", metavar="PATH",
                               help="JSON scenario matrix (schema: see "
                                    "API.md, `repro.scenarios`)")
    matrix_source.add_argument("--demo", action="store_true",
                               help="use a built-in matrix exercising all "
                                    "three axes (dns faults, provider "
                                    "outage, evolution)")
    sweep.add_argument("--cache-dir", metavar="PATH", default=None,
                       help="persistent scan cache shared across the "
                            "whole sweep (and with `repro-gov run`)")
    sweep.add_argument("--workers", type=int, default=None, metavar="N",
                       help="worker processes for the deduplicated scan "
                            "wave (default: 1, serial; N >= 2 runs a "
                            "pool of N)")
    sweep.add_argument("--out-dir", metavar="PATH", default=None,
                       help="write each scenario's dataset as "
                            "<out-dir>/<scenario>.jsonl")
    sweep.add_argument("--json", dest="json_out", metavar="PATH",
                       default=None,
                       help="write the accounting and per-scenario "
                            "divergences as JSON")
    sweep.add_argument("--registry", metavar="DIR", default=None,
                       help="append one manifest per distinct swept "
                            "config to the cross-run registry under DIR")

    cache = subparsers.add_parser(
        "cache", help="inspect or prune a persistent scan cache"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_sub.add_parser(
        "stats", help="entry/byte totals, per-country counts, age bounds"
    )
    cache_stats.add_argument("--cache-dir", required=True, metavar="PATH")
    cache_stats.add_argument("--json", dest="json_out", action="store_true",
                             help="print the stats as JSON instead of a "
                                  "table")
    cache_prune = cache_sub.add_parser(
        "prune", help="LRU-by-mtime eviction: age out entries and/or "
                      "shrink the cache to a byte budget"
    )
    cache_prune.add_argument("--cache-dir", required=True, metavar="PATH")
    cache_prune.add_argument("--max-bytes", metavar="SIZE", default=None,
                             help="keep at most this many bytes, evicting "
                                  "oldest-first (suffixes K/M/G, e.g. "
                                  "500M)")
    cache_prune.add_argument("--older-than", metavar="AGE", default=None,
                             help="drop entries older than this "
                                  "(suffixes s/m/h/d, e.g. 7d)")
    cache_prune.add_argument("--dry-run", action="store_true",
                             help="report what would be removed without "
                                  "deleting anything")

    report = subparsers.add_parser(
        "report", help="print analyses over a saved dataset "
                       "(a jsonl file or a columnar store directory)"
    )
    report.add_argument("dataset", metavar="PATH")
    report.add_argument("--section", choices=SECTION_NAMES, default="summary")

    convert = subparsers.add_parser(
        "convert", help="convert between the jsonl export and the "
                        "columnar store (direction inferred from SRC)"
    )
    convert.add_argument("src", metavar="SRC",
                         help="a jsonl dataset file or a store directory")
    convert.add_argument("dst", metavar="DST",
                         help="the store directory (from jsonl) or jsonl "
                              "file (from a store) to write")
    convert.add_argument("--overwrite", action="store_true",
                         help="replace DST if it already exists")
    convert.add_argument("--verify", action="store_true",
                         help="re-hash every column of the store side "
                              "against its manifest digests")

    serve = subparsers.add_parser(
        "serve", help="run the HTTP query service over a saved dataset"
    )
    dataset_source = serve.add_mutually_exclusive_group(required=True)
    dataset_source.add_argument("--dataset", metavar="PATH",
                                help="a jsonl dataset file to serve")
    dataset_source.add_argument("--store-dir", metavar="PATH",
                                help="a columnar store directory to serve "
                                     "(zero-copy, preferred at scale)")
    serve.add_argument("--history", action="append", default=[],
                       metavar="PATH",
                       help="an earlier snapshot of the same series "
                            "(repeatable, oldest first); enables real "
                            "multi-snapshot curves on /v1/trends")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8321,
                       help="bind port; 0 picks a free one (default: 8321)")
    serve.add_argument("--workers", type=int, default=8, metavar="N",
                       help="max concurrent connections (default: 8)")
    serve.add_argument("--trace-dir", metavar="DIR", default=None,
                       help="trace every request into a bounded on-disk "
                            "ring under DIR (request-NNNN.json slot files "
                            "plus slow-queries.jsonl); responses stay "
                            "byte-identical to untraced serving")
    serve.add_argument("--trace-ring", type=int, default=128, metavar="N",
                       help="slot files in the request-trace ring "
                            "(default: 128; requires --trace-dir)")
    serve.add_argument("--slow-ms", type=float, default=250.0, metavar="MS",
                       help="append requests at or above this latency to "
                            "slow-queries.jsonl (default: 250)")

    obs = subparsers.add_parser(
        "obs", help="cross-run observability: query the run registry, "
                    "diff runs, gate benchmark results"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_runs = obs_sub.add_parser(
        "runs", help="list every run recorded in a registry journal"
    )
    obs_runs.add_argument("--registry", required=True, metavar="DIR")
    obs_runs.add_argument("--json", dest="json_out", action="store_true",
                          help="print the runs as JSON instead of a table")
    obs_diff = obs_sub.add_parser(
        "diff", help="structured diff of two registered runs "
                     "(config, countries, dataset shape, timings, "
                     "cache, versions)"
    )
    obs_diff.add_argument("a", metavar="RUN_A",
                          help="sequence number, run id, or id prefix")
    obs_diff.add_argument("b", metavar="RUN_B",
                          help="sequence number, run id, or id prefix")
    obs_diff.add_argument("--registry", required=True, metavar="DIR")
    obs_diff.add_argument("--json", dest="json_out", action="store_true",
                          help="print the diff as JSON instead of tables")
    obs_bench = obs_sub.add_parser(
        "bench", help="evaluate the declarative regression gates over "
                      "BENCH_<kind>.json documents"
    )
    obs_bench.add_argument("benches", nargs="+", metavar="BENCH_JSON",
                           help="one or more BENCH_<kind>.json files")
    obs_bench.add_argument("--check", action="store_true",
                           help="exit non-zero if any gate fails "
                                "(naming the culprit metric)")
    obs_bench.add_argument("--json", dest="json_out", action="store_true",
                           help="print gate results as JSON")
    obs_bench.add_argument("--registry", metavar="DIR", default=None,
                           help="also compare each fingerprint's latest "
                                "registered run against its own history "
                                "(wall time, cache hit rate)")

    inspect = subparsers.add_parser(
        "inspect", help="trace one hostname through the pipeline"
    )
    inspect.add_argument("--hostname", required=True)
    inspect.add_argument("--seed", type=int, default=42)
    inspect.add_argument("--scale", type=float, default=0.04)
    return parser


def _progress_printer(country: str, seconds: float, completed: int,
                      expected: Optional[int]) -> None:
    """Per-country heartbeat for ``run --progress`` (stderr, flushed)."""
    total = f"/{expected}" if expected is not None else ""
    print(f"[{completed}{total}] scanned {country} in {seconds:.2f}s",
          file=sys.stderr, flush=True)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def _world_config(args: argparse.Namespace,
                  **fields) -> Optional[WorldConfig]:
    """The command's validated ``WorldConfig`` (country codes included),
    or None after printing why it is invalid."""
    try:
        config = WorldConfig(seed=args.seed, scale=args.scale, **fields)
        config.country_codes()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    return config


def _output_problem(path: str, directory: bool) -> Optional[str]:
    """Why ``path`` cannot be written as a file, or as a directory that
    is created with its parents on write; None if it can."""
    import pathlib

    target = pathlib.Path(path)
    if directory:
        for part in (target, *target.parents):
            if part.exists() and not part.is_dir():
                return f"{part} is not a directory"
        return None
    if target.is_dir():
        return "is a directory"
    if not target.parent.is_dir():
        if target.parent.exists():
            return f"{target.parent} is not a directory"
        return f"directory {target.parent} does not exist"
    return None


def _unwritable(files: Sequence[tuple[str, Optional[str]]] = (),
                directories: Sequence[tuple[str, Optional[str]]] = ()
                ) -> bool:
    """Whether an ``(option, path)`` output of a batch command cannot be
    written, after printing one error line naming the option and the
    path.  Checked before any work, so a run never ends on it."""
    for outputs, directory in ((files, False), (directories, True)):
        for option, path in outputs:
            problem = path and _output_problem(path, directory)
            if problem:
                print(f"error: {option} {path}: {problem}", file=sys.stderr)
                return True
    return False


def _cmd_run(args: argparse.Namespace) -> int:
    config = _world_config(
        args,
        countries=args.countries or None,
        fault_rate=args.fault_rate,
        fault_profile=args.fault_profile,
        fault_seed=args.fault_seed,
    )
    if config is None:
        return 2
    if args.manifest and not args.out:
        print("error: --manifest requires --out", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    if args.cache_clear and not args.cache_dir:
        print("error: --cache-clear requires --cache-dir", file=sys.stderr)
        return 2
    files = [("--out", args.out), ("--csv", args.csv),
             ("--trace-out", args.trace_out),
             ("--metrics-out", args.metrics_out)]
    if args.trace_out:
        files.append(("--trace-out", _chrome_trace_path(args.trace_out)))
    if args.manifest:
        from repro.obs import manifest_path_for

        files.append(("--manifest", str(manifest_path_for(args.out))))
    if _unwritable(files=files,
                   directories=[("--store-dir", args.store_dir),
                                ("--cache-dir", args.cache_dir),
                                ("--registry", args.registry)]):
        return 2
    registry = None
    if args.registry:
        from repro.obs import RegistryError, RunRegistry

        try:
            registry = RunRegistry(args.registry)
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    cache = None
    if args.cache_dir:
        from repro.cache import ScanCache

        cache = ScanCache(args.cache_dir)
        if args.cache_clear:
            removed = cache.clear()
            print(f"cache: cleared {removed} entries from {args.cache_dir}")
    obs = None
    observed = (args.trace_out or args.metrics_out or args.manifest
                or args.progress or args.registry)
    if observed:
        from repro.obs import Observability

        obs = Observability(
            progress=_progress_printer if args.progress else None
        )
    from repro.core.pipeline import Pipeline
    from repro.exec import make_executor

    executor = make_executor(args.workers)
    pipeline = Pipeline(config, obs=obs)
    try:
        dataset = pipeline.run(executor=executor, cache=cache)
    finally:
        executor.close()
    summary = dataset.summarize()
    print(f"measured {summary.total_unique_urls:,} URLs over "
          f"{summary.unique_hostnames:,} hostnames "
          f"({summary.ases} ASes, {summary.unique_addresses} addresses)")
    if obs is not None:
        from repro.reporting.obs import render_run_summary

        print(render_run_summary(
            obs, cache_line=cache.stats.summary() if cache else None
        ))
    elif cache is not None:
        print(f"cache: {cache.stats.summary()}")
    if dataset.faults.countries:
        from repro.reporting.faults import render_fault_report

        print(render_fault_report(dataset.faults))
    if args.out:
        from repro.io import save_dataset

        written = save_dataset(dataset, args.out)
        print(f"wrote {written:,} records to {args.out}")
    if args.csv:
        from repro.io import export_csv

        written = export_csv(dataset, args.csv)
        print(f"wrote {written:,} rows to {args.csv}")
    if args.store_dir:
        from repro.store import write_store

        result = write_store(dataset, args.store_dir, overwrite=True)
        print(f"wrote {result.record_count:,} records over "
              f"{result.shard_count} shards to {args.store_dir}")
    if obs is not None:
        if args.trace_out:
            _write_json(args.trace_out, obs.tracer.to_dict())
            chrome_path = _chrome_trace_path(args.trace_out)
            _write_json(chrome_path, obs.tracer.to_chrome())
            print(f"wrote trace to {args.trace_out} (+ {chrome_path})")
        if args.metrics_out:
            _write_json(args.metrics_out, obs.metrics.to_dict())
            print(f"wrote metrics to {args.metrics_out}")
        if args.manifest or args.registry:
            from repro.obs import RunManifest, manifest_path_for

            manifest = RunManifest.collect(
                pipeline, dataset, executor=executor, cache=cache, obs=obs
            )
            if args.manifest:
                path = manifest.write(manifest_path_for(args.out))
                print(f"wrote manifest to {path}")
            if registry is not None:
                run, created = registry.record(manifest)
                verb = "recorded" if created else "already recorded as"
                print(f"registry: {verb} run #{run.seq} {run.id[:12]} "
                      f"in {args.registry}")
    return 0


#: Multipliers for the ``cache prune --older-than`` suffixes.
_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}

#: Multipliers for the ``cache prune --max-bytes`` suffixes (binary).
_SIZE_UNITS = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def _parse_duration(text: str) -> float:
    """``"90"``/``"90s"``/``"15m"``/``"6h"``/``"7d"`` -> seconds."""
    text = text.strip().lower()
    multiplier = 1.0
    if text and text[-1] in _DURATION_UNITS:
        multiplier = _DURATION_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text) * multiplier
    except ValueError:
        value = math.nan  # not a number: rejected below, like inf
    if not math.isfinite(value):
        raise ValueError(
            f"invalid duration {text!r} (expected a number with an "
            f"optional s/m/h/d suffix, e.g. 7d)"
        )
    if value < 0:
        raise ValueError("durations must be non-negative")
    return value


def _parse_size(text: str) -> int:
    """``"1048576"``/``"512K"``/``"500M"``/``"2G"`` -> bytes."""
    text = text.strip().lower()
    multiplier = 1
    if text and text[-1] in _SIZE_UNITS:
        multiplier = _SIZE_UNITS[text[-1]]
        text = text[:-1]
    try:
        value = float(text) * multiplier
    except ValueError:
        value = math.nan  # not a number: rejected below, like inf
    if not math.isfinite(value):
        raise ValueError(
            f"invalid size {text!r} (expected a number with an optional "
            f"K/M/G suffix, e.g. 500M)"
        )
    if value < 0:
        raise ValueError("sizes must be non-negative")
    return int(value)


def _demo_matrix(config: WorldConfig):
    """The built-in ``sweep --demo`` matrix: one scenario per axis."""
    from repro.scenarios import ScenarioMatrix

    matrix = ScenarioMatrix(config)
    matrix.add_faults("dns-stress", rate=0.3, profile="dns")
    matrix.add_outage("cloudflare-outage", provider="cloudflare")
    matrix.add_evolution("evolved-1", steps=1)
    return matrix


def _cmd_sweep(args: argparse.Namespace) -> int:
    import pathlib

    from repro.exec import make_executor
    from repro.reporting.scenarios import render_sweep_report
    from repro.scenarios import (
        MatrixError,
        ScenarioMatrix,
        SweepRunner,
        compare_sweep,
    )

    if args.workers is not None and args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    config = _world_config(args, countries=args.countries or None)
    if config is None:
        return 2
    if _unwritable(files=[("--json", args.json_out)],
                   directories=[("--out-dir", args.out_dir),
                                ("--cache-dir", args.cache_dir),
                                ("--registry", args.registry)]):
        return 2
    try:
        if args.matrix:
            with open(args.matrix, "r", encoding="utf-8") as handle:
                matrix = ScenarioMatrix.from_json(handle.read(), base=config)
        else:
            matrix = _demo_matrix(config)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    cache = None
    if args.cache_dir:
        from repro.cache import ScanCache

        cache = ScanCache(args.cache_dir)
    registry = None
    if args.registry:
        from repro.obs import RegistryError, RunRegistry

        try:
            registry = RunRegistry(args.registry)
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    executor = make_executor(args.workers)
    try:
        runner = SweepRunner(matrix, cache=cache, executor=executor,
                             registry=registry)
        sweep = runner.run()
    except MatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        executor.close()
    divergences = compare_sweep(sweep)
    print(render_sweep_report(sweep, divergences))
    if cache is not None:
        print(f"cache: {cache.stats.summary()}")
    if registry is not None:
        print(f"registry: {len(registry)} runs in {args.registry}")
    if args.out_dir:
        from repro.io import save_dataset

        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in sweep.results:
            path = out_dir / f"{result.name}.jsonl"
            written = save_dataset(result.dataset, path)
            print(f"wrote {written:,} records to {path}")
    if args.json_out:
        _write_json(args.json_out, {
            "accounting": sweep.accounting.to_dict(),
            "scenarios": [
                {
                    "name": result.name,
                    "kind": result.scenario.kind,
                    "run_fp": result.run_fp,
                    "changed_countries": list(result.changed_countries),
                    "shares_baseline_dataset":
                        result.shares_baseline_dataset,
                }
                for result in sweep.results
            ],
            "divergences": [d.to_dict() for d in divergences],
        })
        print(f"wrote sweep summary to {args.json_out}")
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import ScanCache

    cache = ScanCache(args.cache_dir)
    if args.cache_command == "stats":
        usage = cache.usage()
        if args.json_out:
            json.dump(usage, sys.stdout, indent=2)
            print()
            return 0
        rows = [
            ["cache dir", usage["cache_dir"]],
            ["entries", f"{usage['entries']:,}"],
            ["total bytes", f"{usage['total_bytes']:,}"],
            ["countries", str(len(usage["countries"]))],
            ["recorded scan time", f"{usage['recorded_scan_s']:.1f}s"],
        ]
        print(render_table(["field", "value"], rows, title="Scan cache"))
        if usage["countries"]:
            per_country = ", ".join(
                f"{code}:{count}"
                for code, count in usage["countries"].items()
            )
            print(f"entries per country: {per_country}")
        return 0
    if args.cache_command == "prune":
        if args.max_bytes is None and args.older_than is None:
            print("error: prune needs --max-bytes and/or --older-than",
                  file=sys.stderr)
            return 2
        try:
            max_bytes = (
                _parse_size(args.max_bytes)
                if args.max_bytes is not None else None
            )
            older_than_s = (
                _parse_duration(args.older_than)
                if args.older_than is not None else None
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = cache.prune(
            max_bytes=max_bytes, older_than_s=older_than_s,
            dry_run=args.dry_run,
        )
        print(f"cache prune: {result.summary()}")
        return 0
    raise AssertionError(f"unhandled cache command {args.cache_command!r}")


def _cmd_evolve(args: argparse.Namespace) -> int:
    import pathlib

    from repro.analysis.longitudinal import compute_trends
    from repro.evolve import SnapshotSeries
    from repro.exec import make_executor
    from repro.reporting.sections import render_trend_report

    if args.snapshots < 1:
        print("error: --snapshots must be at least 1", file=sys.stderr)
        return 2
    if args.manifest and not args.out_dir:
        print("error: --manifest requires --out-dir", file=sys.stderr)
        return 2
    if args.workers is not None and args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    config = _world_config(args, countries=args.countries or None)
    if config is None:
        return 2
    if _unwritable(directories=[("--out-dir", args.out_dir),
                                ("--cache-dir", args.cache_dir),
                                ("--registry", args.registry)]):
        return 2
    registry = None
    if args.registry:
        from repro.obs import RegistryError, RunRegistry

        try:
            registry = RunRegistry(args.registry)
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    executor = make_executor(args.workers)
    series = SnapshotSeries(
        config, args.snapshots,
        evolution_seed=args.evolve_seed,
        cache=args.cache_dir,
        executor=executor,
        collect_manifests=args.manifest,
        registry=registry,
    )
    try:
        records = series.run()
    finally:
        executor.close()
    for record in records:
        changed = ", ".join(record.changed_countries) or "none"
        if record.cache_stats is not None:
            print(f"{record.label}: {record.cache_stats.summary()} "
                  f"(changed: {changed})")
        else:
            summary = record.dataset.summarize()
            print(f"{record.label}: {summary.total_unique_urls:,} URLs "
                  f"(changed: {changed})")
    if args.cache_dir:
        print(f"series total: {series.total_stats.summary()}")
    if registry is not None:
        print(f"registry: {len(registry)} runs in {args.registry}")
    if args.out_dir:
        from repro.io import save_dataset
        from repro.obs import manifest_path_for

        out_dir = pathlib.Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for record in records:
            path = out_dir / f"snapshot-{record.step}.jsonl"
            written = save_dataset(record.dataset, path)
            print(f"wrote {written:,} records to {path}")
            if record.manifest is not None:
                record.manifest.write(manifest_path_for(path))
    print()
    print(render_trend_report(compute_trends(
        [record.dataset for record in records],
        labels=[record.label for record in records],
    )))
    return 0


def _chrome_trace_path(trace_out: str) -> str:
    """``trace.json`` -> ``trace.chrome.json`` (suffix-preserving)."""
    if trace_out.endswith(".json"):
        return trace_out[:-len(".json")] + ".chrome.json"
    return trace_out + ".chrome.json"


def _load_any_dataset(path: str):
    """Open a jsonl export or store directory for a read-only command.

    Returns a ``repro.serve.loader.LoadedDataset`` (close it when
    done), or ``None`` after printing a one-line error -- the same
    ``FileNotFoundError``/``StoreError``/``ValueError`` mapping
    ``repro-gov convert`` uses, so every command that reads a dataset
    fails with exit 1 and a message instead of a traceback.  A store
    column that fails its digest when first read later raises
    ``StoreError`` too; the commands map that the same way.
    """
    from repro.serve.loader import open_any_dataset
    from repro.store import StoreError

    try:
        return open_any_dataset(path)
    except (FileNotFoundError, StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.reporting.sections import render_report_section
    from repro.store import StoreError

    loaded = _load_any_dataset(args.dataset)
    if loaded is None:
        return 1
    with loaded:
        try:
            text = render_report_section(loaded.dataset, args.section)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import QUERY_ENDPOINTS, DatasetService, create_server
    from repro.store import StoreError

    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as opened:
        datasets = []
        for path in [args.dataset or args.store_dir, *args.history]:
            item = _load_any_dataset(path)
            if item is None:
                return 1
            datasets.append(opened.enter_context(item))
        loaded, *history = datasets
        trace_log = None
        if args.trace_dir:
            from repro.serve import RequestTraceLog

            if args.trace_ring < 1:
                print("error: --trace-ring must be at least 1",
                      file=sys.stderr)
                return 2
            trace_log = RequestTraceLog(args.trace_dir,
                                        ring_size=args.trace_ring,
                                        slow_ms=args.slow_ms)
        try:
            # Every store file, not only those the warm-up reads: a
            # damaged column fails here, before the server listens.
            for item in datasets:
                item.verify()
            service = DatasetService(loaded, history=history)
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        server = create_server(service, host=args.host, port=args.port,
                               workers=args.workers, trace_log=trace_log)
        host, port = server.server_address[:2]
        print(f"serving {loaded.kind} dataset {loaded.path} "
              f"on http://{host}:{port} ({args.workers} workers)")
        print("endpoints: /healthz /metrics "
              + " ".join(f"/v1/{name}" for name in sorted(QUERY_ENDPOINTS)))
        if trace_log is not None:
            print(f"tracing requests into {trace_log.directory} "
                  f"(ring {trace_log.ring_size}, slow >= "
                  f"{trace_log.slow_ms:g}ms)")
        # A piped parent reads the bound port from the banner, and stdout
        # is block-buffered when it is not a terminal.
        sys.stdout.flush()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
        finally:
            server.close()
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    import pathlib

    from repro.store import (
        DatasetStore,
        StoreError,
        is_store_path,
        jsonl_to_store,
        store_to_jsonl,
    )

    src = pathlib.Path(args.src)
    dst = pathlib.Path(args.dst)
    try:
        if is_store_path(src):
            with DatasetStore(src) as store:
                if args.verify:
                    store.verify()
                    print(f"verified {store.record_count:,} records over "
                          f"{len(store.countries)} shards in {src}")
                if dst.exists() and not args.overwrite:
                    print(f"error: {dst} exists (pass --overwrite)",
                          file=sys.stderr)
                    return 2
                written = store_to_jsonl(store, dst)
            print(f"wrote {written:,} records to {dst}")
        else:
            result = jsonl_to_store(src, dst, overwrite=args.overwrite)
            print(f"wrote {result.record_count:,} records over "
                  f"{result.shard_count} shards to {dst}")
            if args.verify:
                with DatasetStore(dst) as store:
                    store.verify()
                print(f"verified {dst} against its manifest digests")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (StoreError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs import RegistryError, RunRegistry

    if args.obs_command == "runs":
        try:
            registry = RunRegistry(args.registry)
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        runs = registry.runs()
        if args.json_out:
            json.dump([run.to_dict() for run in runs], sys.stdout,
                      indent=2)
            print()
            return 0
        from repro.reporting.obs import render_run_listing

        print(render_run_listing(runs))
        return 0

    if args.obs_command == "diff":
        from repro.obs import diff_runs

        try:
            registry = RunRegistry(args.registry)
            run_a = registry.get(args.a)
            run_b = registry.get(args.b)
        except RegistryError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        diff = diff_runs(run_a, run_b)
        if args.json_out:
            json.dump(diff.to_dict(), sys.stdout, indent=2)
            print()
            return 0
        from repro.reporting.obs import render_run_diff

        print(f"diff of run #{run_a.seq} ({run_a.id[:12]}) vs "
              f"run #{run_b.seq} ({run_b.id[:12]})")
        print(render_run_diff(diff))
        return 0

    if args.obs_command == "bench":
        from repro.obs.sentinel import SentinelError, check, trajectory

        try:
            checks = check(args.benches)
        except SentinelError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        findings = ()
        if args.registry:
            try:
                findings = trajectory(RunRegistry(args.registry))
            except RegistryError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        if args.json_out:
            json.dump({
                "checks": [item.to_dict() for item in checks],
                "trajectory": [f.to_dict() for f in findings],
            }, sys.stdout, indent=2)
            print()
        else:
            for item in checks:
                for result in item.results:
                    mark = "ok  " if result.ok else "FAIL"
                    print(f"{mark} [{item.kind}] {result.message}")
            for finding in findings:
                print(f"WARN trajectory: {finding.metric} of fingerprint "
                      f"{finding.fingerprint[:12]} moved "
                      f"{finding.baseline} -> {finding.latest} "
                      f"({finding.ratio}x, run {finding.run_id[:12]})")
        failures = [(item, result) for item in checks
                    for result in item.results if not result.ok]
        if failures:
            culprits = ", ".join(
                f"{item.path}: {result.metric}"
                for item, result in failures
            )
            print(f"bench gates FAILED ({len(failures)}): {culprits}",
                  file=sys.stderr)
            if args.check:
                return 1
        elif not args.json_out:
            total = sum(len(item.results) for item in checks)
            print(f"bench gates passed ({total} gates over "
                  f"{len(checks)} files)")
        return 0

    raise AssertionError(f"unhandled obs command {args.obs_command!r}")


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.core.pipeline import Pipeline
    from repro.datagen.generator import SyntheticWorld
    from repro.netsim.ipaddr import format_ip

    config = _world_config(args)
    if config is None:
        return 2
    world = SyntheticWorld.generate(config)
    pipeline = Pipeline(world)
    hostname = args.hostname.lower()
    truth = world.truth.hosts.get(hostname)
    if truth is None:
        print(f"error: unknown hostname {hostname!r}", file=sys.stderr)
        return 1
    vantage = world.vpn.vantage_for(truth.country)
    info = pipeline.mapper.map_host(hostname, vantage)
    verdict = pipeline.geolocator.locate(info.address, truth.country)
    ownership = pipeline.ownership.classify(info.asn)
    rows = [
        ["hostname", hostname],
        ["government", truth.country],
        ["address", format_ip(info.address)],
        ["asn", info.asn],
        ["organization", info.organization],
        ["registration", info.registered_country],
        ["government-operated", ownership.is_government],
        ["server location", verdict.country or "excluded"],
        ["validation", verdict.method.value],
    ]
    print(render_table(["field", "value"], rows))
    return 0


#: The stderr handler installed by the last ``main()`` call, so repeated
#: in-process invocations (tests, notebooks) reconfigure instead of
#: stacking handlers.
_log_handler: Optional[logging.Handler] = None


def _configure_logging(verbose: int, quiet: bool) -> None:
    """Map -v/-q onto the ``repro`` logger hierarchy (stderr handler).

    The library itself only attaches a ``NullHandler``; this is the
    application-side configuration, so importing :mod:`repro` never
    prints anything on its own.
    """
    global _log_handler
    if quiet:
        level = logging.ERROR
    elif verbose >= 2:
        level = logging.DEBUG
    elif verbose == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    root = logging.getLogger("repro")
    if _log_handler is not None:
        root.removeHandler(_log_handler)
    _log_handler = logging.StreamHandler(sys.stderr)
    _log_handler.setFormatter(
        logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    root.setLevel(level)
    root.addHandler(_log_handler)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; returns its exit status.  Called in process
    (tests, notebooks), it leaves the collector as it found it."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value starting with "-" for a missing one, so a
    # negative age, size or scale is joined to its option to reach its
    # check.
    for at in range(len(argv) - 1, 0, -1):
        if (argv[at - 1] in ("--older-than", "--max-bytes", "--scale")
                and argv[at].startswith("-") and argv[at][1:2] != "-"):
            argv[at - 1:at + 1] = [f"{argv[at - 1]}={argv[at]}"]
    args = _build_parser().parse_args(argv)
    _configure_logging(args.verbose, args.quiet)
    try:
        status = _dispatch(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout went away (``| head``, ``| true``).  Point
        # stdout at devnull, so the interpreter's flush at exit cannot
        # raise again, and fail without a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except OSError as exc:
        # An output the checks before the work could not foresee (a full
        # disk, a permission) fails with one line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


#: The collector's (gen-0, gen-1, gen-2) thresholds while a batch
#: command runs; CPython's defaults are (700, 10, 10).
BATCH_GC_THRESHOLDS = (100_000, 50, 100)


@contextlib.contextmanager
def _batch_collection():
    """Raise the cyclic collector's thresholds for one batch command.

    ``run``, ``sweep`` and ``evolve`` build worlds of millions of objects
    and keep nearly all of them to the end, so at CPython's defaults the
    collector walks them again and again (over a quarter of a cold run
    at scale 0.2).  The thresholds found on entry come back on exit, so
    in-process callers, ``serve`` and the library keep theirs; a pool
    worker forked inside the command inherits the raised ones.
    """
    found = gc.get_threshold()
    gc.set_threshold(*BATCH_GC_THRESHOLDS)
    try:
        yield
    finally:
        gc.set_threshold(*found)


_COMMANDS = {
    "run": _cmd_run, "sweep": _cmd_sweep, "cache": _cmd_cache,
    "evolve": _cmd_evolve, "report": _cmd_report, "convert": _cmd_convert,
    "serve": _cmd_serve, "obs": _cmd_obs, "inspect": _cmd_inspect,
}


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command; returns its exit status.  The batch
    commands run under :func:`_batch_collection`."""
    command = _COMMANDS[args.command]
    if args.command not in ("run", "sweep", "evolve"):
        return command(args)
    with _batch_collection():
        return command(args)


def entry() -> int:
    """The process entry: ``python -m repro.cli`` and the ``repro-gov``
    console script.

    When :func:`main` is done (argparse's exits included), every live
    object moves to the collector's permanent generation, so the
    collections that run while the interpreter finalizes skip the heap
    the command built.  Exit handlers, logging's shutdown and the final
    flush still run.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(entry())
