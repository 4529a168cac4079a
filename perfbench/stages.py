"""One ``repro-gov run`` through the library, timed layer by layer.

``run.py`` starts this script in a fresh interpreter, so the import
layer is paid exactly as a shell user pays it::

    PYTHONPATH=src python3 perfbench/stages.py --seed N --scale S \
        --result RESULT.json [--out RUN.jsonl] [--store-dir DIR] \
        [--cache-dir DIR] [--queries]

It makes the calls ``repro-gov run`` makes -- import, world generation,
``Pipeline.run`` (the per-country scans plus merge/finalize), summary,
persist -- with a span around each.  With ``--store-dir`` it then opens
the store it wrote and builds the query service over it, which is what
``repro-gov serve --store-dir`` does before it answers (``load_s``).
With ``--queries`` it answers the seeded query mix and the full report
through the query service over the in-memory dataset; ``run.py`` checks
the served bytes against these answers.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time


def query_mix(countries: list, seed: int) -> list:
    """The query mix (GET-style string parameters) for one dataset.

    It is ``WORKLOAD`` of ``benchmarks/bench_serve.py``, with the
    countries, the ``top`` count and the last report section drawn from
    ``seed`` instead of fixed.
    """
    rng = random.Random(seed)
    picks = rng.sample(countries, 4)
    return [
        ["summary", {}],
        ["categories", {"country": picks[0]}],
        ["categories", {"country": picks[1], "weighting": "bytes"}],
        ["crossborder", {"sources": f"{picks[2]},{picks[3]}"}],
        ["crossborder", {"basis": "registration", "sources": picks[0]}],
        ["providers", {"top": str(rng.randint(5, 20))}],
        ["report", {"section": "summary"}],
        ["report", {"section": rng.choice(["global", "domestic",
                                           "providers"])}],
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--out")
    parser.add_argument("--store-dir")
    parser.add_argument("--cache-dir")
    parser.add_argument("--queries", action="store_true")
    args = parser.parse_args()
    layers = {}

    started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import graph `repro-gov` pays)
    from repro import Pipeline, SyntheticWorld, WorldConfig
    layers["import_s"] = time.perf_counter() - started

    started = time.perf_counter()
    world = SyntheticWorld.generate(WorldConfig(seed=args.seed,
                                                scale=args.scale))
    layers["generate_s"] = time.perf_counter() - started

    cache = None
    if args.cache_dir:
        from repro.cache import ScanCache

        cache = ScanCache(args.cache_dir)
    started = time.perf_counter()
    dataset = Pipeline(world).run(cache=cache)
    layers["scan_s"] = time.perf_counter() - started

    started = time.perf_counter()
    summary = dataset.summarize()
    layers["summarize_s"] = time.perf_counter() - started

    started = time.perf_counter()
    if args.out:
        from repro.io import save_dataset

        save_dataset(dataset, args.out)
    if args.store_dir:
        from repro.store import write_store

        write_store(dataset, args.store_dir, overwrite=True)
    layers["persist_s"] = time.perf_counter() - started

    result = {
        "layers": layers,
        "countries": len(dataset.countries),
        # The four figures `repro-gov run` prints, in its order.
        "counts": [summary.total_unique_urls, summary.unique_hostnames,
                   summary.ases, summary.unique_addresses],
        "cache_hits": cache.stats.hits if cache else 0,
        "scans_executed": (cache.stats.misses if cache
                           else len(dataset.countries)),
    }
    if args.store_dir or args.queries:
        from repro.serve import DatasetService
        from repro.serve.loader import open_any_dataset

    if args.store_dir:
        started = time.perf_counter()
        loaded = open_any_dataset(args.store_dir)
        DatasetService(loaded)
        layers["load_s"] = time.perf_counter() - started
        loaded.close()

    if args.queries:
        service = DatasetService(dataset)
        queries = query_mix(sorted(dataset.countries), args.seed)
        for query in queries:
            answer = service.query(query[0], query[1])
            query.append(json.dumps(answer, sort_keys=True))
        result["queries"] = queries
        result["full_report"] = json.dumps(
            service.query("report", {"section": "full"}), sort_keys=True)

    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
