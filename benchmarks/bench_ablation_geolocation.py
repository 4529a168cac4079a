"""Ablation: contribution of each geolocation stage (Section 3.5).

Disables stages of the cascade (active probing, HOIHO, IPmap,
single-radius) and measures how many unicast addresses keep a validated
location -- quantifying why the paper needs the full multistage design.
"""

import pytest

from repro.core.geolocation import Geolocator
from repro.reporting.tables import render_table

_VARIANTS = {
    "full cascade": {},
    "no active probing": {"enable_active_probing": False},
    "no HOIHO": {"enable_hoiho": False},
    "no IPmap": {"enable_ipmap": False},
    "no single-radius": {"enable_single_radius": False},
    "IPInfo + probing only": {
        "enable_hoiho": False, "enable_ipmap": False,
        "enable_single_radius": False,
    },
}


@pytest.fixture(scope="module")
def unicast_addresses(bench_dataset):
    return sorted({
        host.address for country in bench_dataset.countries.values()
        for host in country.host_table.hosts if not host.anycast
    })


def _coverage(world, pipeline, addresses, **flags):
    geolocator = Geolocator(
        ipinfo=world.ipinfo, manycast=world.manycast, atlas=pipeline.atlas,
        hoiho=world.hoiho, ipmap=world.ipmap, **flags,
    )
    confirmed = sum(
        1 for address in addresses
        if not geolocator.locate_unicast(address).excluded
    )
    return confirmed / len(addresses)


def test_ablation_geolocation(benchmark, bench_world, bench_pipeline,
                              unicast_addresses, report):
    results = {}
    for name, flags in _VARIANTS.items():
        results[name] = _coverage(
            bench_world, bench_pipeline, unicast_addresses, **flags
        )
    benchmark(_coverage, bench_world, bench_pipeline, unicast_addresses)
    rows = [[name, f"{value:.2%}"] for name, value in results.items()]
    report("ablation_geolocation", render_table(
        ["variant", "confirmed coverage"], rows,
        title="Ablation -- geolocation stage contributions",
    ))
    full = results["full cascade"]
    assert full > 0.90
    # Every stage contributes: removing any of them costs coverage.
    assert results["no HOIHO"] < full
    assert results["IPInfo + probing only"] < results["no HOIHO"]
    assert results["no active probing"] <= full


def test_ablation_fixed_vs_percountry_threshold(
    bench_world, bench_pipeline, bench_dataset, report, benchmark,
):
    """The per-country road-distance thresholds of Section 3.5 vs one
    generous global threshold, evaluated on the anycast verification
    step: with a fixed generous bound, anycast services without any
    domestic site get 'confirmed' as in-country."""
    pairs = sorted({
        (host.address, code)
        for code, country in bench_dataset.countries.items()
        for host in country.host_table.hosts if host.anycast
    } | {
        (t.address, t.country)
        for t in bench_world.truth.hosts.values() if t.anycast
    })

    def false_domestic(fixed):
        geolocator = Geolocator(
            ipinfo=bench_world.ipinfo, manycast=bench_world.manycast,
            atlas=bench_pipeline.atlas, hoiho=bench_world.hoiho,
            ipmap=bench_world.ipmap, fixed_threshold_ms=fixed,
        )
        confirmed = wrong = 0
        for address, home in pairs:
            verdict = geolocator.locate_anycast(address, home)
            if verdict.excluded:
                continue
            confirmed += 1
            group = bench_world.anycast_index.get(address)
            if group is not None and not group.serves_country(home):
                wrong += 1
        return confirmed, wrong

    per_country = benchmark.pedantic(
        false_domestic, args=(None,), rounds=1, iterations=1
    )
    generous = false_domestic(400.0)
    rows = [
        ["per-country road thresholds", per_country[0], per_country[1]],
        ["fixed 400 ms threshold", generous[0], generous[1]],
    ]
    report("ablation_thresholds", render_table(
        ["variant", "confirmed in-country", "without any domestic site"],
        rows, title="Ablation -- per-country vs fixed latency thresholds "
                    "(anycast verification)",
    ))
    assert generous[1] >= per_country[1]
    assert generous[0] >= per_country[0]
    # The generous bound confirms everything, including offshore catchments.
    if generous[0] > per_country[0]:
        assert generous[1] > per_country[1]
