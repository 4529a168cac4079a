"""Run manifests: collection, round-trip, fingerprint stability."""

import json

import pytest

from repro import Pipeline, SyntheticWorld, WorldConfig
from repro.cache.fingerprint import run_fingerprint
from repro.obs import (
    MANIFEST_FORMAT_VERSION,
    Observability,
    RunManifest,
    SUPPORTED_MANIFEST_FORMATS,
    manifest_path_for,
    tool_version,
)

COUNTRIES = ("BR", "US", "FR")
CONFIG = WorldConfig(seed=21, scale=0.02, countries=COUNTRIES,
                     include_topsites=False)


@pytest.fixture(scope="module")
def observed_run():
    world = SyntheticWorld.generate(CONFIG)
    pipeline = Pipeline(world, obs=Observability())
    dataset = pipeline.run(list(COUNTRIES))
    return pipeline, dataset


def test_collect_records_run_identity(observed_run):
    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset, obs=pipeline.obs)
    assert manifest.seed == CONFIG.seed
    assert manifest.scale == CONFIG.scale
    assert manifest.countries == sorted(COUNTRIES)
    assert manifest.executor == "serial"
    assert manifest.max_depth == pipeline.crawler.max_depth
    assert manifest.fault_rate == 0.0
    assert manifest.faults == {"injected": 0, "retried": 0,
                               "recovered": 0, "degraded": 0}
    assert manifest.cache is None
    summary = dataset.summarize()
    assert manifest.summary["total_unique_urls"] == summary.total_unique_urls
    assert manifest.summary["unique_hostnames"] == summary.unique_hostnames


def test_collect_fingerprint_matches_cache_derivation(observed_run):
    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset)
    assert manifest.fingerprint == run_fingerprint(CONFIG)


def test_collect_records_the_given_cache_accounting(observed_run):
    from repro.cache import CacheStats

    pipeline, dataset = observed_run
    stats = CacheStats(hits=2, misses=1, stores=1, bytes_read=10)
    manifest = RunManifest.collect(pipeline.config, dataset,
                                   cache_stats=stats)
    assert manifest.cache == stats.to_dict()
    assert manifest.cache["hit_rate"] == pytest.approx(2 / 3)


def test_fingerprint_is_stable_and_input_sensitive(observed_run):
    pipeline, dataset = observed_run
    first = RunManifest.collect(pipeline.config, dataset)
    second = RunManifest.collect(pipeline.config, dataset)
    assert first.fingerprint == second.fingerprint

    other_config = WorldConfig(seed=22, scale=0.02, countries=COUNTRIES,
                               include_topsites=False)
    assert run_fingerprint(other_config) != first.fingerprint


def test_stage_seconds_come_from_the_trace(observed_run):
    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset, obs=pipeline.obs)
    assert set(manifest.stage_seconds) == {"total", "scan", "merge",
                                           "finalize"}
    assert manifest.stage_seconds["total"] >= manifest.stage_seconds["scan"]
    untraced = RunManifest.collect(pipeline.config, dataset)
    assert untraced.stage_seconds == {}


def test_versions_cover_the_reproducibility_surface(observed_run):
    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset)
    assert set(manifest.versions) >= {"repro", "python", "numpy",
                                      "implementation"}


def test_numpy_version_is_read_from_package_metadata(observed_run,
                                                    monkeypatch):
    import importlib.metadata

    import numpy

    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset)
    assert manifest.versions["numpy"] == numpy.__version__

    def not_installed(name):
        raise importlib.metadata.PackageNotFoundError(name)

    # A run needs no numpy, so its absence is recorded, not raised.
    monkeypatch.setattr(importlib.metadata, "version", not_installed)
    manifest = RunManifest.collect(pipeline.config, dataset)
    assert manifest.versions["numpy"] == "not installed"


def test_write_read_round_trip(observed_run, tmp_path):
    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset, obs=pipeline.obs)
    path = manifest.write(tmp_path / "ds.jsonl.manifest.json")
    restored = RunManifest.read(path)
    assert restored == manifest
    # The on-disk form is stable, sorted JSON.
    data = json.loads(path.read_text())
    assert list(data) == sorted(data)


def test_read_rejects_unknown_format(observed_run, tmp_path):
    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset)
    path = manifest.write(tmp_path / "m.json")
    payload = json.loads(path.read_text())
    payload["format"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="unsupported manifest format"):
        RunManifest.read(path)


def test_from_dict_ignores_unknown_fields(observed_run):
    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset)
    payload = manifest.to_dict()
    payload["added_in_a_future_version"] = True
    assert RunManifest.from_dict(payload) == manifest


def test_collected_manifest_records_the_tool_version(observed_run):
    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset)
    assert manifest.format == MANIFEST_FORMAT_VERSION == 2
    assert manifest.tool_version == tool_version()
    assert manifest.tool_version != "unknown"


def test_read_accepts_old_format_without_tool_version(observed_run,
                                                      tmp_path):
    """Backward: a format-1 manifest (pre-tool_version) still loads."""
    pipeline, dataset = observed_run
    manifest = RunManifest.collect(pipeline.config, dataset)
    payload = manifest.to_dict()
    payload["format"] = 1
    del payload["tool_version"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(payload))
    restored = RunManifest.read(path)
    # An old manifest must not claim the *reader's* version.
    assert restored.tool_version == "unknown"
    assert restored.fingerprint == manifest.fingerprint
    assert set(SUPPORTED_MANIFEST_FORMATS) == {1, 2}


def test_from_dict_preserves_an_explicit_tool_version(observed_run):
    """Forward: a newer writer's tool_version survives the round trip."""
    pipeline, dataset = observed_run
    payload = RunManifest.collect(pipeline.config, dataset).to_dict()
    payload["tool_version"] = "9.9.9"
    assert RunManifest.from_dict(payload).tool_version == "9.9.9"


def test_tool_version_never_raises():
    assert isinstance(tool_version(), str)
    assert tool_version()


def test_manifest_path_is_a_dataset_sibling(tmp_path):
    assert manifest_path_for(tmp_path / "run.jsonl").name == \
        "run.jsonl.manifest.json"


def test_faulted_run_manifest_accounts_faults():
    config = WorldConfig(seed=21, scale=0.02, countries=COUNTRIES,
                         include_topsites=False, fault_rate=0.2)
    world = SyntheticWorld.generate(config)
    pipeline = Pipeline(world)
    dataset = pipeline.run(list(COUNTRIES))
    manifest = RunManifest.collect(pipeline.config, dataset)
    assert manifest.fault_rate == 0.2
    assert manifest.faults["injected"] > 0
    assert manifest.fault_seed == pipeline.fault_plan.seed
