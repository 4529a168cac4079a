"""Tests for the repro-gov command-line interface."""

import json

import pytest

from repro import SyntheticWorld
from repro.cli import main


def test_run_writes_dataset(tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    csv = tmp_path / "ds.csv"
    code = main([
        "run", "--seed", "5", "--scale", "0.05",
        "--countries", "UY", "PY",
        "--out", str(out), "--csv", str(csv),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "measured" in captured
    assert out.exists() and csv.exists()


@pytest.fixture(scope="module")
def saved_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds.jsonl"
    main(["run", "--seed", "5", "--scale", "0.03", "--out", str(path)])
    return path


@pytest.mark.parametrize("section", [
    "summary", "global", "regional", "domestic", "providers",
    "diversification", "full",
])
def test_report_sections(saved_dataset, section, capsys):
    assert main(["report", str(saved_dataset), "--section", section]) == 0
    assert capsys.readouterr().out.strip()


def test_inspect_known_hostname(capsys):
    # gouv.nc exists at any scale and is deterministic.
    assert main(["inspect", "--hostname", "gouv.nc", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "OPT" in out or "opt" in out or "NC" in out


def test_inspect_unknown_hostname(capsys):
    assert main(["inspect", "--hostname", "nope.example",
                 "--scale", "0.02"]) == 1
    assert "unknown hostname" in capsys.readouterr().err


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_run_with_cache_warm_start(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    args = [
        "run", "--seed", "5", "--scale", "0.05",
        "--countries", "UY", "PY",
        "--cache-dir", str(cache_dir),
    ]
    cold = tmp_path / "cold.jsonl"
    assert main(args + ["--out", str(cold)]) == 0
    cold_report = capsys.readouterr().out
    assert "cache: 0 hits, 2 misses" in cold_report

    warm = tmp_path / "warm.jsonl"
    assert main(args + ["--out", str(warm)]) == 0
    warm_report = capsys.readouterr().out
    assert "cache: 2 hits, 0 misses (100% hit rate)" in warm_report
    assert warm.read_bytes() == cold.read_bytes()


def test_fully_warm_run_generates_no_world(tmp_path, capsys, monkeypatch):
    """Every scan is cached, so no world is generated, with or without
    a pool, and the manifest still describes the run."""
    args = ["run", "--seed", "5", "--scale", "0.05", "--countries", "UY",
            "PY", "--cache-dir", str(tmp_path / "cache")]
    cold = tmp_path / "cold.jsonl"
    assert main(args + ["--out", str(cold), "--manifest"]) == 0

    def no_world(config):
        raise AssertionError("a fully warm run generated a world")

    monkeypatch.setattr(SyntheticWorld, "generate", staticmethod(no_world))
    for workers in ("1", "2"):
        warm = tmp_path / f"warm-{workers}.jsonl"
        assert main(args + ["--out", str(warm), "--manifest",
                            "--workers", workers]) == 0
        assert warm.read_bytes() == cold.read_bytes()
        manifest = json.loads(
            (tmp_path / f"warm-{workers}.jsonl.manifest.json").read_text())
        original = json.loads(
            (tmp_path / "cold.jsonl.manifest.json").read_text())
        assert manifest["fingerprint"] == original["fingerprint"]
        assert manifest["max_depth"] == original["max_depth"] == 7
    assert "2 hits, 0 misses" in capsys.readouterr().out


@pytest.mark.parametrize("option, value, message", [
    ("--older-than", "-5s", "durations must be non-negative"),
    ("--max-bytes", "-inf", "invalid size"),
])
def test_cache_prune_negative_value_reaches_its_check(option, value, message,
                                                      tmp_path, capsys):
    """``--older-than -5s`` is answered like ``--older-than=-5s``."""
    cache_dir = str(tmp_path / "cache")
    for spelling in ([option, value], [f"{option}={value}"]):
        assert main(["cache", "prune", "--cache-dir", cache_dir]
                    + spelling) == 2
        assert message in capsys.readouterr().err


def test_run_cache_clear(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    base = ["run", "--seed", "5", "--scale", "0.05", "--countries", "UY",
            "--cache-dir", str(cache_dir)]
    assert main(base + ["--out", str(tmp_path / "a.jsonl")]) == 0
    capsys.readouterr()
    assert main(base + ["--cache-clear", "--out", str(tmp_path / "b.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "cache: cleared 1 entries" in out
    assert "1 misses" in out  # cleared, so the run recomputed


def test_run_cache_clear_requires_cache_dir(capsys, monkeypatch):
    # The usage error comes before any world is generated.
    def no_world(config):
        raise AssertionError("generated a world before a usage check")

    monkeypatch.setattr(SyntheticWorld, "generate", staticmethod(no_world))
    assert main(["run", "--scale", "0.05", "--cache-clear"]) == 2
    assert "--cache-clear requires --cache-dir" in capsys.readouterr().err


def test_run_observed_writes_artifacts_and_identical_dataset(tmp_path,
                                                             capsys):
    import json

    base = ["run", "--seed", "5", "--scale", "0.05",
            "--countries", "UY", "PY"]
    bare = tmp_path / "bare.jsonl"
    assert main(base + ["--out", str(bare)]) == 0
    capsys.readouterr()

    observed = tmp_path / "observed.jsonl"
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert main(base + [
        "--out", str(observed), "--manifest",
        "--trace-out", str(trace), "--metrics-out", str(metrics),
    ]) == 0
    out = capsys.readouterr().out
    assert "Run summary:" in out
    assert "Stage timings" in out

    # Observability is zero-perturbation through the CLI too.
    assert observed.read_bytes() == bare.read_bytes()

    trace_data = json.loads(trace.read_text())
    assert trace_data["format"] == 1
    assert trace_data["spans"][0]["name"] == "pipeline.run"
    chrome = json.loads((tmp_path / "trace.chrome.json").read_text())
    assert chrome["traceEvents"][0]["ph"] == "X"
    metrics_data = json.loads(metrics.read_text())
    assert metrics_data["counters"]["geo.addresses"] > 0
    manifest = json.loads((tmp_path / "observed.jsonl.manifest.json")
                          .read_text())
    assert manifest["seed"] == 5
    assert manifest["countries"] == ["PY", "UY"]
    assert set(manifest["stage_seconds"]) == {"total", "scan", "merge",
                                              "finalize"}


def test_run_manifest_requires_out(capsys):
    assert main(["run", "--manifest", "--countries", "UY"]) == 2
    assert "--manifest requires --out" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["run"], ["evolve"],
                                     ["sweep", "--demo"]],
                         ids=["run", "evolve", "sweep"])
def test_workers_below_one_exit_2(command, capsys):
    assert main(command + ["--workers", "0"]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run", "--countries", "ZZ"],
    ["evolve", "--countries", "ZZ"],
    ["sweep", "--demo", "--countries", "ZZ"],
    ["run", "--scale", "0"],
    ["evolve", "--scale", "-1"],
    ["run", "--scale", "nan"],
    ["run", "--scale", "inf"],
    ["run", "--scale", "-inf"],
    ["sweep", "--demo", "--scale", "nan"],
    ["evolve", "--scale", "inf"],
    ["run", "--fault-rate", "2"],
    ["run", "--fault-rate", "-1e-3"],
    ["run", "--fault-rate", "-inf"],
    ["inspect", "--hostname", "gouv.nc", "--scale", "0"],
], ids=["run-country", "evolve-country", "sweep-country", "run-scale",
        "evolve-scale", "run-scale-nan", "run-scale-inf", "run-scale-neg-inf",
        "sweep-scale-nan", "evolve-scale-inf", "run-fault-rate",
        "run-fault-rate-negative", "run-fault-rate-neg-inf",
        "inspect-scale"])
def test_invalid_world_config_exits_2_with_one_error_line(command, capsys):
    assert main(command) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["evolve", "--snapshots", "2"],
                                     ["sweep", "--demo"]],
                         ids=["evolve", "sweep"])
def test_workers_run_a_process_pool_with_serial_bytes(command, tmp_path,
                                                      capsys):
    from repro.obs import RunRegistry

    outputs = {}
    for workers, executor in (("1", "serial"), ("2", "processes")):
        out_dir = tmp_path / f"out-{workers}"
        registry = tmp_path / f"runs-{workers}"
        assert main(command + [
            "--seed", "7", "--scale", "0.01",
            "--countries", "US", "DE", "EE", "UY",
            "--workers", workers, "--out-dir", str(out_dir),
            "--registry", str(registry),
        ]) == 0
        runs = RunRegistry(registry).runs()
        assert runs
        assert {run.manifest.executor for run in runs} == {executor}
        outputs[workers] = {path.name: path.read_bytes()
                            for path in out_dir.glob("*.jsonl")}
    capsys.readouterr()
    assert outputs["1"]
    assert outputs["2"] == outputs["1"]


def test_run_progress_heartbeat_on_stderr(capsys):
    assert main(["run", "--seed", "5", "--scale", "0.05",
                 "--countries", "UY", "PY", "--progress"]) == 0
    err = capsys.readouterr().err
    assert "scanned UY" in err
    assert "scanned PY" in err
    assert "[2/2]" in err


def test_verbose_flag_logs_pipeline_progress(capsys):
    assert main(["-v", "run", "--seed", "5", "--scale", "0.05",
                 "--countries", "UY"]) == 0
    err = capsys.readouterr().err
    assert "pipeline run: 1 countries via serial" in err


def test_quiet_flag_suppresses_info_logs(capsys):
    assert main(["-q", "run", "--seed", "5", "--scale", "0.05",
                 "--countries", "UY"]) == 0
    assert "pipeline run" not in capsys.readouterr().err


# -------------------------------------------------------- columnar store

def test_run_store_dir_writes_store(tmp_path, capsys):
    store = tmp_path / "run.store"
    code = main([
        "run", "--seed", "5", "--scale", "0.03",
        "--countries", "UY", "PY", "--store-dir", str(store),
    ])
    assert code == 0
    assert "shards" in capsys.readouterr().out
    from repro.store import is_store_path

    assert is_store_path(store)


def test_convert_roundtrip_and_reports_match(saved_dataset, tmp_path,
                                             capsys):
    store = tmp_path / "conv.store"
    assert main(["convert", str(saved_dataset), str(store),
                 "--verify"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "verified" in out

    assert main(["report", str(store), "--section", "full"]) == 0
    store_report = capsys.readouterr().out
    assert main(["report", str(saved_dataset), "--section", "full"]) == 0
    assert store_report == capsys.readouterr().out

    back = tmp_path / "back.jsonl"
    assert main(["convert", str(store), str(back)]) == 0
    capsys.readouterr()
    # The store wrote canonical (load->save) bytes.
    from repro.io import load_dataset, save_dataset

    canonical = tmp_path / "canonical.jsonl"
    save_dataset(load_dataset(saved_dataset), canonical)
    assert back.read_bytes() == canonical.read_bytes()


def test_convert_refuses_existing_destination(saved_dataset, tmp_path,
                                              capsys):
    store = tmp_path / "exists.store"
    assert main(["convert", str(saved_dataset), str(store)]) == 0
    capsys.readouterr()
    assert main(["convert", str(saved_dataset), str(store)]) == 1
    assert "already exists" in capsys.readouterr().err
    assert main(["convert", str(saved_dataset), str(store),
                 "--overwrite"]) == 0


def test_convert_missing_source_fails(tmp_path, capsys):
    assert main(["convert", str(tmp_path / "nope.jsonl"),
                 str(tmp_path / "out.store")]) == 1
    assert "error" in capsys.readouterr().err


def test_report_summary_matches_between_backends(saved_dataset, tmp_path,
                                                 capsys):
    store = tmp_path / "sum.store"
    assert main(["convert", str(saved_dataset), str(store)]) == 0
    capsys.readouterr()
    assert main(["report", str(saved_dataset)]) == 0
    jsonl_summary = capsys.readouterr().out
    assert main(["report", str(store)]) == 0
    assert capsys.readouterr().out == jsonl_summary


# ---------------------------------------------------- dataset load errors

def test_report_missing_path_exits_cleanly(capsys):
    assert main(["report", "/no/such/dataset.jsonl"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "no such dataset" in err


def test_report_truncated_jsonl_exits_cleanly(saved_dataset, tmp_path,
                                              capsys):
    truncated = tmp_path / "truncated.jsonl"
    raw = saved_dataset.read_bytes()
    truncated.write_bytes(raw[: int(len(raw) * 0.6)])
    assert main(["report", str(truncated)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_report_empty_jsonl_exits_cleanly(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert main(["report", str(empty)]) == 1
    assert "empty dataset" in capsys.readouterr().err


def test_report_corrupt_store_manifest_exits_cleanly(saved_dataset,
                                                     tmp_path, capsys):
    store = tmp_path / "corrupt.store"
    assert main(["convert", str(saved_dataset), str(store)]) == 0
    capsys.readouterr()
    (store / "manifest.json").write_text("{broken")
    assert main(["report", str(store)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "manifest" in err


def test_report_damaged_store_manifest_exits_cleanly(saved_dataset,
                                                    tmp_path, capsys):
    store = tmp_path / "damaged.store"
    assert main(["convert", str(saved_dataset), str(store)]) == 0
    capsys.readouterr()
    manifest = json.loads((store / "manifest.json").read_text())
    del manifest["record_count"]
    (store / "manifest.json").write_text(json.dumps(manifest))
    assert main(["report", str(store)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'record_count'" in err
    assert "Traceback" not in err


def test_report_damaged_jsonl_header_exits_cleanly(saved_dataset, tmp_path,
                                                   capsys):
    damaged = tmp_path / "damaged.jsonl"
    header, rest = saved_dataset.read_text().split("\n", 1)
    header = json.loads(header)
    del header["countries"]
    damaged.write_text(json.dumps(header) + "\n" + rest)
    assert main(["report", str(damaged)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "'countries'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["report", "convert"])
def test_a_mistyped_record_field_fails_with_one_error_line(
        saved_dataset, tmp_path, capsys, command):
    """A record value of the wrong JSON type (a number for a server
    country) stops both readers with one line naming line and field."""
    damaged = tmp_path / "mistyped.jsonl"
    header, first, rest = saved_dataset.read_text().split("\n", 2)
    record = json.loads(first)
    record["server_country"] = 12
    damaged.write_text("\n".join([header, json.dumps(record), rest]))
    argv = {
        "report": ["report", str(damaged), "--section", "full"],
        "convert": ["convert", str(damaged), str(tmp_path / "out.store")],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {damaged}:2: ")
    assert captured.err.count("\n") == 1
    assert "field 'server_country'" in captured.err
    assert sorted(tmp_path.iterdir()) == [damaged]


@pytest.fixture()
def flipped_store(saved_dataset, tmp_path, column):
    """A store of the saved dataset with one bit of AE's ``column``
    flipped (file sizes unchanged, so it opens)."""
    store = tmp_path / "flipped.store"
    assert main(["convert", str(saved_dataset), str(store)]) == 0
    path = store / "AE" / column
    payload = bytearray(path.read_bytes())
    payload[len(payload) // 2] ^= 0x01
    path.write_bytes(bytes(payload))
    return store


def _listening(server):
    raise AssertionError("serve listened on a damaged store")


@pytest.mark.parametrize("command, column", [
    pytest.param("report", "sizes.i64", id="report"),
    pytest.param("convert", "sizes.i64", id="convert"),
    pytest.param("serve", "sizes.i64", id="serve"),
    # No query the service warms up reads category.u8: only the full
    # verify before listening finds this one.
    pytest.param("serve", "category.u8", id="serve-category"),
])
def test_a_flipped_column_bit_fails_with_one_error_line(
        flipped_store, tmp_path, capsys, monkeypatch, command, column):
    from repro.serve.gateway import DatasetHTTPServer

    monkeypatch.setattr(DatasetHTTPServer, "serve_forever", _listening)
    destination = tmp_path / "out.jsonl"
    argv = {
        "report": ["report", str(flipped_store), "--section", "full"],
        "convert": ["convert", str(flipped_store), str(destination)],
        "serve": ["serve", "--store-dir", str(flipped_store),
                  "--port", "0"],
    }[command]
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"error: {flipped_store / 'AE' / column}: digest mismatch\n"
    assert sorted(tmp_path.iterdir()) == [flipped_store]


def test_report_plain_directory_exits_cleanly(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 1
    assert "not a dataset store" in capsys.readouterr().err


# ------------------------------------------------------------------ serve

def test_serve_requires_a_dataset_source():
    import pytest

    with pytest.raises(SystemExit):
        main(["serve"])


def test_serve_rejects_both_sources(tmp_path):
    import pytest

    with pytest.raises(SystemExit):
        main(["serve", "--dataset", "a.jsonl", "--store-dir", "b.store"])


def test_serve_missing_dataset_exits_cleanly(capsys):
    assert main(["serve", "--dataset", "/no/such/dataset.jsonl"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_serve_damaged_faults_header_exits_before_listening(
        saved_dataset, tmp_path, capsys, monkeypatch):
    from repro.serve.gateway import DatasetHTTPServer

    monkeypatch.setattr(DatasetHTTPServer, "serve_forever", _listening)
    damaged = tmp_path / "faults.jsonl"
    header, rest = saved_dataset.read_text().split("\n", 1)
    header = json.loads(header)
    header["faults"] = [1]
    damaged.write_text(json.dumps(header) + "\n" + rest)
    assert main(["serve", "--dataset", str(damaged), "--port", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {damaged}:1: 'faults' must be an object\n"


def test_serve_rejects_bad_workers(saved_dataset, capsys):
    assert main(["serve", "--dataset", str(saved_dataset),
                 "--workers", "0"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_serve_answers_over_http(saved_dataset, capsys):
    """End-to-end: CLI-started server answers and matches the batch CLI."""
    import json
    import threading
    import urllib.request

    from repro.serve import DatasetService, create_server

    assert main(["report", str(saved_dataset), "--section", "global"]) == 0
    batch = capsys.readouterr().out.rstrip("\n")

    service = DatasetService.open(saved_dataset)
    server = create_server(service, workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        url = f"http://127.0.0.1:{port}/v1/report?section=global"
        with urllib.request.urlopen(url) as response:
            body = json.load(response)
        assert body["text"] == batch
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=5)


def test_serve_banner_reaches_a_pipe(tmp_path):
    """A piped parent reads the bound port without PYTHONUNBUFFERED."""
    import os
    import pathlib
    import queue
    import re
    import signal
    import subprocess
    import sys
    import threading
    import urllib.request

    import repro

    store = tmp_path / "ds.store"
    assert main(["run", "--seed", "5", "--scale", "0.01", "--countries",
                 "UY", "--store-dir", str(store)]) == 0
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "repro.cli", "serve",
               "--store-dir", str(store), "--port", "0"]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        lines: queue.Queue = queue.Queue()
        reader = threading.Thread(
            target=lambda: lines.put(proc.stdout.readline()), daemon=True)
        reader.start()
        try:
            banner = lines.get(timeout=60)
            found = re.fullmatch(
                r"serving store dataset \S+ on http://127\.0\.0\.1:(\d+) "
                r"\(8 workers\)\n", banner)
            assert found, banner
            url = f"http://127.0.0.1:{found.group(1)}/healthz"
            with urllib.request.urlopen(url, timeout=30) as response:
                assert response.status == 200
        finally:
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        reader.join(timeout=5)
        assert not reader.is_alive()
    assert proc.returncode == 0, err


# ------------------------------------------------- cross-run observability

@pytest.fixture(scope="module")
def registry_dir(tmp_path_factory):
    """Two registered runs differing only in their seed."""
    registry = tmp_path_factory.mktemp("cli") / "registry"
    for seed in ("5", "6"):
        assert main(["run", "--seed", seed, "--scale", "0.05",
                     "--countries", "UY", "--registry", str(registry)]) == 0
    return registry


def test_evolve_and_sweep_record_one_manifest_per_run(tmp_path, capsys):
    """evolve records each snapshot's manifest, chained to its parent;
    sweep one per distinct config in scenario order, without cache
    accounting."""
    from repro.obs import RunManifest, RunRegistry, manifest_path_for

    world = ["--seed", "7", "--scale", "0.01",
             "--countries", "US", "DE", "EE", "UY"]
    out_dir = tmp_path / "snaps"
    series = tmp_path / "series"
    assert main(["evolve", *world, "--snapshots", "3", "--evolve-seed", "5",
                 "--out-dir", str(out_dir), "--manifest",
                 "--registry", str(series)]) == 0
    assert f"registry: 3 runs in {series}" in capsys.readouterr().out
    runs = RunRegistry(series).runs()
    assert len(runs) == 3
    for step, run in enumerate(runs):
        assert run.manifest == RunManifest.read(
            manifest_path_for(out_dir / f"snapshot-{step}.jsonl"))
        evolution = run.manifest.evolution
        if step == 0:
            assert evolution is None
            continue
        assert evolution["parent_fingerprint"] == runs[step - 1].fingerprint
        assert evolution["step"] == step
        assert evolution["seed"] == 5

    sweeps = tmp_path / "sweeps"
    summary = tmp_path / "sweep.json"
    assert main(["sweep", "--demo", *world, "--cache-dir",
                 str(tmp_path / "cache"), "--json", str(summary),
                 "--registry", str(sweeps)]) == 0
    scenarios = json.loads(summary.read_text())["scenarios"]
    distinct = list(dict.fromkeys(item["run_fp"] for item in scenarios))
    assert len(distinct) < len(scenarios)
    assert f"registry: {len(distinct)} runs in {sweeps}" in \
        capsys.readouterr().out
    runs = RunRegistry(sweeps).runs()
    assert [run.fingerprint for run in runs] == distinct
    assert all(run.manifest.cache is None for run in runs)


def test_run_registry_records_each_execution(tmp_path, capsys):
    registry = tmp_path / "registry"
    args = ["run", "--seed", "5", "--scale", "0.05", "--countries", "UY",
            "--registry", str(registry)]
    assert main(args) == 0
    assert "registry: recorded run #0" in capsys.readouterr().out
    # Re-running the same config appends a new entry: manifests carry
    # measured wall times, so each execution is its own run — exactly
    # what the cross-run trajectory analysis needs.  Both runs share
    # one fingerprint.
    assert main(args) == 0
    assert "registry: recorded run #1" in capsys.readouterr().out

    from repro.obs import RunRegistry

    first, second = RunRegistry(registry).runs()
    assert first.fingerprint == second.fingerprint
    assert first.id != second.id


def test_run_registry_after_a_torn_append(tmp_path, capsys):
    registry = tmp_path / "registry"
    for seed in ("5", "6"):
        assert main(["run", "--seed", seed, "--scale", "0.01",
                     "--countries", "UY", "--registry", str(registry)]) == 0
    journal = registry / "journal.jsonl"
    journal.write_bytes(journal.read_bytes()[:-40])
    assert main(["run", "--seed", "7", "--scale", "0.01", "--countries",
                 "UY", "--registry", str(registry)]) == 0
    assert "registry: recorded run #1" in capsys.readouterr().out
    assert main(["obs", "runs", "--registry", str(registry), "--json"]) == 0
    runs = json.loads(capsys.readouterr().out)
    assert [run["manifest"]["seed"] for run in runs] == [5, 7]


@pytest.mark.parametrize("damage", [b'{"id": "\xff"}\n', b"{not json\n"],
                         ids=["non-utf8", "not-json"])
@pytest.mark.parametrize("command", [
    ["run", "--scale", "0.01", "--countries", "UY", "--out"],
    ["evolve", "--scale", "0.01", "--countries", "UY", "--out-dir"],
    ["sweep", "--demo", "--scale", "0.01", "--countries", "UY", "--out-dir"],
], ids=["run", "evolve", "sweep"])
def test_damaged_registry_fails_before_the_run(command, damage, tmp_path,
                                               capsys):
    registry = tmp_path / "registry"
    registry.mkdir()
    (registry / "journal.jsonl").write_bytes(damage)
    out = tmp_path / "out"
    assert main(command + [str(out), "--registry", str(registry)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "line 1 is not a valid journal record" in err
    assert not out.exists()  # nothing ran


def test_obs_runs_on_a_non_utf8_journal_exits_cleanly(tmp_path, capsys):
    (tmp_path / "journal.jsonl").write_bytes(b'{"id": "\xff"}\n')
    assert main(["obs", "runs", "--registry", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 1" in err


def test_obs_runs_lists_registered_runs(registry_dir, capsys):
    assert main(["obs", "runs", "--registry", str(registry_dir)]) == 0
    out = capsys.readouterr().out
    assert "Registered runs (2)" in out
    assert "#0" in out and "#1" in out
    assert "serial" in out


def test_obs_runs_json(registry_dir, capsys):
    import json

    assert main(["obs", "runs", "--registry", str(registry_dir),
                 "--json"]) == 0
    runs = json.loads(capsys.readouterr().out)
    assert [run["seq"] for run in runs] == [0, 1]
    assert runs[0]["manifest"]["seed"] == 5
    assert runs[1]["manifest"]["seed"] == 6


def test_output_into_a_closed_pipe_exits_1_without_a_traceback(
        registry_dir):
    """A reader that exits early (``| head``, ``| true``) ends the
    command with status 1 and nothing on stderr."""
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "repro.cli", "obs", "runs",
               "--registry", str(registry_dir)]
    with subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == 1


def test_obs_diff_names_the_changed_seed(registry_dir, capsys):
    assert main(["obs", "diff", "0", "1",
                 "--registry", str(registry_dir)]) == 0
    out = capsys.readouterr().out
    assert "diff of run #0" in out
    assert "fingerprints differ" in out
    assert "seed" in out


def test_obs_diff_accepts_id_prefixes(registry_dir, capsys):
    import json

    assert main(["obs", "runs", "--registry", str(registry_dir),
                 "--json"]) == 0
    runs = json.loads(capsys.readouterr().out)
    assert main(["obs", "diff", runs[0]["id"][:8], "1",
                 "--registry", str(registry_dir), "--json"]) == 0
    diff = json.loads(capsys.readouterr().out)
    assert diff["config"]["seed"] == {"a": 5, "b": 6}


def test_obs_diff_unknown_ref_exits_cleanly(registry_dir, capsys):
    assert main(["obs", "diff", "0", "99",
                 "--registry", str(registry_dir)]) == 1
    assert "no run #99" in capsys.readouterr().err


def _bench_paths():
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1]
    return sorted(str(p) for p in root.glob("BENCH_*.json"))


def test_obs_bench_check_passes_on_checked_in_benchmarks(capsys):
    assert main(["obs", "bench", "--check"] + _bench_paths()) == 0
    out = capsys.readouterr().out
    assert "bench gates passed" in out
    assert "FAIL" not in out


def test_obs_bench_check_fails_naming_the_culprit(tmp_path, capsys):
    import json
    import pathlib

    source = json.loads(pathlib.Path(_bench_paths()[0]).read_text())
    source["speedup"] = 0.01
    bad = tmp_path / "BENCH_analysis.json"
    bad.write_text(json.dumps(source))

    assert main(["obs", "bench", "--check", str(bad)]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "bench gates FAILED" in captured.err
    assert "speedup" in captured.err  # the culprit metric is named

    # Without --check the failure is reported but not fatal.
    assert main(["obs", "bench", str(bad)]) == 0


def test_serve_trace_ring_must_be_positive(saved_dataset, tmp_path, capsys):
    assert main(["serve", "--dataset", str(saved_dataset),
                 "--trace-dir", str(tmp_path / "traces"),
                 "--trace-ring", "0"]) == 2
    assert "--trace-ring" in capsys.readouterr().err


#: ``(command, option, path under tmp_path)``: each output a batch
#: command writes, pointed where it cannot be written.  ``file`` is a
#: regular file, ``missing`` does not exist and ``.`` is tmp_path.
UNWRITABLE = [
    (["run"], "--out", "missing/x.jsonl"),
    (["run"], "--out", "."),
    (["run"], "--out", "file/x.jsonl"),
    (["run"], "--csv", "missing/x.csv"),
    (["run"], "--trace-out", "missing/trace.json"),
    (["run"], "--metrics-out", "missing/metrics.json"),
    (["run"], "--store-dir", "file/s"),
    (["run"], "--cache-dir", "file"),
    (["run"], "--registry", "file"),
    (["sweep", "--demo"], "--out-dir", "file/x"),
    (["sweep", "--demo"], "--json", "missing/sweep.json"),
    (["sweep", "--demo"], "--cache-dir", "file/c"),
    (["sweep", "--demo"], "--registry", "file"),
    (["evolve", "--snapshots", "2"], "--out-dir", "file/x"),
    (["evolve", "--snapshots", "2"], "--cache-dir", "file"),
    (["evolve", "--snapshots", "2"], "--registry", "file/r"),
]


@pytest.mark.parametrize(
    "command, option, relative", UNWRITABLE,
    ids=[f"{command[0]}{option}={relative}"
         for command, option, relative in UNWRITABLE])
def test_an_unwritable_output_exits_2_before_any_work(
        command, option, relative, tmp_path, capsys, monkeypatch):
    (tmp_path / "file").write_text("not a directory")

    def no_world(config):
        raise AssertionError("generated a world before checking outputs")

    monkeypatch.setattr(SyntheticWorld, "generate", staticmethod(no_world))
    path = str(tmp_path / relative)
    assert main([*command, "--scale", "0.01", option, path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {option} {path}: ")
    assert (tmp_path / "file").read_text() == "not a directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("option, written", [
    ("--trace-out", "trace.chrome.json"),
    ("--manifest", "d.jsonl.manifest.json"),
])
def test_an_unwritable_sibling_output_exits_2_before_any_work(
        option, written, tmp_path, capsys, monkeypatch):
    """``--trace-out`` also writes a Chrome trace beside its file, and
    ``--manifest`` a manifest beside ``--out``."""
    (tmp_path / written).mkdir()

    def no_world(config):
        raise AssertionError("generated a world before checking outputs")

    monkeypatch.setattr(SyntheticWorld, "generate", staticmethod(no_world))
    assert main(["run", "--scale", "0.01", "--out", str(tmp_path / "d.jsonl"),
                 "--manifest", "--trace-out", str(tmp_path / "trace.json")
                 ]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {option} {tmp_path / written}: is a directory"]


def test_an_error_while_writing_is_one_line_and_exit_1(tmp_path, capsys,
                                                       monkeypatch):
    import errno

    import repro.io

    def full_disk(dataset, path):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(repro.io, "save_dataset", full_disk)
    out = tmp_path / "d.jsonl"
    assert main(["run", "--scale", "0.01", "--countries", "UY",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno {errno.ENOSPC}] No space left on device: '{out}'"]


def test_a_failed_json_write_keeps_the_old_file(tmp_path, capsys,
                                                monkeypatch):
    """A JSON artifact goes through a temp sibling: a write that fails
    after its first chunk leaves the old file and no temp file."""
    import errno

    metrics = tmp_path / "metrics.json"
    metrics.write_text("old bytes\n")

    def full_disk(payload, handle, **kwargs):
        handle.write('{"counters": {')
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(json, "dump", full_disk)
    assert main(["run", "--scale", "0.01", "--countries", "UY",
                 "--metrics-out", str(metrics)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: [Errno {errno.ENOSPC}] No space left on device"]
    assert metrics.read_text() == "old bytes\n"
    assert [path.name for path in tmp_path.iterdir()] == ["metrics.json"]


#: ``(argv, exit status, error message)`` of refusals pinned nowhere
#: else; ``{tmp}`` is tmp_path, ``{dataset}`` a saved jsonl dataset and
#: ``{store}`` its columnar store.  ``{tmp}/exists.jsonl`` exists.
REFUSALS = {
    "convert-onto-existing": (
        ["convert", "{store}", "{tmp}/exists.jsonl"], 2,
        "{tmp}/exists.jsonl exists (pass --overwrite)"),
    "serve-trace-ring-0": (
        ["serve", "--dataset", "{dataset}", "--trace-dir", "{tmp}/traces",
         "--trace-ring", "0"], 2,
        "--trace-ring must be at least 1"),
    "cache-prune-without-limit": (
        ["cache", "prune", "--cache-dir", "{tmp}/cache"], 2,
        "prune needs --max-bytes and/or --older-than"),
    "evolve-no-snapshots": (
        ["evolve", "--snapshots", "0"], 2,
        "--snapshots must be at least 1"),
    "evolve-manifest-without-out-dir": (
        ["evolve", "--manifest"], 2,
        "--manifest requires --out-dir"),
    "sweep-missing-matrix": (
        ["sweep", "--matrix", "{tmp}/missing.json"], 1,
        "[Errno 2] No such file or directory: '{tmp}/missing.json'"),
    "obs-runs-registry-is-a-file": (
        ["obs", "runs", "--registry", "{tmp}/exists.jsonl"], 1,
        "[Errno 17] File exists: '{tmp}/exists.jsonl'"),
}


@pytest.mark.parametrize("argv, status, message", REFUSALS.values(),
                         ids=REFUSALS.keys())
def test_a_refused_command_prints_one_error_line(argv, status, message,
                                                 saved_dataset, tmp_path,
                                                 capsys):
    exists = tmp_path / "exists.jsonl"
    exists.write_text("old")
    names = {"tmp": tmp_path, "dataset": saved_dataset,
             "store": tmp_path / "d.store"}
    if "{store}" in argv:
        assert main(["convert", str(saved_dataset), str(names["store"])]) == 0
        capsys.readouterr()
    assert main([arg.format(**names) for arg in argv]) == status
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {message.format(**names)}"]
    assert exists.read_text() == "old"
