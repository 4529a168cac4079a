"""CLI surface: ``repro-gov sweep`` and ``repro-gov cache stats/prune``."""

from __future__ import annotations

import json

import pytest

from repro.cli import _parse_duration, _parse_size, main

SWEEP_ARGS = [
    "sweep", "--seed", "42", "--scale", "0.01",
    "--countries", "US", "DE", "EE", "UY",
]


def test_sweep_demo_prints_accounting_and_report(tmp_path, capsys):
    json_out = tmp_path / "sweep.json"
    code = main(SWEEP_ARGS + [
        "--demo", "--cache-dir", str(tmp_path / "cache"),
        "--json", str(json_out),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "SCENARIO SWEEP REPORT" in out
    assert "unique scans" in out
    assert "Divergence vs baseline" in out
    payload = json.loads(json_out.read_text())
    accounting = payload["accounting"]
    assert accounting["scenarios"] == 5
    assert accounting["cache_hits"] + accounting["executed"] == \
        accounting["unique_keys"]
    assert len(payload["divergences"]) == 4


def test_sweep_matrix_file_and_out_dir(tmp_path, capsys):
    matrix_path = tmp_path / "matrix.json"
    matrix_path.write_text(json.dumps({"scenarios": [
        {"name": "cf-down", "kind": "outage", "provider": "cloudflare"},
    ]}))
    out_dir = tmp_path / "out"
    code = main(SWEEP_ARGS + [
        "--matrix", str(matrix_path), "--out-dir", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 scenarios x 4 countries" in out
    # The outage shares every scan with the baseline.
    assert "-> 4 unique scans" in out
    baseline = (out_dir / "baseline.jsonl").read_bytes()
    assert baseline == (out_dir / "cf-down.jsonl").read_bytes()


def test_sweep_rejects_bad_matrices(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scenarios": [
        {"name": "x", "kind": "outage", "provider": "nope"},
    ]}))
    assert main(SWEEP_ARGS + ["--matrix", str(bad)]) == 2
    assert "unknown provider" in capsys.readouterr().err
    assert main(SWEEP_ARGS + ["--matrix", str(tmp_path / "none.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_sweep_requires_a_matrix_source():
    with pytest.raises(SystemExit):
        main(["sweep"])


def test_cache_stats_and_prune_flow(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    assert main(SWEEP_ARGS + ["--demo", "--cache-dir",
                              str(cache_dir)]) == 0
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "Scan cache" in out
    assert "entries per country" in out

    assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                 "--max-bytes", "0", "--dry-run"]) == 0
    assert "would remove" in capsys.readouterr().out

    assert main(["cache", "prune", "--cache-dir", str(cache_dir),
                 "--older-than", "0s"]) == 0
    assert "removed" in capsys.readouterr().out

    assert main(["cache", "stats", "--cache-dir", str(cache_dir),
                 "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 0


def test_cache_prune_argument_errors(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["cache", "prune", "--cache-dir", cache_dir]) == 2
    assert "--max-bytes and/or --older-than" in capsys.readouterr().err
    assert main(["cache", "prune", "--cache-dir", cache_dir,
                 "--max-bytes", "10Q"]) == 2
    assert "invalid size" in capsys.readouterr().err
    assert main(["cache", "prune", "--cache-dir", cache_dir,
                 "--older-than", "soon"]) == 2
    assert "invalid duration" in capsys.readouterr().err
    for size in ("inf", "1e400", "nan", "1e308G"):
        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--max-bytes", size]) == 2
        assert "invalid size" in capsys.readouterr().err
    for age in ("nan", "inf", "1e400d"):
        assert main(["cache", "prune", "--cache-dir", cache_dir,
                     "--older-than", age]) == 2
        assert "invalid duration" in capsys.readouterr().err


def test_suffix_parsing():
    assert _parse_duration("90") == 90.0
    assert _parse_duration("15m") == 900.0
    assert _parse_duration("6H") == 21600.0
    assert _parse_duration("7d") == 7 * 86400.0
    assert _parse_size("1048576") == 1048576
    assert _parse_size("512K") == 512 * 1024
    assert _parse_size("500m") == 500 * 1024 ** 2
    assert _parse_size("2G") == 2 * 1024 ** 3
    with pytest.raises(ValueError):
        _parse_duration("-5s")
    with pytest.raises(ValueError):
        _parse_size("lots")
    for text in ("inf", "1e400", "nan", "1e308G"):
        with pytest.raises(ValueError, match="invalid size"):
            _parse_size(text)
    for text in ("nan", "inf", "-inf", "1e308d"):
        with pytest.raises(ValueError, match="invalid duration"):
            _parse_duration(text)
