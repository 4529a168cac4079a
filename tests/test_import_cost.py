"""Import costs: what a module loads is checked in a fresh interpreter.

``repro-gov run`` loads no numpy and no analysis or store module: the
report layer imports them where a section is rendered, and the world
generator builds from checked-in constants.  scipy loads only where the
full report's regression and the clustering run.  The scan cache loads
none of the dataset store, the analysis layer and numpy.  The checks
run in a fresh interpreter, because other tests load all of these into
the test process.
"""

import json
import os
import pathlib
import subprocess
import sys

import repro

PROBE = """
import contextlib, io, json, sys

import repro.cli, repro.serve, repro.store, repro.cache, repro.evolve
import repro.scenarios


def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))


out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    assert repro.cli.main(["run", "--scale", "0.01", "--seed", "7",
                           "--out", out]) == 0
after_run = scipy_modules()
with contextlib.redirect_stdout(io.StringIO()) as report:
    assert repro.cli.main(["report", out, "--section", "full"]) == 0
print(json.dumps({"after_run": after_run,
                  "after_report": scipy_modules(),
                  "report_chars": len(report.getvalue()),
                  "numpy_after_report": "numpy" in sys.modules}))
"""

#: Prefixes of what a ``run`` to jsonl or CSV never uses.
UNUSED_BY_RUN = ("numpy", "repro.analysis", "repro.store",
                 "repro.reporting.paper_report")

LOADED = """
def unused_by_run():
    return sorted(
        name for name in sys.modules
        if sys.modules[name] is not None
        and any(name == p or name.startswith(p + ".") for p in %r))
""" % (UNUSED_BY_RUN,)

HELP_PROBE = """
import contextlib, io, json, sys
""" + LOADED + """
import repro.cli

after_import = unused_by_run()
with contextlib.redirect_stdout(io.StringIO()):
    try:
        repro.cli.main(["--help"])
    except SystemExit as done:
        assert done.code == 0
print(json.dumps({"import": after_import, "help": unused_by_run()}))
"""

#: ``run`` variants, in order, into one output directory (``{d}``).
#: ``cache-warm`` reruns ``cache-cold`` against the cache it filled.
RUN_VARIANTS = {
    "serial": ["--out", "{d}/serial.jsonl"],
    "workers": ["--workers", "2", "--out", "{d}/workers.jsonl"],
    "cache-cold": ["--cache-dir", "{d}/cache", "--out", "{d}/cold.jsonl"],
    "cache-warm": ["--cache-dir", "{d}/cache", "--out", "{d}/warm.jsonl"],
    "observed": ["--fault-rate", "0.2", "--csv", "{d}/faults.csv",
                 "--trace-out", "{d}/trace.json",
                 "--metrics-out", "{d}/metrics.prom", "--progress",
                 "--out", "{d}/faults.jsonl"],
    "manifest": ["--manifest", "--registry", "{d}/registry",
                 "--out", "{d}/manifest.jsonl"],
}

RUN_PROBE = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # any later `import numpy` raises
""" + LOADED + """
import repro.cli

out_dir, variants = sys.argv[2], json.loads(sys.argv[3])
loaded, printed = {}, {}
for name, args in variants.items():
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        code = repro.cli.main(
            ["run", "--scale", "0.01", "--seed", "7"]
            + [arg.format(d=out_dir) for arg in args])
    assert code == 0, (name, code)
    loaded[name] = unused_by_run()
    printed[name] = stdout.getvalue()
print(json.dumps({"loaded": loaded, "printed": printed}))
"""


def _probe(code: str, *args: str):
    """Run ``code`` in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ)
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_no_command_imports_scipy_until_an_analysis_needs_it(tmp_path):
    probe = _probe(PROBE, str(tmp_path / "d.jsonl"))
    assert probe["after_run"] == []
    assert probe["report_chars"] > 0
    # The full report's regression takes its Student-t values from
    # scipy.special, which is far cheaper to import than scipy.stats.
    assert "scipy.special" in probe["after_report"]
    assert "scipy.stats" not in probe["after_report"]
    assert probe["numpy_after_report"]


def test_start_up_and_help_load_no_numpy_analysis_or_store():
    probe = _probe(HELP_PROBE)
    assert probe == {"import": [], "help": []}


def test_run_loads_no_numpy_and_writes_the_same_bytes_without_it(tmp_path):
    variants = json.dumps(RUN_VARIANTS)
    (tmp_path / "free").mkdir()
    (tmp_path / "block").mkdir()
    free = _probe(RUN_PROBE, "free", str(tmp_path / "free"), variants)
    blocked = _probe(RUN_PROBE, "block", str(tmp_path / "block"), variants)
    assert free["loaded"] == {name: [] for name in RUN_VARIANTS}
    assert blocked["loaded"] == free["loaded"]
    assert "0 misses" in free["printed"]["cache-warm"]
    assert "0 misses" in blocked["printed"]["cache-warm"]
    outputs = sorted(path.name for path in (tmp_path / "free").iterdir()
                     if path.suffix in (".jsonl", ".csv"))
    assert len(outputs) == len(RUN_VARIANTS) + 1
    for name in outputs:
        assert ((tmp_path / "block" / name).read_bytes()
                == (tmp_path / "free" / name).read_bytes()), name
    serial = (tmp_path / "free" / "serial.jsonl").read_bytes()
    for name in ("workers", "cold", "warm", "manifest"):
        assert (tmp_path / "free" / f"{name}.jsonl").read_bytes() == serial


def test_the_scan_cache_loads_no_store_analysis_or_numpy():
    loaded = _probe(
        "import json, sys\n"
        "import repro.cache\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert "repro.cache.store" in loaded
    assert [name for name in loaded
            if name.startswith(("repro.store", "repro.analysis"))
            or name == "numpy" or name.startswith("numpy.")] == []
